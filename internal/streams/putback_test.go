package streams

import (
	"testing"
	"time"
)

// TestPutbackWakesSecondReader is the regression test for the missed
// wakeup in Queue.putback: with two readers sharing a queue, reader A
// can take a freshly enqueued block (barging past reader B, already
// parked in Get), consume part of it, and return the remainder with
// putback. putback must Broadcast like Enqueue does — without it, B
// sleeps on readable data until unrelated traffic arrives.
func TestPutbackWakesSecondReader(t *testing.T) {
	s := New(0, nil, nil)
	defer s.Close()
	q := s.topRead

	type result struct {
		b   *Block
		err error
	}
	ch := make(chan result, 1)
	go func() {
		b, err := q.Get() // reader B
		ch <- result{b, err}
	}()
	// Let B park on the empty queue. If it loses this race and parks
	// after the putback below, Get finds the block immediately and the
	// test still passes — the failure mode only needs B parked first.
	time.Sleep(50 * time.Millisecond)

	// Reader A re-heads the unconsumed tail of its block.
	rem := NewBlock([]byte("rest"))
	q.putback(rem)

	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Get: %v", r.err)
		}
		if got := string(r.b.Buf); got != "rest" {
			t.Fatalf("Get = %q, want %q", got, "rest")
		}
		r.b.Free()
	case <-time.After(2 * time.Second):
		t.Fatal("reader parked in Get missed the putback wakeup")
	}
}
