package urp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/vclock"
)

type wire struct{ d *medium.Duplex }

func (w wire) SendCell(p []byte) error   { return w.d.Send(p) }
func (w wire) RecvCell() ([]byte, error) { return w.d.Recv() }
func (w wire) Close() error              { w.d.Close(); return nil }

func pair(t *testing.T, p medium.Profile) (*Conn, *Conn, *Stats) {
	t.Helper()
	a, b := medium.NewDuplex(p)
	stats := &Stats{}
	ca := New(wire{a}, stats, nil)
	cb := New(wire{b}, stats, nil)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb, stats
}

func TestEcho(t *testing.T) {
	a, b, _ := pair(t, medium.Profile{})
	a.Write([]byte("urp message"))
	buf := make([]byte, 256)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "urp message" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	b.Write([]byte("response"))
	n, err = a.Read(buf)
	if err != nil || string(buf[:n]) != "response" {
		t.Fatalf("response %q, %v", buf[:n], err)
	}
}

func TestWindowBlocksSender(t *testing.T) {
	// With the receiver's pipe stalled (no reads by anyone — use a
	// one-way wire that swallows acks), the sender must block after
	// Window blocks. On the virtual clock "block" is provable cheaply:
	// two full simulated seconds pass — forty enquiry timeouts, yet
	// well under the thirty-second death timer — and the writer still
	// has not finished. (t.Error, not t.Fatal, inside Run: Goexit from
	// a machine goroutine would hang the scheduler.)
	v := vclock.NewVirtual()
	v.Run(func() {
		tx := medium.NewPipe(medium.Profile{Clock: v})
		silent := medium.NewPipe(medium.Profile{Clock: v}) // acks never come back
		a := New(wire{d: duplexOf(tx, silent)}, nil, v)
		defer a.Close()
		done := make(chan int, 1)
		v.Go(func() {
			n := 0
			for range Window + 2 {
				if _, err := a.Write(bytes.Repeat([]byte("x"), BlockSize)); err != nil {
					break
				}
				n++
			}
			done <- n
		})
		v.Sleep(2 * time.Second)
		select {
		case n := <-done:
			t.Errorf("sender never blocked: wrote %d blocks", n)
		default:
		}
	})
}

// duplexOf builds a Duplex from raw pipes for asymmetric tests.
func duplexOf(tx, rx *medium.Pipe) *medium.Duplex {
	return medium.AssembleDuplex(tx, rx)
}

func TestSequencedDeliveryUnderLoss(t *testing.T) {
	a, b, stats := pair(t, medium.Profile{Loss: 0.1, Seed: 9})
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	var got [][]byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for len(got) < rounds {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
	}()
	for i := range rounds {
		a.Write(bytes.Repeat([]byte{byte(i)}, 200))
	}
	wg.Wait()
	if len(got) != rounds {
		t.Fatalf("got %d of %d messages", len(got), rounds)
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
	_ = stats
}

func TestHangup(t *testing.T) {
	a, b, _ := pair(t, medium.Profile{})
	a.Write([]byte("bye"))
	buf := make([]byte, 64)
	b.Read(buf)
	a.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := b.Read(buf); err != nil {
			if !b.Dead() {
				t.Error("Dead() false after hangup read error")
			}
			return
		}
	}
	t.Fatal("no hangup seen")
}
