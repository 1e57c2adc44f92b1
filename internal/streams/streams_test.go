package streams

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// loopback wires a stream's device end back to its own input, so
// everything written comes back up.
func loopback(t *testing.T) *Stream {
	t.Helper()
	var s *Stream
	s = New(0, nil, func(b *Block) { s.DeviceUp(b) })
	t.Cleanup(func() { s.Close() })
	return s
}

// crossPair returns two streams wired to each other, a bidirectional
// pipe built from two streams.
func crossPair(t *testing.T) (*Stream, *Stream) {
	t.Helper()
	var a, b *Stream
	a = New(0, nil, func(blk *Block) { b.DeviceUp(blk) })
	b = New(0, nil, func(blk *Block) { a.DeviceUp(blk) })
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestWriteReadLoopback(t *testing.T) {
	s := loopback(t)
	if n, err := s.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("write = %d, %v", n, err)
	}
	buf := make([]byte, 16)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestReadStopsAtDelimiter(t *testing.T) {
	s := loopback(t)
	s.Write([]byte("one"))
	s.Write([]byte("two"))
	buf := make([]byte, 64)
	n, _ := s.Read(buf)
	if string(buf[:n]) != "one" {
		t.Errorf("first read %q, want delimiter-bounded \"one\"", buf[:n])
	}
	n, _ = s.Read(buf)
	if string(buf[:n]) != "two" {
		t.Errorf("second read %q", buf[:n])
	}
}

func TestPartialBlockRemainderStaysQueued(t *testing.T) {
	s := loopback(t)
	s.Write([]byte("abcdef"))
	buf := make([]byte, 2)
	n, _ := s.Read(buf)
	if string(buf[:n]) != "ab" {
		t.Fatalf("read %q", buf[:n])
	}
	n, _ = s.Read(buf)
	if string(buf[:n]) != "cd" {
		t.Fatalf("second read %q (remainder lost?)", buf[:n])
	}
	n, _ = s.Read(buf)
	if string(buf[:n]) != "ef" {
		t.Fatalf("third read %q", buf[:n])
	}
}

func TestLargeWriteSplitsAt32K(t *testing.T) {
	var blocks []*Block
	s := New(1<<20, nil, func(b *Block) { blocks = append(blocks, b) })
	defer s.Close()
	payload := bytes.Repeat([]byte("x"), MaxBlock+1000)
	s.Write(payload)
	if len(blocks) != 2 {
		t.Fatalf("%d blocks, want 2", len(blocks))
	}
	if len(blocks[0].Buf) != MaxBlock || blocks[0].Delim {
		t.Errorf("first block len=%d delim=%v", len(blocks[0].Buf), blocks[0].Delim)
	}
	if len(blocks[1].Buf) != 1000 || !blocks[1].Delim {
		t.Errorf("last block len=%d delim=%v", len(blocks[1].Buf), blocks[1].Delim)
	}
}

func TestSingleBlockWriteIsAtomic(t *testing.T) {
	// A write of <= 32K is one block, so concurrent writers cannot
	// interleave within it.
	var mu sync.Mutex
	var sizes []int
	s := New(1<<24, nil, func(b *Block) {
		mu.Lock()
		sizes = append(sizes, len(b.Buf))
		mu.Unlock()
	})
	defer s.Close()
	var wg sync.WaitGroup
	for range 10 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				s.Write(bytes.Repeat([]byte("y"), 1000))
			}
		}()
	}
	wg.Wait()
	for _, n := range sizes {
		if n != 1000 {
			t.Fatalf("interleaved block of %d bytes", n)
		}
	}
	if len(sizes) != 500 {
		t.Errorf("%d blocks, want 500", len(sizes))
	}
}

func TestHangupDrainsThenEOF(t *testing.T) {
	s := loopback(t)
	s.Write([]byte("last words"))
	s.HangupUp()
	buf := make([]byte, 64)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "last words" {
		t.Fatalf("drain read %q, %v", buf[:n], err)
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Errorf("post-hangup read err = %v, want EOF", err)
	}
	if _, err := s.Write([]byte("x")); err != ErrHungup {
		t.Errorf("post-hangup write err = %v", err)
	}
}

func TestHangupViaCtl(t *testing.T) {
	s := loopback(t)
	if err := s.WriteCtl("hangup"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after ctl hangup = %v", err)
	}
}

func TestBlockedReaderWokenByClose(t *testing.T) {
	s := New(0, nil, nil)
	done := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("reader error = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader not woken by close")
	}
}

func TestFlowControlBlocksWriters(t *testing.T) {
	// Loopback with a tiny limit: the writer must block once the
	// read queue is full, and resume when the reader drains.
	var s *Stream
	s = New(10, nil, func(b *Block) { s.DeviceUp(b) })
	defer s.Close()
	wrote := make(chan bool, 1)
	go func() {
		s.Write([]byte("0123456789")) // fills the queue
		s.Write([]byte("abcdefghij")) // must block
		wrote <- true
	}()
	select {
	case <-wrote:
		t.Fatal("writer did not block on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	// Drain and let the writer finish.
	buf := make([]byte, 10)
	s.Read(buf)
	select {
	case <-wrote:
	case <-time.After(time.Second):
		t.Fatal("writer not resumed after drain")
	}
}

func TestPushPopModules(t *testing.T) {
	a, b := crossPair(t)
	var stats *TraceStats
	if err := a.Push(traceModule, &stats); err != nil {
		t.Fatal(err)
	}
	if got := a.Modules(); len(got) != 1 || got[0] != "trace" {
		t.Fatalf("modules %v", got)
	}
	a.Write([]byte("12345"))
	buf := make([]byte, 16)
	n, _ := b.Read(buf)
	if string(buf[:n]) != "12345" {
		t.Fatalf("through-module read %q", buf[:n])
	}
	b.Write([]byte("xyz"))
	n, _ = a.Read(buf)
	if string(buf[:n]) != "xyz" {
		t.Fatalf("reverse read %q", buf[:n])
	}
	if stats.OutBytes.Load() != 5 || stats.InBytes.Load() != 3 {
		t.Errorf("trace counters out=%d in=%d", stats.OutBytes.Load(), stats.InBytes.Load())
	}
	if err := a.Pop(); err != nil {
		t.Fatal(err)
	}
	if len(a.Modules()) != 0 {
		t.Error("module list not empty after pop")
	}
	if err := a.Pop(); err != ErrNothingToPop {
		t.Errorf("extra pop = %v", err)
	}
}

func TestPushViaCtl(t *testing.T) {
	s := loopback(t)
	if err := s.WriteCtl("push trace"); err != nil {
		t.Fatal(err)
	}
	if got := s.Modules(); len(got) != 1 || got[0] != "trace" {
		t.Errorf("modules after ctl push: %v", got)
	}
	if err := s.WriteCtl("pop"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCtl("push nosuchmodule"); err != ErrUnknownMod {
		t.Errorf("unknown push = %v", err)
	}
}

func TestFrameModuleRestoresDelimiters(t *testing.T) {
	// Simulate a TCP-like byte pipe that merges and splits blocks
	// arbitrarily, with a frame module on each side.
	var a, b *Stream
	reframe := func(dst **Stream) DeviceFunc {
		return func(blk *Block) {
			// Deliver byte-at-a-time: worst-case fragmentation,
			// no delimiters survive.
			for _, c := range blk.Buf {
				nb := NewBlock([]byte{c})
				(*dst).DeviceUp(nb)
			}
		}
	}
	a = New(1<<20, nil, reframe(&b))
	b = New(1<<20, nil, reframe(&a))
	defer a.Close()
	defer b.Close()
	if err := a.PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("first message"))
	a.Write([]byte("second"))
	buf := make([]byte, 64)
	n, _ := b.Read(buf)
	if string(buf[:n]) != "first message" {
		t.Errorf("first framed read %q", buf[:n])
	}
	n, _ = b.Read(buf)
	if string(buf[:n]) != "second" {
		t.Errorf("second framed read %q", buf[:n])
	}
}

func TestCtlBlocksSkippedByRead(t *testing.T) {
	s := loopback(t)
	s.DeviceUp(NewCtlBlock("module-specific"))
	s.Write([]byte("data"))
	buf := make([]byte, 16)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "data" {
		t.Errorf("read past ctl block: %q, %v", buf[:n], err)
	}
}

func TestOnCloseHooks(t *testing.T) {
	s := New(0, nil, nil)
	ran := 0
	s.OnClose(func() { ran++ })
	s.Close()
	s.Close() // idempotent
	if ran != 1 {
		t.Errorf("close hooks ran %d times", ran)
	}
}

func TestQueueGetTryGetPutback(t *testing.T) {
	s := New(0, nil, nil)
	defer s.Close()
	q := newQueue(s, nil, true, PutQ)
	if q.TryGet() != nil {
		t.Error("TryGet on empty queue returned a block")
	}
	q.Enqueue(NewBlock([]byte("a")))
	q.Enqueue(NewBlock([]byte("b")))
	if q.Len() != 2 {
		t.Errorf("Len = %d", q.Len())
	}
	b1, err := q.Get()
	if err != nil || string(b1.Buf) != "a" {
		t.Fatalf("Get = %q, %v", b1.Buf, err)
	}
	q.putback(b1)
	b2 := q.TryGet()
	if string(b2.Buf) != "a" {
		t.Errorf("putback order broken: %q", b2.Buf)
	}
}

func TestReadContiguityUnderConcurrency(t *testing.T) {
	// The per-stream read lock guarantees the bytes each reader gets
	// are contiguous bytes from the stream. Write numbered 100-byte
	// records; concurrent readers each reading 100 bytes must see
	// whole records.
	var s *Stream
	s = New(1<<20, nil, func(b *Block) { s.DeviceUp(b) })
	defer s.Close()
	const records = 200
	go func() {
		for i := range records {
			rec := bytes.Repeat([]byte{byte(i)}, 100)
			s.Write(rec)
		}
	}()
	var mu sync.Mutex
	got := make(map[byte]bool)
	complete := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 100)
			for {
				n, err := s.Read(buf)
				if err != nil || n == 0 {
					return // stream closed: we are done
				}
				if n != 100 {
					t.Errorf("torn read of %d bytes", n)
					return
				}
				for _, c := range buf[1:n] {
					if c != buf[0] {
						t.Error("non-contiguous bytes in one read")
						return
					}
				}
				mu.Lock()
				got[buf[0]] = true
				if len(got) == records {
					close(complete)
				}
				mu.Unlock()
			}
		}()
	}
	// When every record has been seen, close the stream to release
	// any reader still blocked waiting for more data.
	select {
	case <-complete:
	case <-time.After(10 * time.Second):
		t.Error("records never all arrived")
	}
	s.Close()
	wg.Wait()
}

// Property: any sequence of writes is read back intact and in order.
func TestStreamByteTransparencyQuick(t *testing.T) {
	f := func(chunks [][]byte) bool {
		s := loopbackQuiet()
		defer s.Close()
		var want []byte
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			want = append(want, c...)
			if _, err := s.Write(c); err != nil {
				return false
			}
		}
		got := make([]byte, 0, len(want))
		buf := make([]byte, 4096)
		for len(got) < len(want) {
			n, err := s.Read(buf)
			if err != nil || n == 0 {
				return false
			}
			got = append(got, buf[:n]...)
		}
		return bytes.Equal(got, want)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func loopbackQuiet() *Stream {
	var s *Stream
	s = New(1<<24, nil, func(b *Block) { s.DeviceUp(b) })
	return s
}
