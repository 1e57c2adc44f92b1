package streams

import (
	"testing"

	"repro/internal/block"
)

// The block-discipline regression gate for the pipes path: a 16K write
// through a stream to a device that frees its blocks must cost at most
// two allocations — the pooled buffer's wrapper structs — because the
// payload bytes travel in a recycled pool block. Before pooling this
// path cost one fresh 16K buffer per write.
func TestAllocsWrite16K(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var sink int
	s := New(1<<30, nil, func(blk *Block) { sink += len(blk.Buf); blk.Free() })
	defer s.Close()
	payload := make([]byte, 16*1024)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Write(16K) allocates %.1f objects/op, want <= 2 (pool bypassed?)", allocs)
	}
	_ = sink
}

// The batch fastpath gate: steady-state coalescing must add at most
// one allocation per small write over the bare 2-alloc write baseline.
// A 64-byte message rides into the pending pooled window by copy; the
// window block, the emitted wrapper, and the flush timer amortize over
// the ~30 messages each 2K window holds.
func TestAllocsBatchCoalesce(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var sink int
	s := New(1<<30, nil, func(blk *Block) { sink += len(blk.Buf); blk.Free() })
	defer s.Close()
	if err := s.WriteCtl("push batch 2048 10ms"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	// Warm the module's reusable message buffer before measuring.
	for i := 0; i < 64; i++ {
		s.Write(payload)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("batched small write allocates %.1f objects/op, want <= 3 (coalesce path must amortize)", allocs)
	}
	_ = sink
}

// The round-trip gate: write then read 1K through a looped-back
// stream. The read side consumes the same pooled block the write
// produced, so the whole trip stays within the same budget.
func TestAllocsRoundTrip(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var s *Stream
	s = New(1<<30, nil, func(blk *Block) { s.DeviceUp(blk) })
	defer s.Close()
	payload := make([]byte, 1024)
	buf := make([]byte, 2048)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("round trip allocates %.1f objects/op, want <= 3", allocs)
	}
}
