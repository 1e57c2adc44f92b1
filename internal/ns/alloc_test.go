package ns

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/vfs"
)

// TestAllocsReadFile bounds what reading a whole file costs beyond
// opening it: the bytes land directly in the slice returned, sized
// once from the file's length, with no staging buffer, no second copy
// and no regrowth to read end of file.
func TestAllocsReadFile(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates; gated in check.sh without -race")
	}
	nsp, fs := newNS(t)
	for _, size := range []int{4000, 64 << 10} { // under one 8 KiB read; eight whole reads
		name := fmt.Sprintf("f%d", size)
		want := bytes.Repeat([]byte("ndb "), size/4)
		fs.WriteFile(name, want, 0664)
		open := testing.AllocsPerRun(200, func() {
			fd, err := nsp.Open(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			fd.Close()
		})
		var spare int
		got := testing.AllocsPerRun(200, func() {
			b, err := nsp.ReadFile(name)
			if err != nil || !bytes.Equal(b, want) {
				t.Fatalf("ReadFile = %d bytes, %v", len(b), err)
			}
			spare = cap(b) - len(b)
		})
		t.Logf("%d bytes: open %.1f, ReadFile %.1f allocs/op, %d spare", size, open, got, spare)
		if got > open+1 {
			t.Fatalf("%d bytes: ReadFile allocates %.1f objects/op over the %.1f of Open, want at most 1", size, got-open, open)
		}
		if spare > 8192 {
			t.Fatalf("%d bytes: ReadFile returned %d bytes of spare capacity, want at most one 8 KiB read", size, spare)
		}
	}
}

// TestReadFileDirectory reads a directory longer than one 8 KiB read.
// A directory read returns whole records only, so the first read comes
// back short; the next must still ask for a whole chunk, or a read too
// small for one record ends the listing early.
func TestReadFileDirectory(t *testing.T) {
	nsp, fs := newNS(t)
	const entries = 100 // 56 records fill the first 8 KiB read
	for i := 0; i < entries; i++ {
		fs.WriteFile(fmt.Sprintf("d/%03d", i), nil, 0664)
	}
	b, err := nsp.ReadFile("/d")
	if err != nil || len(b) != entries*vfs.DirRecLen {
		t.Fatalf("ReadFile(/d) = %d bytes, %v; want %d", len(b), err, entries*vfs.DirRecLen)
	}
}
