package ninep

import (
	"testing"

	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// 9P RPC costs over an in-process pipe: the floor under every mount
// in the system (network transports add their own costs on top).

func benchClient(b *testing.B) (*Client, *ramfs.FS) {
	b.Helper()
	fs := ramfs.New("srv")
	a, p := NewPipe(nil)
	go Serve(p, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, nil)
	cl, err := NewClient(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl, fs
}

func BenchmarkRPCStat(b *testing.B) {
	cl, fs := benchClient(b)
	fs.WriteFile("f", nil, 0664)
	root, _ := cl.Attach("u", "")
	f, _ := root.CloneWalk("f")
	b.ResetTimer()
	for b.Loop() {
		if _, err := f.Stat(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCRead4K(b *testing.B) {
	cl, fs := benchClient(b)
	fs.WriteFile("f", make([]byte, 4096), 0664)
	root, _ := cl.Attach("u", "")
	f, _ := root.CloneWalk("f")
	f.Open(vfs.OREAD)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for b.Loop() {
		if _, err := f.Read(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCWalkOpenClunk(b *testing.B) {
	cl, fs := benchClient(b)
	fs.WriteFile("dir/f", nil, 0664)
	root, _ := cl.Attach("u", "")
	b.ResetTimer()
	for b.Loop() {
		d, err := root.CloneWalk("dir")
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Walk("f"); err != nil {
			b.Fatal(err)
		}
		if err := d.Open(vfs.OREAD); err != nil {
			b.Fatal(err)
		}
		d.Clunk()
	}
}

func BenchmarkMarshalFcall(b *testing.B) {
	f := &Fcall{Type: Twrite, Tag: 1, Fid: 2, Offset: 4096, Data: make([]byte, 4096)}
	b.SetBytes(4096)
	b.ResetTimer()
	for b.Loop() {
		if _, err := MarshalFcall(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalFcall(b *testing.B) {
	f := &Fcall{Type: Twrite, Tag: 1, Fid: 2, Offset: 4096, Data: make([]byte, 4096)}
	raw, _ := MarshalFcall(f)
	b.SetBytes(4096)
	b.ResetTimer()
	for b.Loop() {
		if _, err := UnmarshalFcall(raw); err != nil {
			b.Fatal(err)
		}
	}
}
