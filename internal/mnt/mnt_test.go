package mnt

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

func mounted(t *testing.T) (vfs.Node, *ramfs.FS, *ninep.Client) {
	t.Helper()
	fs := ramfs.New("srv")
	a, b := ninep.NewPipe(nil)
	go ninep.Serve(b, func(uname, aname string) (vfs.Node, error) {
		return fs.Root(), nil
	}, nil)
	root, cl, err := Mount(a, "glenda", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return root, fs, cl
}

func TestWalkStatOpenReadWrite(t *testing.T) {
	root, fs, _ := mounted(t)
	fs.WriteFile("dir/f", []byte("remote bytes"), 0664)
	n, err := root.Walk("dir")
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.Walk("f")
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Stat()
	if err != nil || d.Name != "f" || d.Length != 12 {
		t.Fatalf("stat %+v, %v", d, err)
	}
	h, err := f.Open(vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	rn, err := h.Read(buf, 0)
	if err != nil || string(buf[:rn]) != "remote bytes" {
		t.Fatalf("read %q, %v", buf[:rn], err)
	}
	if _, err := h.Write([]byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	h.Close()
	b, _ := fs.ReadFile("dir/f")
	if string(b) != "Xemote bytes" {
		t.Errorf("server contents %q", b)
	}
	// The node stays walkable after an open (Open clones the fid).
	if _, err := n.Walk("f"); err != nil {
		t.Errorf("node lost walkability: %v", err)
	}
}

func TestCreateRemoveWstat(t *testing.T) {
	root, fs, _ := mounted(t)
	cr, ok := root.(vfs.Creator)
	if !ok {
		t.Fatal("mnt node is not a Creator")
	}
	nn, h, err := cr.Create("new", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("created"), 0)
	h.Close()
	if b, _ := fs.ReadFile("new"); string(b) != "created" {
		t.Errorf("created contents %q", b)
	}
	// Wstat renames through the wire.
	if err := nn.(vfs.Wstater).Wstat(vfs.Dir{Name: "renamed"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("renamed"); err != nil {
		t.Error("rename did not reach the server")
	}
	// Remove.
	rn, err := root.Walk("renamed")
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.(vfs.Remover).Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("renamed"); err == nil {
		t.Error("remove did not reach the server")
	}
}

func TestErrorsPropagate(t *testing.T) {
	root, _, _ := mounted(t)
	if _, err := root.Walk("missing"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("missing walk error = %v", err)
	}
	n, _ := root.Walk("..") // ramfs root loops to itself
	if n == nil {
		t.Error(".. walk failed")
	}
}

func TestClosedClientFailsCleanly(t *testing.T) {
	root, _, cl := mounted(t)
	cl.Close()
	if _, err := root.Walk("x"); err == nil {
		t.Error("walk on closed client succeeded")
	}
	if _, err := root.Stat(); err == nil {
		t.Error("stat on closed client succeeded")
	}
}

func TestFinalizerClunksFids(t *testing.T) {
	// Walk many nodes and drop them; the finalizers must clunk the
	// fids server-side (we can only assert no leak crashes the
	// connection and the GC path runs).
	root, fs, _ := mounted(t)
	fs.WriteFile("f", nil, 0664)
	for range 100 {
		if _, err := root.Walk("f"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	time.Sleep(20 * time.Millisecond) // let the clunk goroutines run
	// The connection still works.
	if _, err := root.Walk("f"); err != nil {
		t.Errorf("connection unhealthy after finalizer storm: %v", err)
	}
}
