package ninep

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// startServer runs a 9P server over a pipe serving a fresh ramfs and
// returns a connected client plus the backing fs.
func startServer(t *testing.T) (*Client, *ramfs.FS) {
	t.Helper()
	fs := ramfs.New("bootes")
	a, b := NewPipe(nil)
	go Serve(b, func(uname, aname string) (vfs.Node, error) {
		return fs.Root(), nil
	}, nil)
	cl, err := NewClient(a)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, fs
}

func TestSessionAttachWalkReadWrite(t *testing.T) {
	cl, fs := startServer(t)
	fs.WriteFile("dir/hello", []byte("hello 9P"), 0664)

	root, err := cl.Attach("glenda", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.CloneWalk("dir")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Walk("hello"); err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := f.Read(buf, 0)
	if err != nil || string(buf[:n]) != "hello 9P" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	if err := f.Clunk(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteRemove(t *testing.T) {
	cl, fs := startServer(t)
	root, _ := cl.Attach("glenda", "")
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Create("new", 0664, vfs.OWRITE); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("payload"), 0); err != nil || n != 7 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if b, _ := fs.ReadFile("new"); string(b) != "payload" {
		t.Errorf("server contents %q", b)
	}
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("new"); err == nil {
		t.Error("file survived Tremove")
	}
}

func TestStatWstat(t *testing.T) {
	cl, fs := startServer(t)
	fs.WriteFile("f", []byte("xyz"), 0664)
	root, _ := cl.Attach("glenda", "")
	f, err := root.CloneWalk("f")
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Stat()
	if err != nil || d.Name != "f" || d.Length != 3 {
		t.Fatalf("stat %+v, %v", d, err)
	}
	if err := f.Wstat(vfs.Dir{Name: "g", Mode: ^uint32(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("g"); err != nil {
		t.Error("wstat rename did not take")
	}
	f.Clunk()
}

func TestErrorsCrossTheWire(t *testing.T) {
	cl, _ := startServer(t)
	root, _ := cl.Attach("glenda", "")
	_, err := root.CloneWalk("missing")
	if err == nil || err.Error() != vfs.ErrNotExist.Error() {
		t.Errorf("walk error = %v, want %v", err, vfs.ErrNotExist)
	}
	if !vfs.SameError(err, vfs.ErrNotExist) {
		t.Error("SameError does not match reconstructed 9P error")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	cl, fs := startServer(t)
	fs.WriteFile("a/f", nil, 0664)
	root, _ := cl.Attach("glenda", "")
	c1, _ := root.Clone()
	if err := c1.Walk("a"); err != nil {
		t.Fatal(err)
	}
	// root is still at /.
	c2, err := root.CloneWalk("a")
	if err != nil {
		t.Fatalf("root moved by clone's walk: %v", err)
	}
	c1.Clunk()
	c2.Clunk()
}

func TestOpenFidCannotWalk(t *testing.T) {
	cl, fs := startServer(t)
	fs.WriteFile("d/f", nil, 0664)
	root, _ := cl.Attach("glenda", "")
	d, _ := root.CloneWalk("d")
	if err := d.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}
	if err := d.Walk("f"); err == nil {
		t.Error("walk on open fid succeeded")
	}
	d.Clunk()
}

func TestLargeTransferSplitsIntoRPCs(t *testing.T) {
	cl, fs := startServer(t)
	big := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	fs.WriteFile("big", big, 0664)
	root, _ := cl.Attach("glenda", "")
	f, _ := root.CloneWalk("big")
	f.Open(vfs.OREAD)
	got := make([]byte, len(big))
	n, err := f.Read(got, 0)
	if err != nil || n != len(big) {
		t.Fatalf("read %d of %d: %v", n, len(big), err)
	}
	if !bytes.Equal(got, big) {
		t.Error("large read corrupted")
	}
	// And a large write back.
	w, _ := root.Clone()
	if err := w.Create("copy", 0664, vfs.OWRITE); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Write(big, 0); err != nil || n != len(big) {
		t.Fatalf("write %d of %d: %v", n, len(big), err)
	}
	if b, _ := fs.ReadFile("copy"); !bytes.Equal(b, big) {
		t.Error("large write corrupted")
	}
	f.Clunk()
	w.Clunk()
}

func TestDirectoryReadOver9P(t *testing.T) {
	cl, fs := startServer(t)
	fs.WriteFile("x", nil, 0664)
	fs.WriteFile("y", nil, 0664)
	root, _ := cl.Attach("glenda", "")
	d, _ := root.Clone()
	if err := d.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*vfs.DirRecLen)
	n, err := d.Read(buf, 0)
	if err != nil || n != 2*vfs.DirRecLen {
		t.Fatalf("dir read %d, %v", n, err)
	}
	e0, _ := vfs.UnmarshalDir(buf)
	e1, _ := vfs.UnmarshalDir(buf[vfs.DirRecLen:])
	if e0.Name != "x" || e1.Name != "y" {
		t.Errorf("entries %q %q", e0.Name, e1.Name)
	}
	d.Clunk()
}

func TestConcurrentRPCs(t *testing.T) {
	cl, fs := startServer(t)
	fs.WriteFile("f", bytes.Repeat([]byte("z"), 1024), 0664)
	root, _ := cl.Attach("glenda", "")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := root.CloneWalk("f")
			if err != nil {
				errs <- err
				return
			}
			defer f.Clunk()
			if err := f.Open(vfs.OREAD); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 1024)
			if _, err := f.Read(buf, 0); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFlushUnblocksNothingButAnswers(t *testing.T) {
	cl, _ := startServer(t)
	// Flushing a tag that is not in flight must still get Rflush.
	r, err := cl.RPC(&Fcall{Type: Tflush, Oldtag: 12345})
	if err != nil || r.Type != Rflush {
		t.Errorf("flush = %+v, %v", r, err)
	}
}

func TestNopAndAuth(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.RPC(&Fcall{Type: Tnop}); err != nil {
		t.Errorf("nop: %v", err)
	}
	r, err := cl.RPC(&Fcall{Type: Tauth, Fid: 9, Uname: "glenda", Chal: "c"})
	if err != nil || r.Chal == "" {
		t.Errorf("auth = %+v, %v", r, err)
	}
}

func TestServerSurvivesUnknownFid(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.RPC(&Fcall{Type: Tclunk, Fid: 999}); err == nil {
		t.Error("clunk of unknown fid succeeded")
	}
	// The connection still works afterwards.
	if _, err := cl.Attach("glenda", ""); err != nil {
		t.Errorf("attach after error: %v", err)
	}
}

func TestClientCloseFailsPendingRPCs(t *testing.T) {
	a, b := NewPipe(nil)
	blockOpen := make(chan struct{})
	fs := ramfs.New("u")
	fs.WriteFile("f", nil, 0664)
	go Serve(b, func(uname, aname string) (vfs.Node, error) {
		<-blockOpen
		return fs.Root(), nil
	}, nil)
	cl, err := NewClient(a)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Attach("u", "")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cl.Close()
	close(blockOpen)
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending RPC succeeded after close")
		}
	case <-time.After(time.Second):
		t.Error("pending RPC hung after close")
	}
}

func TestPipeSemantics(t *testing.T) {
	a, b := NewPipe(nil)
	if err := a.WriteMsg([]byte("one")); err != nil {
		t.Fatal(err)
	}
	m, err := b.ReadMsg()
	if err != nil || string(m) != "one" {
		t.Fatalf("read %q, %v", m, err)
	}
	// Close: peer reads drain then EOF.
	a.WriteMsg([]byte("two"))
	a.Close()
	m, err = b.ReadMsg()
	if err != nil || string(m) != "two" {
		t.Fatalf("drain read %q, %v", m, err)
	}
	if _, err := b.ReadMsg(); err != io.EOF {
		t.Errorf("post-close read err = %v, want EOF", err)
	}
	if err := b.WriteMsg([]byte("x")); err == nil {
		t.Error("write to closed peer succeeded")
	}
}

func TestStreamConnFraming(t *testing.T) {
	// A streamConn over an in-memory byte pipe delivers whole 9P
	// messages even when the underlying stream fragments them.
	pr, pw := io.Pipe()
	sc := NewStreamConn(struct {
		io.Reader
		io.Writer
		io.Closer
	}{pr, io.Discard, pr})
	msg, _ := MarshalFcall(&Fcall{Type: Twalk, Tag: 5, Fid: 1, Name: "x"})
	go func() {
		for _, c := range msg { // byte-at-a-time: worst-case fragmentation
			pw.Write([]byte{c})
		}
	}()
	got, err := sc.ReadMsg()
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("framed read mismatch: %v", err)
	}
}

func TestStreamConnRejectsBadSize(t *testing.T) {
	pr, pw := io.Pipe()
	// ReadMsg rejects after the 4-byte header; closing the read end
	// unblocks the writer goroutine stuck on the unconsumed tail.
	defer pr.Close()
	sc := NewStreamConn(struct {
		io.Reader
		io.Writer
		io.Closer
	}{pr, io.Discard, pr})
	go pw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0})
	if _, err := sc.ReadMsg(); err != ErrBadMsg {
		t.Errorf("oversize frame err = %v", err)
	}
}
