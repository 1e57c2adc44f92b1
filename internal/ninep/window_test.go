package ninep

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// countingConn wraps a MsgConn and counts outgoing messages by 9P
// type (the type byte sits after the 4-byte size prefix).
type countingConn struct {
	MsgConn
	counts [256]atomic.Int64
}

func (c *countingConn) WriteMsg(p []byte) error {
	if len(p) >= 5 {
		c.counts[p[4]].Add(1)
	}
	return c.MsgConn.WriteMsg(p)
}

func (c *countingConn) count(typ uint8) int64 { return c.counts[typ].Load() }

// startCountingServer is startServer with a tap on the client's
// outgoing messages and an explicit client configuration.
func startCountingServer(t *testing.T, cfg ClientConfig) (*Client, *countingConn, *ramfs.FS) {
	t.Helper()
	fs := ramfs.New("bootes")
	a, b := NewPipe(nil)
	go Serve(b, func(uname, aname string) (vfs.Node, error) {
		return fs.Root(), nil
	}, nil)
	cc := &countingConn{MsgConn: a}
	cl, err := NewClientConfig(cc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, cc, fs
}

func openFile(t *testing.T, cl *Client, name string, mode int) *Fid {
	t.Helper()
	root, err := cl.Attach("glenda", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.CloneWalk(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(mode); err != nil {
		t.Fatal(err)
	}
	return f
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

// TestWindowedReadCorrectness: a multi-fragment read through the
// window returns exactly the serial result, for sizes on and off the
// fragment boundary.
func TestWindowedReadCorrectness(t *testing.T) {
	cl, _, fs := startCountingServer(t, ClientConfig{WindowedTransfers: true, Window: 4})
	for _, size := range []int{MaxFData + 1, 3 * MaxFData, 5*MaxFData - 77, 100 << 10} {
		want := pattern(size)
		fs.WriteFile("big", want, 0664)
		f := openFile(t, cl, "big", vfs.OREAD)
		got := make([]byte, size+MaxFData) // oversized buffer: EOF truncates
		n, err := f.Read(got, 0)
		if err != nil {
			t.Fatalf("size %d: read: %v", size, err)
		}
		if n != size {
			t.Fatalf("size %d: read %d bytes", size, n)
		}
		if !bytes.Equal(got[:n], want) {
			t.Fatalf("size %d: content mismatch", size)
		}
		f.Clunk()
	}
}

// TestWindowedWriteCorrectness: a multi-fragment write lands intact.
func TestWindowedWriteCorrectness(t *testing.T) {
	cl, _, fs := startCountingServer(t, ClientConfig{WindowedTransfers: true, Window: 4})
	root, _ := cl.Attach("glenda", "")
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Create("out", 0664, vfs.OWRITE); err != nil {
		t.Fatal(err)
	}
	want := pattern(5*MaxFData - 123)
	if n, err := f.Write(want, 0); err != nil || n != len(want) {
		t.Fatalf("write = %d, %v", n, err)
	}
	f.Clunk()
	if got, _ := fs.ReadFile("out"); !bytes.Equal(got, want) {
		t.Fatalf("content mismatch: %d vs %d bytes", len(got), len(want))
	}
}

// TestSmallReadSingleRPC pins the invariant that a read of at most
// MaxFData bytes costs exactly one Tread, window or no window.
func TestSmallReadSingleRPC(t *testing.T) {
	cl, cc, fs := startCountingServer(t, ClientConfig{WindowedTransfers: true, Window: 8})
	fs.WriteFile("small", pattern(MaxFData), 0664)
	f := openFile(t, cl, "small", vfs.OREAD)
	before := cc.count(Tread)
	buf := make([]byte, MaxFData)
	if n, err := f.Read(buf, 0); err != nil || n != MaxFData {
		t.Fatalf("read = %d, %v", n, err)
	}
	if got := cc.count(Tread) - before; got != 1 {
		t.Fatalf("read of MaxFData issued %d Treads, want 1", got)
	}
	f.Clunk()
}

// gateFS serves one file whose reads at or past a gate offset block
// until released. It pins the speculative tail of a windowed read in
// the server, so the client provably still has those fragments
// outstanding when the short reply truncates the transfer — without
// the gate, fast EOF replies can race the truncation and the flush
// batch legitimately has nothing left to abandon.
type gateFS struct {
	content []byte
	gate    int64
	release chan struct{}
}

func (f *gateFS) Root() vfs.Node { return gateNode{f: f} }

type gateNode struct{ f *gateFS }

func (n gateNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "gate", Mode: 0666, Length: int64(len(n.f.content)), Qid: vfs.Qid{Path: 4}}, nil
}
func (n gateNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (n gateNode) Open(mode int) (vfs.Handle, error)  { return gateHandle{f: n.f}, nil }

type gateHandle struct{ f *gateFS }

func (h gateHandle) Read(p []byte, off int64) (int, error) {
	if off >= h.f.gate {
		<-h.f.release
	}
	if off >= int64(len(h.f.content)) {
		return 0, nil
	}
	return copy(p, h.f.content[off:]), nil
}
func (h gateHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h gateHandle) Close() error                           { return nil }

// TestWindowedShortReadTruncates: when an early fragment comes back
// short (EOF inside the window), the bytes past it — already
// speculatively requested — must not leak into the result, and the
// later fragments are abandoned with Tflush rather than waited on.
// The gate holds the speculative tail in the server so exactly the
// three fragments past the short one are still in flight at
// truncation time.
func TestWindowedShortReadTruncates(t *testing.T) {
	size := 2*MaxFData + 100 // third fragment comes back short
	want := pattern(size)
	fs := &gateFS{content: want, gate: 3 * MaxFData, release: make(chan struct{})}
	t.Cleanup(func() { close(fs.release) })
	a, b := NewPipe(nil)
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, nil)
	cc := &countingConn{MsgConn: a}
	cl, err := NewClientConfig(cc, ClientConfig{WindowedTransfers: true, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	root, err := cl.Attach("u", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6*MaxFData) // fans into 6 fragments, 3 past the gate
	n, err := f.Read(got, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if n != size || !bytes.Equal(got[:n], want) {
		t.Fatalf("read %d bytes, want %d", n, size)
	}
	if flushes := cc.count(Tflush); flushes != 3 {
		t.Fatalf("short read in the window sent %d Tflushes, want 3 (one per gated speculative fragment)", flushes)
	}
	f.Clunk()
}

// streamFS serves one stream-like file: each read returns at most 100
// bytes, like a delimited device delivering one message per Tread, and
// counts how many reads reach the handle.
type streamFS struct {
	reads atomic.Int64
}

func (f *streamFS) Root() vfs.Node { return streamNode{f: f} }

type streamNode struct{ f *streamFS }

func (n streamNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "stream", Mode: 0666, Qid: vfs.Qid{Path: 3}}, nil
}
func (n streamNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (n streamNode) Open(mode int) (vfs.Handle, error)  { return streamHandle{f: n.f}, nil }

type streamHandle struct{ f *streamFS }

func (h streamHandle) Read(p []byte, off int64) (int, error) {
	h.f.reads.Add(1)
	n := min(len(p), 100)
	for i := range p[:n] {
		p[i] = 'm'
	}
	return n, nil
}
func (h streamHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h streamHandle) Close() error                           { return nil }

// TestDefaultConfigReadsSerial pins the zero ClientConfig's safety
// contract on delimited and stream devices: a large read issues
// exactly one Tread at a time and a short reply ends it, so no
// speculative fragment ever reaches the server to consume stream data
// it would then throw away. (Fan-out is an explicit opt-in —
// WindowedTransfers — for plain file trees.)
func TestDefaultConfigReadsSerial(t *testing.T) {
	fs := &streamFS{}
	a, b := NewPipe(nil)
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, nil)
	cc := &countingConn{MsgConn: a}
	cl, err := NewClientConfig(cc, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	root, err := cl.Attach("u", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*MaxFData) // would fan into 3 Treads if windowed
	n, err := f.Read(buf, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if n != 100 {
		t.Fatalf("read = %d bytes, want the single 100-byte message", n)
	}
	if got := cc.count(Tread); got != 1 {
		t.Fatalf("default-config large read issued %d Treads, want 1", got)
	}
	if got := fs.reads.Load(); got != 1 {
		t.Fatalf("server handle saw %d reads, want 1 (speculative fragment consumed stream data)", got)
	}
	f.Clunk()
}

// TestTagExhaustionBlocks is the regression test for the tag
// allocator: when every tag up to MaxInFlight is outstanding, the
// next RPC must park on the condition variable (not spin) and resume
// as soon as a tag frees.
func TestTagExhaustionBlocks(t *testing.T) {
	fs := &blockingFS{release: make(chan struct{})}
	a, b := NewPipe(nil)
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Attach("") }, nil)
	// Window 1 keeps Fid.Read serial; MaxInFlight 3 leaves room for
	// the two parked reads plus the probe that must block.
	cl, err := NewClientConfig(a, ClientConfig{Window: 1, MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	root, err := cl.Attach("u", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}

	// Fill the in-flight budget with reads the server will hold.
	var pends []*Pending
	for range 3 {
		p, err := f.ReadAsync(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		pends = append(pends, p)
	}

	// The budget is spent: the next RPC must block in allocTag.
	statDone := make(chan error, 1)
	go func() {
		_, err := root.Stat()
		statDone <- err
	}()
	select {
	case err := <-statDone:
		t.Fatalf("rpc past the in-flight cap returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Releasing the server lets the parked reads answer, freeing tags;
	// the blocked RPC must complete promptly.
	close(fs.release)
	select {
	case err := <-statDone:
		if err != nil {
			t.Fatalf("stat after tags freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rpc still blocked after tags freed")
	}
	var wg sync.WaitGroup
	for _, p := range pends {
		wg.Add(1)
		go func() { defer wg.Done(); p.Wait() }()
	}
	wg.Wait()
	f.Clunk()
}

// TestWindowClampedToMaxInFlight: the window can never exceed the tag
// budget, or a single large read would deadlock against itself.
func TestWindowClampedToMaxInFlight(t *testing.T) {
	cfg := ClientConfig{Window: 64, MaxInFlight: 4}.withDefaults()
	if cfg.Window != 4 {
		t.Fatalf("window = %d, want clamped to 4", cfg.Window)
	}
}
