// Package mnt is the mount driver (§2.1): "a kernel resident file
// server called the mount driver converts the procedural version of 9P
// into RPCs." Given a transport to a 9P server — a pipe to a local
// user-level server, or a network connection to a remote machine — it
// yields a vfs.Node that can be mounted into a name space; every
// operation on the subtree becomes a 9P message.
//
// The driver can pipeline: a mount may opt into fanning large reads
// and writes into a sliding window of concurrent RPCs
// (ninep.ClientConfig.WindowedTransfers), plus sequential-pattern
// readahead and coalescing write-behind (Config). All three reorder or
// speculate I/O, so they are only safe on trees of plain files —
// FileConfig enables them together. The zero Config issues exactly the
// serial driver's RPCs in exactly its order, and is what imported
// device trees use.
package mnt

import (
	"io"
	"runtime"
	"sync"

	"repro/internal/ninep"
	"repro/internal/vfs"
)

// Config tunes the mount driver for one mount.
//
// The zero value is the serial driver: every Read and Write maps onto
// the same RPCs, in the same order, as one-fragment-at-a-time 9P —
// safe for any server, including live device trees where a Tread has
// side effects (a listen file, a stream's data file).
type Config struct {
	// Client tunes the RPC engine: the in-flight cap, and whether
	// large transfers fan into a window of concurrent fragment RPCs
	// (WindowedTransfers — plain file trees only); see
	// ninep.ClientConfig.
	Client ninep.ClientConfig
	// Readahead is how many MaxFData fragments of speculative Tread
	// to keep in flight once a handle establishes a sequential read
	// pattern (two consecutive sequential reads). 0 disables.
	// Unsafe on delimited or blocking devices: a speculative read
	// consumes stream data that is discarded if the pattern breaks.
	Readahead int
	// WriteBehind coalesces sequential writes into MaxFData
	// fragments acknowledged asynchronously. The first write on a
	// handle is always synchronous (so a ctl-file handshake keeps
	// its ordering); errors surface on a later operation or Close.
	WriteBehind bool
	// Push lists line-discipline module specs (§2.4.1) to push on
	// the mount's transport conversation before the 9P session
	// starts, bottom-up: {"compress", "batch 2048 2ms"} puts
	// compress nearest the wire. The mount driver itself does not
	// act on this field — the code that dials the conversation
	// (core.Machine.ImportConfig) writes the push control messages,
	// and the serving end must push the same specs in the same
	// order.
	Push []string
}

// FileConfig is the aggressive profile for mounts of plain file trees
// (a dump file system, a source tree): windowed transfers plus
// readahead and write-behind.
func FileConfig() Config {
	return Config{
		Client:      ninep.ClientConfig{WindowedTransfers: true},
		Readahead:   4,
		WriteBehind: true,
	}
}

// Mount dials a 9P server over conn, authenticates uname, attaches to
// aname, and returns the remote root as a mountable node. Closing the
// returned client tears down the connection and every fid on it. The
// zero Config keeps the serial driver's exact RPC mapping; FileConfig
// pipelines a plain file tree.
func Mount(conn ninep.MsgConn, uname, aname string, cfg Config) (vfs.Node, *ninep.Client, error) {
	cl, err := ninep.NewClientConfig(conn, cfg.Client)
	if err != nil {
		return nil, nil, err
	}
	root, err := cl.Attach(uname, aname)
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return newNode(root, cfg), cl, nil
}

// node is an unopened remote file; it holds a walked fid. Fids are
// clunked by a finalizer when the node is collected, mirroring how the
// kernel clunks a channel on the last close of its references.
type node struct {
	fid *ninep.Fid
	cfg Config
}

var (
	_ vfs.Node    = (*node)(nil)
	_ vfs.Creator = (*node)(nil)
	_ vfs.Remover = (*node)(nil)
	_ vfs.Wstater = (*node)(nil)
)

func newNode(fid *ninep.Fid, cfg Config) *node {
	n := &node{fid: fid, cfg: cfg}
	if fid.Client().Clock().Virtual() {
		// Finalizers run on GC goroutines the virtual scheduler has
		// no hold on; under a simulated clock the client dies with
		// its world, so stray fids need no clunk.
		return n
	}
	runtime.SetFinalizer(n, func(n *node) {
		// Once the client is closed or failed there is no
		// connection to clunk over; firing the RPC would only spawn
		// a goroutine to learn that.
		if n.fid.Client().Dead() {
			return
		}
		go n.fid.Clunk()
	})
	return n
}

// Stat implements vfs.Node (Tstat).
func (n *node) Stat() (vfs.Dir, error) { return n.fid.Stat() }

// Walk implements vfs.Node (Tclwalk: clone + walk in one RPC).
func (n *node) Walk(name string) (vfs.Node, error) {
	nf, err := n.fid.CloneWalk(name)
	if err != nil {
		return nil, err
	}
	return newNode(nf, n.cfg), nil
}

// Open implements vfs.Node. The node's fid stays unopened (so the node
// remains walkable); a clone is opened and owned by the handle.
func (n *node) Open(mode int) (vfs.Handle, error) {
	f, err := n.fid.Clone()
	if err != nil {
		return nil, err
	}
	if err := f.Open(mode); err != nil {
		f.Clunk()
		return nil, err
	}
	return newHandle(f, n.cfg), nil
}

// Create implements vfs.Creator (Tcreate).
func (n *node) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	f, err := n.fid.Clone()
	if err != nil {
		return nil, nil, err
	}
	if err := f.Create(name, perm, mode); err != nil {
		f.Clunk()
		return nil, nil, err
	}
	// The fid now refers to the created, open file. The handle owns
	// it; the returned node re-walks for a clean unopened fid.
	nn, err := n.fid.CloneWalk(name)
	if err != nil {
		f.Clunk()
		return nil, nil, err
	}
	return newNode(nn, n.cfg), newHandle(f, n.cfg), nil
}

// Remove implements vfs.Remover (Tremove). The fid is clunked by the
// server on remove; drop the finalizer's work by marking it done.
func (n *node) Remove() error {
	runtime.SetFinalizer(n, nil)
	return n.fid.Remove()
}

// Wstat implements vfs.Wstater (Twstat).
func (n *node) Wstat(d vfs.Dir) error { return n.fid.Wstat(d) }

// frag is one readahead fragment: an in-flight Tread (pend != nil) or
// its buffered, partially consumed reply.
type frag struct {
	pend  *ninep.Pending
	asked int
	data  []byte
	used  int
	short bool
}

// wfrag is one write-behind fragment in flight.
type wfrag struct {
	pend *ninep.Pending
	n    int
}

// handle is an open remote file.
type handle struct {
	fid *ninep.Fid
	ra  int  // readahead fragments (0 = off)
	wb  bool // write-behind enabled

	mu     sync.Mutex
	closed bool

	// Readahead. frags buffer prefetched data contiguous from
	// seqOff, the offset where the handle's sequential read pattern
	// continues; seqRun counts consecutive sequential reads, and
	// raStop latches after a short reply (EOF) until the pattern
	// resets.
	seqOff int64
	seqRun int
	frags  []*frag
	raStop bool

	// Write-behind. buf coalesces sequential writes (always shorter
	// than MaxFData) starting at file offset bufOff; wEnd is where
	// the sequential pattern continues; wpend are fragments in
	// flight; werr is the first asynchronous error, surfaced on the
	// next operation or Close.
	wrote  bool
	wEnd   int64
	buf    []byte
	bufOff int64
	wpend  []wfrag
	werr   error
}

var _ vfs.Handle = (*handle)(nil)

func newHandle(f *ninep.Fid, cfg Config) *handle {
	return &handle{fid: f, ra: cfg.Readahead, wb: cfg.WriteBehind}
}

// Read implements vfs.Handle (Tread). With readahead off it is a
// direct windowed read; otherwise sequential reads are served from the
// prefetch queue, which is topped up behind them.
func (h *handle) Read(p []byte, off int64) (int, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, vfs.ErrClosed
	}
	if h.wb {
		// Read-your-writes: drain write-behind first. A deferred
		// write error surfaces here.
		if err := h.barrierLocked(); err != nil {
			h.mu.Unlock()
			return 0, err
		}
	}
	if h.ra <= 0 {
		h.mu.Unlock()
		return h.fid.Read(p, off)
	}
	defer h.mu.Unlock()
	return h.readLocked(p, off)
}

func (h *handle) readLocked(p []byte, off int64) (int, error) {
	if off != h.seqOff {
		// Pattern broken: abandon the prefetch and start over.
		h.cancelRALocked()
		h.raStop = false
		h.seqRun = 0
		RAMisses.Inc()
		n, err := h.fid.Read(p, off)
		h.seqOff = off + int64(n)
		if err == nil && n == len(p) {
			h.seqRun = 1
		}
		return n, err
	}
	total := 0
	short := false
	fromFrags := 0
	for total < len(p) && len(h.frags) > 0 {
		fr := h.frags[0]
		if fr.pend != nil {
			r, err := fr.pend.Wait()
			fr.pend = nil
			if err != nil {
				h.cancelRALocked()
				h.raStop = true
				if total > 0 {
					break
				}
				h.seqRun = 0
				return 0, err
			}
			fr.data = r.Data
			fr.short = len(r.Data) < fr.asked
		}
		n := copy(p[total:], fr.data[fr.used:])
		total += n
		fromFrags += n
		fr.used += n
		if fr.used < len(fr.data) {
			break // p is full
		}
		h.frags = h.frags[1:]
		if fr.short {
			// EOF or boundary: fragments beyond it are invalid.
			h.cancelRALocked()
			h.raStop = true
			short = true
			break
		}
	}
	if total < len(p) && !short {
		n, err := h.fid.Read(p[total:], off+int64(total))
		total += n
		if err != nil {
			h.seqOff = off + int64(total)
			h.seqRun = 0
			return total, err
		}
		if total < len(p) {
			short = true // EOF for now; re-probe directly next time
			h.raStop = true
		} else {
			h.raStop = false
		}
	}
	if fromFrags > 0 {
		RAHits.Inc()
	} else {
		RAMisses.Inc()
	}
	h.seqOff = off + int64(total)
	if total == len(p) && total > 0 {
		h.seqRun++
	}
	if h.seqRun >= 2 && !h.raStop {
		h.fillRALocked()
	}
	return total, nil
}

// fillRALocked tops the prefetch queue up to the configured depth,
// starting just past everything already buffered or in flight.
func (h *handle) fillRALocked() {
	next := h.seqOff
	for _, fr := range h.frags {
		if fr.pend != nil {
			next += int64(fr.asked)
		} else {
			next += int64(len(fr.data) - fr.used)
		}
	}
	for len(h.frags) < h.ra {
		pr, err := h.fid.ReadAsync(next, ninep.MaxFData)
		if err != nil {
			h.raStop = true
			return
		}
		RAIssued.Inc()
		h.frags = append(h.frags, &frag{pend: pr, asked: ninep.MaxFData})
		next += ninep.MaxFData
	}
}

// cancelRALocked abandons the prefetch queue, flushing the in-flight
// Treads (pipelined Tflushes, one round trip) and dropping buffered
// data.
func (h *handle) cancelRALocked() {
	if len(h.frags) > 0 {
		RACancels.Inc()
	}
	var ps []*ninep.Pending
	for _, fr := range h.frags {
		if fr.pend != nil {
			ps = append(ps, fr.pend)
		}
	}
	h.frags = nil
	if len(ps) > 0 {
		h.fid.Client().FlushAll(ps)
	}
}

// Write implements vfs.Handle (Twrite). With write-behind off it is a
// direct windowed write; otherwise sequential writes coalesce into
// MaxFData fragments issued asynchronously, the window bounding how
// many ride unacknowledged.
func (h *handle) Write(p []byte, off int64) (int, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, vfs.ErrClosed
	}
	if h.werr != nil {
		err := h.werr
		h.werr = nil
		h.mu.Unlock()
		return 0, err
	}
	// A write under buffered readahead would let stale prefetched
	// data satisfy a later read; drop it.
	if len(h.frags) > 0 {
		h.cancelRALocked()
		h.seqRun = 0
	}
	if !h.wb {
		h.mu.Unlock()
		return h.fid.Write(p, off)
	}
	defer h.mu.Unlock()
	if !h.wrote || len(p) == 0 {
		// The first write on a handle is synchronous: a dialer
		// writes "connect" to a ctl file and expects the side
		// effect before its next step.
		h.wrote = true
		n, err := h.fid.Write(p, off)
		h.wEnd = off + int64(n)
		return n, err
	}
	if off != h.wEnd {
		if err := h.barrierLocked(); err != nil {
			return 0, err
		}
		n, err := h.fid.Write(p, off)
		h.wEnd = off + int64(n)
		return n, err
	}
	// Sequential: coalesce.
	if len(h.buf) == 0 {
		h.bufOff = off
	}
	h.buf = append(h.buf, p...)
	for len(h.buf) >= ninep.MaxFData {
		h.issueWBLocked(h.buf[:ninep.MaxFData])
		h.bufOff += ninep.MaxFData
		h.buf = h.buf[ninep.MaxFData:]
	}
	if len(h.buf) == 0 {
		h.buf = nil
	}
	h.wEnd = off + int64(len(p))
	return len(p), nil
}

// issueWBLocked sends one write-behind fragment, first reaping the
// oldest in-flight fragment if the window is full. The fragment data
// is copied into the wire buffer before this returns.
func (h *handle) issueWBLocked(data []byte) {
	win := h.fid.Client().Window()
	for len(h.wpend) >= win {
		h.reapWBLocked()
	}
	if h.werr != nil {
		return // don't keep writing past a failure
	}
	pr, err := h.fid.WriteAsync(data, h.bufOff)
	if err != nil {
		h.werr = err
		return
	}
	WBIssued.Inc()
	h.wpend = append(h.wpend, wfrag{pend: pr, n: len(data)})
}

// reapWBLocked waits for the oldest write-behind fragment and records
// its error, if any.
func (h *handle) reapWBLocked() {
	w := h.wpend[0]
	h.wpend = h.wpend[1:]
	r, err := w.pend.Wait()
	if err == nil && int(r.Count) < w.n {
		err = io.ErrShortWrite
	}
	if err != nil && h.werr == nil {
		h.werr = err
	}
}

// barrierLocked drains write-behind: the coalescing buffer is issued,
// every in-flight fragment is awaited, and the first deferred error is
// returned (and cleared).
func (h *handle) barrierLocked() error {
	if len(h.buf) > 0 || len(h.wpend) > 0 {
		WBBarriers.Inc()
	}
	if len(h.buf) > 0 {
		h.issueWBLocked(h.buf)
		h.bufOff += int64(len(h.buf))
		h.buf = nil
	}
	for len(h.wpend) > 0 {
		h.reapWBLocked()
	}
	err := h.werr
	h.werr = nil
	return err
}

// Close implements vfs.Handle: drain write-behind (surfacing any
// deferred error), abandon readahead via Tflush, and clunk the fid.
// Close is idempotent; a second Close is a no-op, so a racing or
// repeated close can never double-clunk the fid.
func (h *handle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	h.cancelRALocked()
	err := h.barrierLocked()
	if cerr := h.fid.Clunk(); err == nil {
		err = cerr
	}
	return err
}
