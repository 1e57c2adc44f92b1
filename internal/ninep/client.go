package ninep

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Pipelining defaults. The window is how many fragment RPCs a large
// Fid.Read or Fid.Write keeps in flight at once — the mount driver's
// sliding window — on clients that opt into WindowedTransfers.
// MaxInFlight bounds the tags outstanding on the whole client; when it
// is reached, new RPCs block until a reply frees a tag (tag-exhaustion
// backpressure) rather than spinning over the tag space.
const (
	DefaultWindow      = 8
	DefaultMaxInFlight = 64

	// maxTags is the number of usable tags: 1..NoTag-1. Tag 0 is
	// avoided by convention and NoTag is reserved.
	maxTags = int(NoTag) - 1
)

// ClientConfig tunes the mount driver's RPC engine. The zero value is
// safe for any server, including live device trees: every Fid.Read and
// Fid.Write maps onto the same RPCs, in the same order, as the serial
// driver. Fanning a large transfer into concurrent fragment RPCs is an
// explicit opt-in (WindowedTransfers) because it is only correct on
// trees of plain files — on a delimited or stream device a speculative
// Tread past a message boundary consumes data the caller never asked
// for, even if its reply is later flushed.
type ClientConfig struct {
	// Window is the number of concurrent fragment RPCs a large
	// read or write fans into when WindowedTransfers is set, and the
	// depth of the mount driver's write-behind. 0 means
	// DefaultWindow; 1 forces every fragment to wait for the
	// previous reply even where fan-out is enabled.
	Window int
	// MaxInFlight caps outstanding tags on the client across all
	// processes. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// WindowedTransfers fans Fid.Read/Fid.Write calls larger than
	// MaxFData into up to Window concurrent fragment RPCs on
	// plain-file fids. Off by default: only opt a client in when the
	// served tree holds plain files (mnt.FileConfig does), never for
	// an imported device tree.
	WindowedTransfers bool
	// Clock drives the client's goroutines and latency measurements;
	// nil means the real clock.
	Clock vclock.Clock
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxInFlight > maxTags {
		c.MaxInFlight = maxTags
	}
	if c.Window > c.MaxInFlight {
		c.Window = c.MaxInFlight
	}
	return c
}

// Client is the RPC engine of the mount driver (§2.1): it packs
// procedural operations into 9P messages, demultiplexes responses among
// the processes using the file server, and manages fids and tags.
type Client struct {
	conn MsgConn
	cfg  ClientConfig
	ck   vclock.Clock

	mu      sync.Mutex
	tagFree vclock.Cond // signaled whenever a tag is released
	// tags holds one entry per outstanding tag. A non-nil mailbox
	// is a process waiting for the reply; a nil value is a tag
	// abandoned by Tflush but still reserved until the flush
	// completes, so the server's late reply (if any) is dropped on
	// the floor instead of reaching a recycled tag's new owner.
	tags    map[uint16]*vclock.Mailbox[*Fcall]
	nextTag uint16
	nextFid uint32
	err     error

	// Mount-driver observability: RPC count and latency, Tflush count,
	// and the in-flight window high-water mark. The mnt device renders
	// these into /net/mnt/stats.
	RPCs     obs.Counter
	Flushes  obs.Counter
	RPCHist  obs.Hist
	WindowHW obs.Watermark
	stats    *obs.Group
}

// NewClientConfig starts a 9P client on conn with the given pipelining
// configuration and performs the session handshake. The caller then
// Attaches to obtain a root fid.
func NewClientConfig(conn MsgConn, cfg ClientConfig) (*Client, error) {
	cl := &Client{
		conn: conn,
		cfg:  cfg.withDefaults(),
		ck:   vclock.Or(cfg.Clock),
		tags: make(map[uint16]*vclock.Mailbox[*Fcall]),
	}
	cl.tagFree.Init(cl.ck, &cl.mu)
	cl.stats = new(obs.Group).
		AddCounter("rpcs", &cl.RPCs).
		AddCounter("flushes", &cl.Flushes).
		Add("window-max", cl.WindowHW.Load).
		AddHist("rpc", &cl.RPCHist)
	cl.ck.Go(cl.demux)
	if _, err := cl.RPC(&Fcall{Type: Tsession, Chal: "repro"}); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Window reports the configured fragment window.
func (cl *Client) Window() int { return cl.cfg.Window }

// Clock returns the clock the client runs on.
func (cl *Client) Clock() vclock.Clock { return cl.ck }

// StatsGroup exposes the client's counters and RPC latency histogram.
func (cl *Client) StatsGroup() *obs.Group { return cl.stats }

// Dead reports whether the client has failed or been closed; RPCs on a
// dead client fail immediately without blocking.
func (cl *Client) Dead() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err != nil
}

// demux reads responses and hands each to the waiting process, "the
// mount driver ... demultiplexes among processes using the file
// server".
func (cl *Client) demux() {
	for {
		msg, err := cl.conn.ReadMsg()
		if err != nil {
			cl.fail(err)
			return
		}
		f, err := UnmarshalFcall(msg)
		// UnmarshalFcall copies everything it keeps, so the wire
		// buffer goes back to the pool either way.
		block.PutBytes(msg)
		if err != nil {
			cl.fail(err)
			return
		}
		cl.mu.Lock()
		ch, ok := cl.tags[f.Tag]
		if ok {
			delete(cl.tags, f.Tag)
			cl.tagFree.Broadcast()
		}
		cl.mu.Unlock()
		// ch == nil: the tag was flushed; the reply raced the
		// Tflush and is discarded. TrySend cannot find the
		// one-slot mailbox full — each tag gets one reply — so a
		// refusal only means the client already failed.
		if ch != nil {
			ch.TrySend(f)
		}
	}
}

func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	pending := cl.tags
	cl.tags = make(map[uint16]*vclock.Mailbox[*Fcall])
	cl.tagFree.Broadcast()
	cl.mu.Unlock()
	for _, ch := range pending {
		if ch != nil {
			ch.Close()
		}
	}
}

// Close tears down the connection; outstanding RPCs fail.
func (cl *Client) Close() error {
	err := cl.conn.Close()
	cl.fail(ErrConnClosed)
	return err
}

// allocTag reserves a free tag for ch, blocking while the in-flight
// window is full or the tag space is exhausted. Tflush is exempt from
// the in-flight cap (flushExempt): a flush must be able to proceed
// even when the cap is saturated by the very requests it abandons.
func (cl *Client) allocTag(ch *vclock.Mailbox[*Fcall], flushExempt bool) (uint16, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	limit := cl.cfg.MaxInFlight
	if flushExempt {
		limit = maxTags
	}
	for cl.err == nil && len(cl.tags) >= limit {
		cl.tagFree.Wait()
	}
	if cl.err != nil {
		return 0, cl.err
	}
	// len(tags) < maxTags here, so a free tag exists and the scan
	// terminates.
	for {
		cl.nextTag++
		if cl.nextTag == NoTag {
			cl.nextTag = 1
		}
		if _, inUse := cl.tags[cl.nextTag]; !inUse {
			cl.tags[cl.nextTag] = ch
			cl.WindowHW.Note(int64(len(cl.tags)))
			return cl.nextTag, nil
		}
	}
}

// freeTag releases a tag reserved by allocTag but never answered (a
// marshal or transport error, or a completed flush).
func (cl *Client) freeTag(tag uint16) {
	cl.mu.Lock()
	delete(cl.tags, tag)
	cl.tagFree.Broadcast()
	cl.mu.Unlock()
}

// Pending is an RPC in flight: the asynchronous half of the mount
// driver. Exactly one of Wait or Flush must be called, once.
type Pending struct {
	cl    *Client
	tag   uint16
	req   uint8
	ch    *vclock.Mailbox[*Fcall]
	start time.Time
}

// RPCAsync sends t now and returns a Pending whose Wait delivers the
// reply. Replies to distinct Pendings may arrive in any order; the
// request hits the wire before RPCAsync returns, so two RPCAsyncs from
// one goroutine reach the server in call order.
func (cl *Client) RPCAsync(t *Fcall) (*Pending, error) {
	return cl.sendAsync(t, false)
}

func (cl *Client) sendAsync(t *Fcall, flushExempt bool) (*Pending, error) {
	ch := vclock.NewMailbox[*Fcall](cl.ck, 1)
	tag, err := cl.allocTag(ch, flushExempt)
	if err != nil {
		return nil, err
	}
	t.Tag = tag
	msg, err := MarshalFcall(t)
	if err != nil {
		cl.freeTag(tag)
		return nil, err
	}
	if err := cl.conn.WriteMsg(msg); err != nil {
		cl.freeTag(tag)
		return nil, err
	}
	cl.RPCs.Inc()
	return &Pending{cl: cl, tag: tag, req: t.Type, ch: ch, start: cl.ck.Now()}, nil
}

// Wait blocks for the reply. On an Rerror response it returns the
// error string as an error.
func (p *Pending) Wait() (*Fcall, error) {
	r, ok := p.ch.Recv()
	if !ok {
		p.cl.mu.Lock()
		err := p.cl.err
		p.cl.mu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		return nil, err
	}
	p.cl.RPCHist.Observe(p.cl.ck.Since(p.start))
	if r.Type == Rerror {
		return nil, errors.New(r.Ename)
	}
	if r.Type != p.req+1 {
		return nil, fmt.Errorf("9P: got %s in response to %s", TypeName(r.Type), TypeName(p.req))
	}
	return r, nil
}

// abandon marks the pending's tag as flushed (nil in the tag table) so
// demux drops a late reply. It reports whether the reply was still
// outstanding; if false the reply has already been delivered (or the
// client failed) and no Tflush is needed.
func (p *Pending) abandon() bool {
	p.cl.mu.Lock()
	defer p.cl.mu.Unlock()
	if ch, ok := p.cl.tags[p.tag]; ok && ch == p.ch {
		p.cl.tags[p.tag] = nil
		return true
	}
	return false
}

// Flush abandons the RPC: any reply is discarded, and a Tflush tells
// the server to forget the request (§2.1's "flush an I/O transaction
// when an interrupt is received"). It blocks until the Rflush arrives
// so the tag is quiet before reuse.
func (p *Pending) Flush() {
	p.cl.flushMany([]*Pending{p})
}

// flushMany abandons a batch of in-flight RPCs, pipelining the
// Tflushes so a truncated windowed transfer pays one round trip, not
// one per speculative fragment. Tflush allocation bypasses the
// in-flight cap; it only needs a free tag in the 16-bit space.
func (cl *Client) flushMany(ps []*Pending) {
	flushes := make([]*Pending, 0, len(ps))
	flushed := make([]*Pending, 0, len(ps))
	for _, p := range ps {
		if p == nil || !p.abandon() {
			continue
		}
		cl.Flushes.Inc()
		fp, err := cl.sendAsync(&Fcall{Type: Tflush, Oldtag: p.tag}, true)
		if err != nil {
			// Transport dead: fail() has already emptied the
			// tag table; nothing left to release.
			continue
		}
		flushes = append(flushes, fp)
		flushed = append(flushed, p)
	}
	for i, fp := range flushes {
		fp.Wait()
		// The flush is answered: release the abandoned tag's
		// reservation (demux may already have dropped a raced
		// reply and freed it).
		flushed[i].release()
	}
}

// release frees the tag of an abandoned pending once its flush has
// completed, if demux hasn't already consumed a raced reply.
func (p *Pending) release() {
	p.cl.mu.Lock()
	if ch, ok := p.cl.tags[p.tag]; ok && ch == nil {
		delete(p.cl.tags, p.tag)
		p.cl.tagFree.Broadcast()
	}
	p.cl.mu.Unlock()
}

// RPC performs one request/response exchange. On an Rerror response it
// returns the error string as an error.
func (cl *Client) RPC(t *Fcall) (*Fcall, error) {
	p, err := cl.RPCAsync(t)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

func (cl *Client) newFid() uint32 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.nextFid++
	return cl.nextFid
}

// Fid is a remote file handle: the client end of a server fid.
type Fid struct {
	cl  *Client
	fid uint32
	qid vfs.Qid
}

// Attach authenticates uname to the server and returns a fid for the
// root of the tree named by aname.
func (cl *Client) Attach(uname, aname string) (*Fid, error) {
	fid := cl.newFid()
	r, err := cl.RPC(&Fcall{Type: Tattach, Fid: fid, Uname: uname, Aname: aname})
	if err != nil {
		return nil, err
	}
	return &Fid{cl: cl, fid: fid, qid: r.Qid}, nil
}

// Client returns the client the fid lives on.
func (f *Fid) Client() *Client { return f.cl }

// Qid returns the qid most recently reported for the fid.
func (f *Fid) Qid() vfs.Qid { return f.qid }

// Clone duplicates the fid (Tclone), like dup(2) on a channel.
func (f *Fid) Clone() (*Fid, error) {
	nf := f.cl.newFid()
	if _, err := f.cl.RPC(&Fcall{Type: Tclone, Fid: f.fid, Newfid: nf}); err != nil {
		return nil, err
	}
	return &Fid{cl: f.cl, fid: nf, qid: f.qid}, nil
}

// Walk moves the fid one level down the hierarchy (Twalk).
func (f *Fid) Walk(name string) error {
	r, err := f.cl.RPC(&Fcall{Type: Twalk, Fid: f.fid, Name: name})
	if err != nil {
		return err
	}
	f.qid = r.Qid
	return nil
}

// CloneWalk clones the fid and walks the clone in one RPC (Tclwalk).
func (f *Fid) CloneWalk(name string) (*Fid, error) {
	nf := f.cl.newFid()
	r, err := f.cl.RPC(&Fcall{Type: Tclwalk, Fid: f.fid, Newfid: nf, Name: name})
	if err != nil {
		return nil, err
	}
	return &Fid{cl: f.cl, fid: nf, qid: r.Qid}, nil
}

// Open prepares the fid for reads and writes (Topen).
func (f *Fid) Open(mode int) error {
	r, err := f.cl.RPC(&Fcall{Type: Topen, Fid: f.fid, Mode: uint8(mode)})
	if err != nil {
		return err
	}
	f.qid = r.Qid
	return nil
}

// Create creates name in the directory the fid refers to and opens it
// (Tcreate); the fid moves to the new file.
func (f *Fid) Create(name string, perm uint32, mode int) error {
	r, err := f.cl.RPC(&Fcall{Type: Tcreate, Fid: f.fid, Name: name, Perm: perm, Mode: uint8(mode)})
	if err != nil {
		return err
	}
	f.qid = r.Qid
	return nil
}

// Read reads up to len(p) bytes at offset off. Reads of at most
// MaxFData map to exactly one RPC, which is how message delimiters
// survive the mount driver; larger reads issue one MaxFData Tread at a
// time, a short reply ending the read — exactly the serial driver.
// Only when the client opts into WindowedTransfers, and only on a
// plain-file fid, does a larger read fan into up to Window concurrent
// Treads reassembled strictly in offset order, a short reply
// truncating the result there and the speculative fragments beyond it
// flushed. The fan-out is never used on directories, append/exclusive
// files, or clients without the opt-in, because a speculative Tread
// past a boundary is executed by the server before the flush can reach
// it — on a delimited or stream device that read consumes data.
func (f *Fid) Read(p []byte, off int64) (int, error) {
	if len(p) <= MaxFData || !f.windowed() {
		return f.readSerial(p, off)
	}
	return f.readWindowed(p, off)
}

// windowed reports whether transfers on this fid may fan into
// concurrent fragment RPCs: the client must opt in (WindowedTransfers,
// with a window above 1) and the fid must name a plain file.
func (f *Fid) windowed() bool {
	return f.cl.cfg.WindowedTransfers && f.cl.cfg.Window > 1 && f.qid.Type == vfs.QTFILE
}

// readSerial is the pre-window mount driver: one MaxFData RPC at a
// time, a short response ending the read.
func (f *Fid) readSerial(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > MaxFData {
			n = MaxFData
		}
		r, err := f.cl.RPC(&Fcall{Type: Tread, Fid: f.fid, Offset: off + int64(total), Count: uint16(n)})
		if err != nil {
			return total, err
		}
		copy(p[total:], r.Data)
		total += len(r.Data)
		if len(r.Data) < n {
			break
		}
	}
	return total, nil
}

// readWindowed keeps up to Window fragment Treads in flight and
// reassembles replies in offset order.
func (f *Fid) readWindowed(p []byte, off int64) (int, error) {
	win := f.cl.cfg.Window
	nfrag := (len(p) + MaxFData - 1) / MaxFData
	pend := make([]*Pending, nfrag)
	issued := 0
	var issueErr error
	total := 0
	for seq := 0; seq < nfrag; seq++ {
		for issued < nfrag && issued < seq+win && issueErr == nil {
			n := min(len(p)-issued*MaxFData, MaxFData)
			pr, err := f.cl.RPCAsync(&Fcall{
				Type: Tread, Fid: f.fid,
				Offset: off + int64(issued)*MaxFData,
				Count:  uint16(n),
			})
			if err != nil {
				issueErr = err
				break
			}
			pend[issued] = pr
			issued++
		}
		if seq >= issued {
			return total, issueErr
		}
		asked := min(len(p)-seq*MaxFData, MaxFData)
		r, err := pend[seq].Wait()
		pend[seq] = nil
		if err != nil {
			f.cl.flushMany(pend[seq+1 : issued])
			return total, err
		}
		copy(p[seq*MaxFData:], r.Data)
		total += len(r.Data)
		if len(r.Data) < asked {
			// Short reply: EOF or a message boundary. The
			// fragments beyond it were speculative; flush them
			// so their data (if any) is discarded, exactly as
			// if they were never issued.
			f.cl.flushMany(pend[seq+1 : issued])
			return total, nil
		}
	}
	return total, issueErr
}

// Write writes p at offset off. Writes of at most MaxFData are one
// RPC; larger writes issue one fragment at a time, stopping at the
// first error or short Rwrite, exactly like the serial driver. On a
// client that opts into WindowedTransfers, larger writes to plain-file
// fids instead fan into up to Window concurrent Twrites, acknowledged
// strictly in offset order, a short Rwrite count truncating the total.
// The windowed fan-out relaxes the serial contract on failure: the
// fragments ride as independent RPCs, so when one errors or comes up
// short, fragments beyond the returned count may already have been
// applied by the server (see writeWindowed). A caller that cannot
// tolerate that — resuming a stream at the returned offset, say —
// must not enable WindowedTransfers for that tree.
func (f *Fid) Write(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		_, err := f.cl.RPC(&Fcall{Type: Twrite, Fid: f.fid, Offset: off})
		return 0, err
	}
	if len(p) <= MaxFData || !f.windowed() {
		return f.writeSerial(p, off)
	}
	return f.writeWindowed(p, off)
}

func (f *Fid) writeSerial(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > MaxFData {
			n = MaxFData
		}
		r, err := f.cl.RPC(&Fcall{Type: Twrite, Fid: f.fid, Offset: off + int64(total), Data: p[total : total+n]})
		if err != nil {
			return total, err
		}
		total += int(r.Count)
		if int(r.Count) < n {
			return total, nil
		}
	}
	return total, nil
}

// writeWindowed keeps up to Window fragment Twrites in flight.
// MarshalFcall copies the data into the wire buffer inside RPCAsync,
// so p is not retained after issue. Fragments are independent RPCs: if
// one fails or comes up short, later fragments may already have been
// applied by the server even though the returned total excludes them
// (the same is true of any interrupted multi-fragment write).
func (f *Fid) writeWindowed(p []byte, off int64) (int, error) {
	win := f.cl.cfg.Window
	nfrag := (len(p) + MaxFData - 1) / MaxFData
	pend := make([]*Pending, nfrag)
	issued := 0
	var issueErr error
	total := 0
	for seq := 0; seq < nfrag; seq++ {
		for issued < nfrag && issued < seq+win && issueErr == nil {
			lo := issued * MaxFData
			hi := min(lo+MaxFData, len(p))
			pr, err := f.cl.RPCAsync(&Fcall{
				Type: Twrite, Fid: f.fid,
				Offset: off + int64(lo),
				Data:   p[lo:hi],
			})
			if err != nil {
				issueErr = err
				break
			}
			pend[issued] = pr
			issued++
		}
		if seq >= issued {
			return total, issueErr
		}
		asked := min(len(p)-seq*MaxFData, MaxFData)
		r, err := pend[seq].Wait()
		pend[seq] = nil
		if err != nil {
			f.cl.flushMany(pend[seq+1 : issued])
			return total, err
		}
		total += int(r.Count)
		if int(r.Count) < asked {
			f.cl.flushMany(pend[seq+1 : issued])
			return total, nil
		}
	}
	return total, issueErr
}

// ReadAsync issues a single-fragment Tread without waiting: the mount
// driver's readahead hook. count must be at most MaxFData.
func (f *Fid) ReadAsync(off int64, count int) (*Pending, error) {
	if count > MaxFData {
		count = MaxFData
	}
	return f.cl.RPCAsync(&Fcall{Type: Tread, Fid: f.fid, Offset: off, Count: uint16(count)})
}

// WriteAsync issues a single-fragment Twrite without waiting: the
// mount driver's write-behind hook. len(p) must be at most MaxFData;
// p is copied before WriteAsync returns.
func (f *Fid) WriteAsync(p []byte, off int64) (*Pending, error) {
	if len(p) > MaxFData {
		return nil, ErrDataLen
	}
	return f.cl.RPCAsync(&Fcall{Type: Twrite, Fid: f.fid, Offset: off, Data: p})
}

// FlushAll abandons a batch of pending RPCs, pipelining the Tflushes.
func (cl *Client) FlushAll(ps []*Pending) { cl.flushMany(ps) }

// Stat returns the file's directory entry (Tstat).
func (f *Fid) Stat() (vfs.Dir, error) {
	r, err := f.cl.RPC(&Fcall{Type: Tstat, Fid: f.fid})
	if err != nil {
		return vfs.Dir{}, err
	}
	return r.Stat, nil
}

// Wstat rewrites the file's attributes (Twstat).
func (f *Fid) Wstat(d vfs.Dir) error {
	_, err := f.cl.RPC(&Fcall{Type: Twstat, Fid: f.fid, Stat: d})
	return err
}

// Clunk discards the fid without affecting the file (Tclunk).
func (f *Fid) Clunk() error {
	_, err := f.cl.RPC(&Fcall{Type: Tclunk, Fid: f.fid})
	return err
}

// Remove removes the file and clunks the fid (Tremove).
func (f *Fid) Remove() error {
	_, err := f.cl.RPC(&Fcall{Type: Tremove, Fid: f.fid})
	return err
}
