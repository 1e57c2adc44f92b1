// Package ether simulates an Ethernet (§2.2): a broadcast segment
// connecting interfaces, each served by a LANCE-style driver that
// demultiplexes received packets among conversations by packet type,
// supports the special type -1 and promiscuous mode, and presents the
// two-level file tree of the paper's Figure 1:
//
//	ether/clone
//	ether/1/ctl  ether/1/data  ether/1/stats  ether/1/type
//	...
//
// The medium is characterized by a medium.Profile (latency, bandwidth,
// MTU, loss) so the performance experiments can calibrate it to the
// paper's 10 Mb/s hardware; with a zero profile frames are delivered
// synchronously and tests run at memory speed.
package ether

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// HdrLen is the Ethernet frame header: dst[6] src[6] type[2].
const HdrLen = 14

// fcsLen is the frame check sequence the transmitting hardware
// appends: a CRC32, as on the real wire. Receiving interfaces verify
// and strip it, dropping damaged frames and counting crc errs —
// which is why bit corruption on an Ethernet shows up to protocols as
// loss, and end-to-end checksums (IL, TCP) exist for corruption
// introduced above the hardware CRC.
const fcsLen = 4

// MaxConns bounds the conversations per interface, like the fixed
// conversation tables of the kernel driver.
const MaxConns = 32

// Well-known packet types.
const (
	TypeIP  = 0x0800
	TypeARP = 0x0806
	// TypeAll is the special packet type -1 selecting all packets.
	TypeAll = -1
)

// Addr is a 48-bit Ethernet address.
type Addr [6]byte

// String formats the address as the ndb ether= attribute does.
func (a Addr) String() string {
	return fmt.Sprintf("%02x%02x%02x%02x%02x%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Segment is a broadcast domain: every frame transmitted by one
// interface is on the wire for all others, and each station's address
// filter decides whether to take it (medium effects permitting).
type Segment struct {
	name    string
	profile medium.Profile
	ck      vclock.Clock
	im      *medium.Impairer // nil on an unimpaired, lossless segment
	ideal   bool             // ideal medium: no pacing, no impairment, FCS elided

	mu     sync.Mutex                   // serializes station attach
	ifaces atomic.Pointer[[]*Interface] // copy-on-write station list, read per frame
	closed atomic.Bool

	txq *vclock.Mailbox[txFrame]
}

type txFrame struct {
	from  *Interface
	dst   Addr // as the sender wrote it, before any wire damage
	frame []byte
}

// stations returns the current station snapshot; callers must not
// modify it.
func (seg *Segment) stations() []*Interface {
	if p := seg.ifaces.Load(); p != nil {
		return *p
	}
	return nil
}

// NewSegment creates a segment with the given medium profile. A zero
// MTU means Ethernet's 1500 bytes. Under impairment a corrupted frame
// still reaches the station it was addressed to and fails the FCS
// there, so corruption surfaces as loss plus a crc errs count — as on
// real hardware.
func NewSegment(name string, p medium.Profile) *Segment {
	ck := vclock.Or(p.Clock)
	seg := &Segment{
		name:    name,
		profile: p,
		ck:      ck,
		txq:     vclock.NewMailbox[txFrame](ck, 256),
	}
	if p.Impair.Armed(p.Loss) {
		seg.im = medium.NewImpairer(p.Seed+1, p.Loss, p.Impair)
	}
	// On an ideal medium a frame cannot be damaged in transit, so the
	// simulation elides the FCS entirely: the transmitter appends none
	// and the receivers skip the check. Both sides consult this one
	// flag, fixed for the segment's lifetime, so they always agree on
	// the frame layout.
	seg.ideal = p.Bandwidth == 0 && p.Latency == 0 && seg.im == nil
	ck.Go(seg.transmitter)
	return seg
}

// Clock returns the clock the segment waits on.
func (seg *Segment) Clock() vclock.Clock { return seg.ck }

// Schedule returns the segment's recorded impairment decisions
// (requires medium.Profile.Impair.Record); nil when unimpaired.
func (seg *Segment) Schedule() []medium.Decision {
	if seg.im == nil {
		return nil
	}
	return seg.im.Schedule()
}

// ImpairCounts returns the segment's impairment counters; zero when
// unimpaired.
func (seg *Segment) ImpairCounts() medium.Counts {
	if seg.im == nil {
		return medium.Counts{}
	}
	return seg.im.Counts()
}

// Name returns the segment's name.
func (seg *Segment) Name() string { return seg.name }

// MTU returns the medium MTU: the largest payload, not counting the
// header.
func (seg *Segment) MTU() int {
	if seg.profile.MTU <= 0 {
		return 1500
	}
	return seg.profile.MTU
}

// Close shuts the medium down; interfaces stop receiving.
func (seg *Segment) Close() {
	if seg.closed.Swap(true) {
		return
	}
	seg.txq.Close()
	for _, ifc := range seg.stations() {
		ifc.close()
	}
}

// transmitter models the shared wire: one frame at a time, paced by
// bandwidth, then fanned out after the propagation latency. All
// waiting goes through the segment's clock, so a virtual clock replays
// the identical wire schedule.
func (seg *Segment) transmitter() {
	type timedFrame struct {
		tx txFrame
		at time.Time
	}
	sched := vclock.NewMailbox[timedFrame](seg.ck, 512)
	// The deliverer applies propagation latency in order, pipelined
	// behind the serializing transmitter.
	seg.ck.Go(func() {
		for {
			tf, ok := sched.Recv()
			if !ok {
				return
			}
			seg.ck.SleepUntil(tf.at)
			for _, ifc := range seg.stations() {
				if ifc != tf.tx.from && ifc.accepts(tf.tx.dst) {
					// Each receiver gets its own wrapper over the
					// shared (read-only) detached frame.
					ifc.deliver(block.FromBytes(tf.tx.frame))
				}
			}
		}
	})
	defer sched.Close()
	var lineFree time.Time
	for {
		tx, ok := seg.txq.Recv()
		if !ok {
			return
		}
		p := seg.profile
		now := seg.ck.Now()
		if p.Bandwidth > 0 {
			d := time.Duration(int64(len(tx.frame)) * int64(time.Second) / p.Bandwidth)
			if lineFree.Before(now) {
				lineFree = now
			}
			lineFree = lineFree.Add(d)
			seg.ck.SleepUntil(lineFree)
		}
		if seg.im != nil {
			// The impairer decides drop/duplicate/corrupt/hold
			// for this wire position; each resulting copy is
			// scheduled at latency plus its jitter. The single
			// transmitter goroutine defines wire-position order,
			// so a fixed seed replays the identical schedule.
			// Every copy keeps the destination the sender wrote,
			// so a damaged copy still reaches its addressee and
			// dies at the FCS there.
			for _, e := range seg.im.Apply(tx.frame) {
				if sched.Send(timedFrame{tx: txFrame{from: tx.from, dst: tx.dst, frame: e.Data}, at: seg.ck.Now().Add(p.Latency + e.Delay)}) != nil {
					return
				}
			}
			continue
		}
		if sched.Send(timedFrame{tx: tx, at: seg.ck.Now().Add(p.Latency)}) != nil {
			return
		}
	}
}

// transmitBlock queues a frame on the wire, appending the hardware FCS
// into the block's tailroom in place (elided on an ideal medium).
// Ownership of b transfers to the segment.
func (seg *Segment) transmitBlock(from *Interface, b *block.Block) error {
	if b.Len()-HdrLen > seg.MTU() {
		n := b.Len() - HdrLen
		b.Free()
		return fmt.Errorf("ether: packet exceeds MTU (%d > %d)", n, seg.MTU())
	}
	var dst Addr
	copy(dst[:], b.Bytes())
	if seg.ideal {
		// Synchronous fast path for an ideal medium: no pacing, no
		// reordering possible, no FCS (nothing can damage the frame).
		// The one block fans out to every accepting receiver by
		// reference count — each interface reads it and releases its
		// own reference; nobody copies, nobody mutates.
		if seg.closed.Load() {
			b.Free()
			return vfs.ErrShutdown
		}
		// The receivers are fixed before the references are taken, so
		// a filter that changes mid-fan-out cannot unbalance the
		// count; the array keeps a typical segment off the heap.
		var buf [8]*Interface
		to := buf[:0]
		for _, ifc := range seg.stations() {
			if ifc != from && ifc.accepts(dst) {
				to = append(to, ifc)
			}
		}
		if len(to) == 0 {
			b.Free()
			return nil
		}
		for range to[1:] {
			b.Ref()
		}
		for _, ifc := range to {
			ifc.deliver(b)
		}
		return nil
	}
	// Paced or impaired medium: the FCS goes on the wire so damage is
	// detectable, and the frame leaves the block economy here. The
	// impairer must copy to corrupt (and to duplicate), and the
	// latency scheduler fans the same bytes out to every station, so a
	// detached plain slice is the honest representation.
	crc := crc32.ChecksumIEEE(b.Bytes())
	binary.BigEndian.PutUint32(b.Extend(fcsLen), crc)
	frame := b.Detach()
	if seg.txq.Send(txFrame{from: from, dst: dst, frame: frame}) != nil {
		return vfs.ErrShutdown
	}
	return nil
}

var macCounter atomic.Uint32

// Interface is one station on a segment: the LANCE analogue. Its
// address filter takes only frames sent to its own address or to
// broadcast, unless a conversation has made it promiscuous. Accepted
// frames are demultiplexed among conversations by packet type; every
// matching conversation receives a copy.
type Interface struct {
	seg  *Segment
	addr Addr
	name string

	mu     sync.Mutex
	conns  [MaxConns + 1]*Conn     // index 1..MaxConns, as in the file tree
	active atomic.Pointer[[]*Conn] // snapshot of allocated conns, for the lock-free demux
	prom   atomic.Int32            // conversations in promiscuous mode

	in *vclock.Mailbox[*block.Block]

	inPackets  atomic.Int64
	outPackets atomic.Int64
	inBytes    atomic.Int64
	outBytes   atomic.Int64
	overflows  atomic.Int64
	crcErrs    atomic.Int64 // frames that failed the FCS check
}

// CRCErrs reports how many damaged frames the interface discarded.
func (ifc *Interface) CRCErrs() int64 { return ifc.crcErrs.Load() }

// NewInterface attaches a new station to the segment. name is the
// device name it will carry in a file tree ("ether0").
func (seg *Segment) NewInterface(name string) *Interface {
	n := macCounter.Add(1)
	ifc := &Interface{
		seg:  seg,
		name: name,
		addr: Addr{0x08, 0x00, 0x69, byte(n >> 16), byte(n >> 8), byte(n)},
		in:   vclock.NewMailbox[*block.Block](seg.ck, 512),
	}
	seg.ck.Go(ifc.reader)
	seg.mu.Lock()
	// Copy on write: the capped slice forces append to copy, so a
	// fan-out still ranging over the old snapshot never sees it change.
	old := seg.stations()
	lst := append(old[:len(old):len(old)], ifc)
	seg.ifaces.Store(&lst)
	seg.mu.Unlock()
	return ifc
}

// Addr returns the interface's Ethernet address.
func (ifc *Interface) Addr() Addr { return ifc.addr }

// Name returns the interface name.
func (ifc *Interface) Name() string { return ifc.name }

// Segment returns the medium the interface is attached to.
func (ifc *Interface) Segment() *Segment { return ifc.seg }

// MTU returns the medium MTU.
func (ifc *Interface) MTU() int { return ifc.seg.MTU() }

// accepts is the hardware address filter: the station takes a frame
// sent to its own address or to broadcast, and every frame while any
// of its conversations is promiscuous. Frames it refuses never reach
// its input ring, so they cost it neither a wakeup nor an overflow.
func (ifc *Interface) accepts(dst Addr) bool {
	return dst == ifc.addr || dst == Broadcast || ifc.prom.Load() > 0
}

func (ifc *Interface) close() {
	// Undelivered frames go back to the block pool rather than to a
	// reader that has already quit.
	for _, b := range ifc.in.CloseDrain() {
		b.Free()
	}
}

// deliver is called by the medium with a received frame (the interrupt
// routine analogue): it may not block, so a full input ring drops the
// frame and counts an overflow. The interface takes ownership of (its
// reference to) the block.
func (ifc *Interface) deliver(b *block.Block) {
	if !ifc.in.TrySend(b) {
		ifc.overflows.Add(1)
		b.Free()
	}
}

// reader is the kernel process that drains the input ring and
// demultiplexes to conversations (§2.4.2: "the interrupt routine wakes
// up the kernel process...").
func (ifc *Interface) reader() {
	for {
		b, ok := ifc.in.Recv()
		if !ok {
			return
		}
		// Verify and strip the FCS: a frame damaged on the wire
		// never reaches the protocols — the hardware drops it and
		// counts a crc error, and recovery is the transport's
		// problem (loss, not corruption). The block may be shared
		// with other stations (broadcast fan-out), so it is read,
		// never written, and this reference is released when
		// demultiplexing returns.
		frame := b.Bytes()
		body := frame
		if ifc.seg.ideal {
			// An ideal medium carries no FCS (nothing to check).
			if len(frame) < HdrLen {
				ifc.crcErrs.Add(1)
				b.Free()
				continue
			}
		} else {
			if len(frame) < HdrLen+fcsLen {
				ifc.crcErrs.Add(1)
				b.Free()
				continue
			}
			body = frame[:len(frame)-fcsLen]
			if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(frame[len(frame)-fcsLen:]) {
				ifc.crcErrs.Add(1)
				b.Free()
				continue
			}
		}
		ifc.inPackets.Add(1)
		ifc.inBytes.Add(int64(len(body)))
		ifc.demux(body)
		b.Free()
	}
}

// demux delivers a copy of the frame to every matching conversation:
// "if several connections on an interface are configured for a
// particular packet type, each receives a copy of the incoming
// packets" (§2.2).
func (ifc *Interface) demux(frame []byte) {
	var dst Addr
	copy(dst[:], frame[0:6])
	etype := int(frame[12])<<8 | int(frame[13])
	toMe := dst == ifc.addr || dst == Broadcast
	conns := ifc.active.Load()
	if conns == nil {
		return
	}
	for _, c := range *conns {
		// One atomic load per conversation per frame: the match state
		// is a read-mostly snapshot rebuilt on the rare configuration
		// changes, so the per-frame demultiplex loop takes no locks.
		st := c.rx.Load()
		if st == nil || !st.inuse {
			continue
		}
		match := st.prom ||
			(toMe && (st.etype == TypeAll || st.etype == etype))
		deliver := st.deliver
		s := st.stream
		if !match {
			continue
		}
		if deliver != nil {
			// Kernel hooks borrow the frame for the duration of the
			// call; the IP stack slices it in place and copies only
			// what it retains.
			c.inPackets.Add(1)
			deliver(frame)
			continue
		}
		if s == nil {
			continue
		}
		// A conversation nobody reads must not wedge the interface:
		// the driver drops, like real input-ring overflow. The
		// threshold sits below the stream's own flow-control limit
		// so the demultiplexer can never block on one slow reader.
		if s.QueuedBytes() >= streams.DefaultLimit/2 {
			ifc.overflows.Add(1)
			continue
		}
		// Stream conversations get their own copy — "each receives a
		// copy of the incoming packets" — into a pooled block.
		c.inPackets.Add(1)
		s.DeviceUpOwned(block.Copy(frame, 0))
	}
}

// Conn is a conversation on the interface: one numbered connection
// directory of Figure 1.
type Conn struct {
	ifc *Interface
	id  int

	mu      sync.Mutex
	inuse   int // reference count of open files on the conversation
	etype   int // 0 = unconfigured, -1 = all
	prom    bool
	stream  *streams.Stream
	deliver func(frame []byte) // kernel hook bypassing the stream

	// rx is the demultiplexer's view of the fields above: an immutable
	// snapshot republished under mu whenever they change, so the
	// per-frame receive path reads one atomic pointer instead of taking
	// the conversation lock. Configuration changes are rare; frames are
	// not.
	rx atomic.Pointer[rxState]

	inPackets  atomic.Int64
	outPackets atomic.Int64
}

// rxState is a Conn's frozen match state as the demultiplexer sees it.
type rxState struct {
	inuse   bool
	prom    bool
	etype   int
	stream  *streams.Stream
	deliver func(frame []byte)
}

// refreshRx republishes the demux snapshot. Callers hold c.mu.
func (c *Conn) refreshRx() {
	c.rx.Store(&rxState{
		inuse:   c.inuse > 0,
		prom:    c.prom,
		etype:   c.etype,
		stream:  c.stream,
		deliver: c.deliver,
	})
}

// OpenConn reserves a conversation programmatically (the kernel path
// used by the IP stack, equivalent to opening the clone file).
func (ifc *Interface) OpenConn() (*Conn, error) {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	for id := 1; id <= MaxConns; id++ {
		c := ifc.conns[id]
		if c == nil {
			c = &Conn{ifc: ifc, id: id}
			ifc.conns[id] = c
			// Republish the demux's conversation list. Conn slots are
			// allocated once and reused forever after, so the list only
			// grows, and growing it is the only time it changes.
			var lst []*Conn
			for _, cc := range ifc.conns[1:] {
				if cc != nil {
					lst = append(lst, cc)
				}
			}
			ifc.active.Store(&lst)
		}
		//netvet:ignore lock-across-send fixed hierarchy: interface before conversation, never reversed
		c.mu.Lock()
		free := c.inuse == 0
		if free {
			c.inuse = 1
			c.etype = 0
			c.setPromLocked(false)
			c.deliver = nil
			c.stream = c.newStreamLocked()
			c.refreshRx()
		}
		c.mu.Unlock()
		if free {
			return c, nil
		}
	}
	return nil, vfs.ErrInUse
}

// newStreamLocked builds the conversation's stream; the device end
// transmits frames.
func (c *Conn) newStreamLocked() *streams.Stream {
	return streams.New(0, c.ifc.seg.Clock(), func(b *streams.Block) {
		if b.Type != streams.BlockData {
			b.Free()
			return
		}
		c.transmit(b)
	})
}

// ID returns the conversation number.
func (c *Conn) ID() int { return c.id }

// SetType configures the packet type ("connect N" on the ctl file).
func (c *Conn) SetType(etype int) {
	c.mu.Lock()
	c.etype = etype
	c.refreshRx()
	c.mu.Unlock()
}

// Type returns the configured packet type.
func (c *Conn) Type() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.etype
}

// SetPromiscuous turns promiscuous reception on ("promiscuous") or
// off. The interface's address filter opens while any conversation is
// promiscuous.
func (c *Conn) SetPromiscuous(on bool) {
	c.mu.Lock()
	c.setPromLocked(on)
	c.refreshRx()
	c.mu.Unlock()
}

// setPromLocked records the mode and keeps the interface's count of
// promiscuous conversations in step, counting only real transitions.
// Callers hold c.mu.
func (c *Conn) setPromLocked(on bool) {
	if c.prom == on {
		return
	}
	c.prom = on
	if on {
		c.ifc.prom.Add(1)
	} else {
		c.ifc.prom.Add(-1)
	}
}

// SetDeliver installs a kernel delivery hook: received frames go to fn
// instead of the conversation stream. The IP stack uses this to avoid
// a queue it would immediately drain. The frame is borrowed — it
// aliases a receive buffer recycled after fn returns — so the hook
// must copy anything it keeps.
func (c *Conn) SetDeliver(fn func(frame []byte)) {
	c.mu.Lock()
	c.deliver = fn
	c.refreshRx()
	c.mu.Unlock()
}

// Transmit sends payload p to dst with the conversation's packet type,
// "appending a packet header containing the source address and packet
// type" (§2.2). The payload is borrowed and copied into a pooled
// frame; callers that already own a block use TransmitBlock.
func (c *Conn) Transmit(dst Addr, payload []byte) error {
	return c.TransmitBlock(dst, block.Copy(payload, HdrLen))
}

// TransmitBlock sends an owned payload block, pushing the frame header
// into its headroom in place. Ownership transfers to the driver.
func (c *Conn) TransmitBlock(dst Addr, payload *block.Block) error {
	hdr := payload.Prepend(HdrLen)
	copy(hdr[0:6], dst[:])
	copy(hdr[6:12], c.ifc.addr[:])
	etype := 0
	if st := c.rx.Load(); st != nil {
		etype = st.etype
	}
	hdr[12] = byte(etype >> 8)
	hdr[13] = byte(etype)
	c.outPackets.Add(1)
	c.ifc.outPackets.Add(1)
	c.ifc.outBytes.Add(int64(payload.Len()))
	return c.ifc.seg.transmitBlock(c.ifc, payload)
}

// transmit handles a raw write from the data file: the first 6 bytes
// are the destination address, the rest the payload. It consumes the
// stream block, carrying its buffer through to the wire.
func (c *Conn) transmit(w *streams.Block) {
	if len(w.Buf) < 6 {
		w.Free()
		return
	}
	var dst Addr
	copy(dst[:], w.Buf[:6])
	payload := w.TakeInner()
	payload.Consume(6)
	c.TransmitBlock(dst, payload)
}

// Read returns the next received frame (header included), via the
// conversation stream. Used by the file tree's data file.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	s := c.stream
	c.mu.Unlock()
	if s == nil {
		return 0, vfs.ErrHungup
	}
	return s.Read(p)
}

// Stream exposes the conversation stream (for pushing modules).
func (c *Conn) Stream() *streams.Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stream
}

// incref takes another reference on the conversation.
func (c *Conn) incref() {
	c.mu.Lock()
	c.inuse++
	c.refreshRx()
	c.mu.Unlock()
}

// Close drops one reference; on the last, the conversation resets, as
// when the final file in the connection directory is clunked.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.inuse--
	if c.inuse > 0 {
		c.mu.Unlock()
		return nil
	}
	c.inuse = 0
	s := c.stream
	c.stream = nil
	c.etype = 0
	c.setPromLocked(false)
	c.deliver = nil
	c.refreshRx()
	c.mu.Unlock()
	if s != nil {
		s.Close()
	}
	return nil
}

// Stats formats interface statistics in the ASCII style of the stats
// file (§2.2: "interface address, packet input/output counts, error
// statistics, and general information about the state of the
// interface"). The counter lines use the "name: value" shape that
// obs.ParseStats reads back, so the conformance suite can reconcile
// them against the impairment model's ground truth.
func (ifc *Interface) Stats() string {
	return fmt.Sprintf(
		"addr: %s\nmtu: %d\nin: %d\nout: %d\nin-bytes: %d\nout-bytes: %d\noverflows: %d\ncrc-errs: %d\n",
		ifc.addr, ifc.MTU(),
		ifc.inPackets.Load(), ifc.outPackets.Load(),
		ifc.inBytes.Load(), ifc.outBytes.Load(),
		ifc.overflows.Load(), ifc.crcErrs.Load())
}
