// Package rexmit is the IP-transport core IL and TCP share: the
// conversation table with its §5.2 announce-all listener, the
// transmitter kernel process, and the adaptive round-trip estimator of
// §3. Each engine embeds Conv in its conversation type and keeps only
// what the paper compares — wire format and checksum, state machine,
// the shape of its send queue, and its retransmission policy. Nothing
// here knows which protocol it is serving.
package rexmit

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// The phases every conversation shares. Engines number the rest of
// their state machine from Listening+1.
const (
	Closed = iota
	Listening
)

// Conv is the protocol-independent half of a conversation. An engine
// embeds it and guards its own protocol state with the same Mu.
type Conv struct {
	Mu    sync.Mutex
	Cond  vclock.Cond // broadcast on every Phase change
	Phase int

	Laddr, Raddr ip.Addr
	Lport, Rport uint16
	// ISS is the initial send sequence number, drawn when the
	// conversation is bound.
	ISS uint32

	Rstream *streams.Stream // received data on its way to the reader
	Err     error           // why the conversation died

	// Ring is the conversation's event trace, armed by writing
	// "trace on" to the ctl file; disabled it costs one atomic load
	// per would-be event.
	Ring obs.Ring

	established bool                        // the handshake completed
	listener    *Conv                       // a passive call's listener, until handed off
	accepted    *vclock.Mailbox[xport.Conn] // a listener's backlog
}

var _ obs.Tracer = (*Conv)(nil)

func (c *Conv) conv() *Conv { return c }

func (c *Conv) key() key { return key{c.Raddr, c.Rport, c.Lport} }

// Trace implements obs.Tracer; the netdev tree serves it as the
// conversation's trace file.
func (c *Conv) Trace() *obs.Ring { return &c.Ring }

// Read implements xport.Conn. Whether reads preserve write boundaries
// is up to what the engine delivers: IL delimits, TCP does not.
func (c *Conv) Read(p []byte) (int, error) { return c.Rstream.Read(p) }

// Listen implements xport.Conn: block for the next established call.
func (c *Conv) Listen() (xport.Conn, error) {
	c.Mu.Lock()
	if c.Phase != Listening {
		c.Mu.Unlock()
		return nil, xport.ErrNotAnnounced
	}
	mb := c.accepted
	c.Mu.Unlock()
	nc, ok := mb.Recv()
	if !ok {
		return nil, streams.ErrClosed
	}
	return nc, nil
}

// LocalAddr implements xport.Conn.
func (c *Conv) LocalAddr() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return ip.HostPort(c.Laddr, c.Lport)
}

// RemoteAddr implements xport.Conn.
func (c *Conv) RemoteAddr() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return ip.HostPort(c.Raddr, c.Rport)
}

// PhaseName returns the current phase as named in the engine's table.
func (c *Conv) PhaseName(names []string) string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return names[c.Phase]
}

// ErrOr is the error the conversation died of, or def if none is
// recorded. c.Mu must be held.
func (c *Conv) ErrOr(def error) error {
	if c.Err != nil {
		return c.Err
	}
	return def
}

// UnannounceLocked stops a listener accepting: blocked and later
// Listens fail. c.Mu must be held.
func (c *Conv) UnannounceLocked() {
	c.Phase = Closed
	c.accepted.Close()
}

// DieLocked ends the conversation at once: it keeps err unless an
// earlier error is already recorded, enters Closed, and hangs up the
// reader. c.Mu must be held.
func (c *Conv) DieLocked(err error) {
	if c.Err == nil {
		c.Err = err
	}
	c.Phase = Closed
	c.Cond.Broadcast()
	c.Ring.Emit(obs.EvHangup, 0, 0)
	c.Rstream.HangupUp()
}

// key names a conversation in the demux table: the remote end and the
// local port.
type key struct {
	raddr        ip.Addr
	rport, lport uint16
}

// Conversation is an engine's conversation type; embedding Conv
// provides the unexported method.
type Conversation interface {
	xport.Conn
	conv() *Conv
}

// Table is an engine's conversation table: the demux from key to
// conversation, the listeners by port, and the ephemeral-port and
// initial-sequence allocators.
type Table[C Conversation] struct {
	ck      vclock.Clock
	tx      *Transmitter
	newConv func() C
	base    uint16 // ephemeral ports start just above it

	mu        sync.Mutex
	conns     map[key]C
	listeners map[uint16]C
	next      uint16
	rng       *rand.Rand
}

// NewTable makes the table for the engine whose packets leave through
// tx. Ephemeral ports are allocated from base upward; newConv
// allocates a bare conversation.
func NewTable[C Conversation](tx *Transmitter, base uint16, newConv func() C) *Table[C] {
	ck := tx.stack.Clock()
	return &Table[C]{
		ck:        ck,
		tx:        tx,
		newConv:   newConv,
		base:      base,
		conns:     make(map[key]C),
		listeners: make(map[uint16]C),
		next:      base,
		rng:       newRand(ck),
	}
}

func newRand(ck vclock.Clock) *rand.Rand { return rand.New(rand.NewSource(ck.Now().UnixNano())) }

// New allocates a fresh conversation (the clone file).
func (t *Table[C]) New() C {
	c := t.newConv()
	cv := c.conv()
	cv.Cond.Init(t.ck, &cv.Mu)
	cv.Rstream = streams.New(1<<22, t.ck, nil)
	cv.accepted = vclock.NewMailbox[xport.Conn](t.ck, 8)
	return c
}

// Connect is the active open: it binds c to a local address and a
// fresh ephemeral port, enters it in the table, and runs open under
// both locks to set the engine's opening phase and send the first
// handshake packet. It then blocks until the handshake leaves that
// phase, as opening the data file does, and succeeds if it was
// established — even if the peer has already closed again.
func (t *Table[C]) Connect(c C, addr string, open func()) error {
	a, port, err := ip.ParseHostPort(addr)
	if err != nil || a.IsZero() || port == 0 {
		return xport.ErrBadAddress
	}
	local, err := t.tx.stack.LocalAddrFor(a)
	if err != nil {
		return err
	}
	cv := c.conv()
	t.mu.Lock()
	//netvet:ignore lock-across-send fixed hierarchy: table before conversation, never reversed
	cv.Mu.Lock()
	if cv.Phase != Closed {
		cv.Mu.Unlock()
		t.mu.Unlock()
		return xport.ErrConnected
	}
	cv.Laddr, cv.Lport = local, t.ephemeralLocked()
	cv.Raddr, cv.Rport = a, port
	cv.ISS = t.issLocked()
	open()
	opening := cv.Phase
	t.conns[cv.key()] = c
	cv.Mu.Unlock()
	t.mu.Unlock()

	cv.Mu.Lock()
	defer cv.Mu.Unlock()
	for cv.Phase == opening {
		cv.Cond.Wait()
	}
	if !cv.established {
		cv.Err = cv.ErrOr(vfs.ErrConnRef)
		cv.Ring.Emit(obs.EvError, 0, 0)
		return cv.Err
	}
	cv.Ring.Emit(obs.EvConnect, 1, 0)
	return nil
}

// Announce makes c the listener for addr's port. The address "*" (no
// service) announces every service not explicitly announced, the
// inetd-less arrangement of §5.2: port 0 holds that listener, calls to
// unannounced ports land on it, and it learns the requested service
// from the new conversation's local address.
func (t *Table[C]) Announce(c C, addr string) error {
	var port uint16
	if addr != "*" && addr != "*!*" {
		var err error
		_, port, err = ip.ParseHostPort(addr)
		if err != nil || port == 0 {
			return xport.ErrBadAddress
		}
	}
	cv := c.conv()
	t.mu.Lock()
	defer t.mu.Unlock()
	//netvet:ignore lock-across-send fixed hierarchy: table before conversation, never reversed
	cv.Mu.Lock()
	defer cv.Mu.Unlock()
	if cv.Phase != Closed {
		return xport.ErrConnected
	}
	if _, taken := t.listeners[port]; taken {
		return xport.ErrInUse
	}
	cv.Lport = port
	cv.Phase = Listening
	t.listeners[port] = c
	cv.Ring.Emit(obs.EvAnnounce, int64(port), 0)
	return nil
}

// Demux finds the conversation a packet from raddr!rport to local port
// lport belongs to. On a miss, a packet that opens a call goes to the
// listener on its port or, if there is none, the announce-all listener
// on port 0: a passive conversation is spawned for the call, accept
// sets the engine's protocol state, and the conversation enters the
// table — all under the table lock, so a duplicate open finds it. ok
// is false when nobody takes the packet.
func (t *Table[C]) Demux(raddr ip.Addr, rport, lport uint16, opens bool, accept func(C)) (c C, ok bool) {
	k := key{raddr, rport, lport}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok = t.conns[k]; ok || !opens {
		return c, ok
	}
	l, ok := t.listeners[lport]
	if !ok {
		if l, ok = t.listeners[0]; !ok {
			return c, false
		}
	}
	c = t.New()
	cv, lv := c.conv(), l.conv()
	cv.Laddr, cv.Lport = lv.Laddr, lport
	cv.Raddr, cv.Rport = raddr, rport
	cv.ISS = t.issLocked()
	cv.listener = lv
	accept(c)
	t.conns[k] = c
	return c, true
}

// Establish moves c, whose Mu is held, into phase, the engine's
// established state, and records that the handshake completed. A
// passive conversation is then handed to the listener that spawned it;
// false means the listener is gone or its backlog is full — exactly
// when the engine must refuse the call.
func (t *Table[C]) Establish(c C, phase int) bool {
	cv := c.conv()
	cv.Phase, cv.established = phase, true
	cv.Cond.Broadcast()
	l := cv.listener
	if l == nil {
		return true
	}
	cv.listener = nil
	cv.Ring.Emit(obs.EvAccept, 0, 0)
	return l.accepted.TrySend(c)
}

// Remove takes c out of the table, whether conversation or listener.
func (t *Table[C]) Remove(c C) {
	cv := c.conv()
	t.mu.Lock()
	defer t.mu.Unlock()
	if x, ok := t.conns[cv.key()]; ok && x.conv() == cv {
		delete(t.conns, cv.key())
	}
	if x, ok := t.listeners[cv.Lport]; ok && x.conv() == cv {
		delete(t.listeners, cv.Lport)
	}
}

// Close tears the whole engine down at machine shutdown: packets still
// queued for the transmitter are freed, every conversation dies
// immediately — no close exchange, the machine is going away — and
// every listener stops accepting, so timers and blocked readers,
// writers, and accepts all wake and exit.
func (t *Table[C]) Close() {
	t.tx.Close()
	t.mu.Lock()
	all := make([]C, 0, len(t.conns)+len(t.listeners))
	for _, c := range t.conns {
		all = append(all, c)
	}
	for _, l := range t.listeners {
		all = append(all, l)
	}
	t.conns = make(map[key]C)
	t.listeners = make(map[uint16]C)
	t.mu.Unlock()
	for _, c := range all {
		cv := c.conv()
		cv.Mu.Lock()
		cv.UnannounceLocked()
		cv.DieLocked(vfs.ErrHungup)
		cv.Mu.Unlock()
	}
}

// ephemeralLocked picks the next free local port above base, skipping
// live listeners and conversations and wrapping back to base.
func (t *Table[C]) ephemeralLocked() uint16 {
	for {
		t.next++
		if t.next < t.base {
			t.next = t.base
		}
		if _, taken := t.listeners[t.next]; taken {
			continue
		}
		free := true
		for k := range t.conns {
			if k.lport == t.next {
				free = false
				break
			}
		}
		if free {
			return t.next
		}
	}
}

// issLocked draws an initial sequence number. It is kept to 24 bits:
// the engines compare sequence numbers without wraparound, so a run
// must never carry one past 2^32.
func (t *Table[C]) issLocked() uint32 { return t.rng.Uint32() & 0xffffff }

// Transmitter is an engine's output kernel process: one long-lived
// goroutine with a warm stack walks every packet down the IP stack,
// instead of a fresh goroutine per packet growing its stack through
// the ether path every time.
type Transmitter struct {
	stack *ip.Stack
	proto uint8
	sent  *atomic.Int64
	q     *vclock.Mailbox[txPkt]

	// Drops counts packets refused by a full ring; the engine's
	// stats file renders it as tx-drops.
	Drops atomic.Int64
}

// txPkt is one packet queued for the transmitter.
type txPkt struct {
	src, dst ip.Addr
	pkt      *block.Block
}

// NewTransmitter starts the transmitter for IP protocol proto on
// stack. sent counts the packets it hands down.
func NewTransmitter(stack *ip.Stack, proto uint8, sent *atomic.Int64) *Transmitter {
	ck := stack.Clock()
	// 256 packets hold several full TCP windows (64 KiB of ~1.4 KiB
	// segments) or IL windows (20 messages) at once.
	t := &Transmitter{stack: stack, proto: proto, sent: sent, q: vclock.NewMailbox[txPkt](ck, 256)}
	ck.Go(t.run)
	return t
}

// run owns every queued packet and walks it down the stack. It exits
// at Close.
func (t *Transmitter) run() {
	for {
		p, ok := t.q.Recv()
		if !ok {
			return
		}
		t.sent.Add(1)
		t.stack.SendBlock(t.proto, p.src, p.dst, p.pkt)
	}
}

// Send hands pkt to the transmitter without blocking, so engines call
// it under conversation locks even when the stack below would stall
// (ARP may queue). A full ring drops the packet, which retransmission
// treats as wire loss.
//
//netvet:owns pkt
func (t *Transmitter) Send(src, dst ip.Addr, pkt *block.Block) {
	if !t.q.TrySend(txPkt{src: src, dst: dst, pkt: pkt}) {
		t.Drops.Add(1)
		pkt.Free()
	}
}

// MSS is the largest payload that fits one packet to dst under a
// hdrLen-byte transport header.
func (t *Transmitter) MSS(dst ip.Addr, hdrLen int) int {
	if n := t.stack.MTUFor(dst) - hdrLen; n > 0 {
		return n
	}
	return 512
}

// Close stops the transmitter at engine teardown; packets still queued
// go back to the pool.
func (t *Transmitter) Close() {
	for _, p := range t.q.CloseDrain() {
		p.pkt.Free()
	}
}

// RTT is a conversation's adaptive round-trip timer (§3): "a round-trip
// timer calculates acknowledge and retransmission times in terms of
// the network speed". One packet is timed at a time; its sample feeds
// Jacobson's smoothed mean and mean deviation.
type RTT struct {
	srtt, mdev time.Duration
	timing     bool
	timedSeq   uint32 // an ack at or beyond it covers the timed packet
	timedAt    time.Time
}

// Time starts timing the packet that an ack of seq or beyond
// acknowledges, unless a packet is already being timed.
func (r *RTT) Time(seq uint32, now time.Time) {
	if !r.timing {
		r.timing, r.timedSeq, r.timedAt = true, seq, now
	}
}

// Ack takes a sample, recorded in h, if ack covers the timed packet.
// The first sample seeds srtt = rtt and mdev = rtt/2; later ones move
// srtt by 1/8 and mdev by 1/4 of the error.
func (r *RTT) Ack(ack uint32, now time.Time, h *obs.Hist) {
	if !r.timing || ack < r.timedSeq {
		return
	}
	r.timing = false
	rtt := now.Sub(r.timedAt)
	h.Observe(rtt)
	if r.srtt == 0 {
		r.srtt, r.mdev = rtt, rtt/2
		return
	}
	diff := rtt - r.srtt
	r.srtt += diff / 8
	if diff < 0 {
		diff = -diff
	}
	r.mdev += (diff - r.mdev) / 4
}

// Retransmitted applies Karn's rule: the ack of a retransmitted packet
// cannot say which copy it answers, so the sample in flight is dropped.
func (r *RTT) Retransmitted() { r.timing = false }

// Smoothed is the smoothed round-trip estimate, zero before a sample.
func (r *RTT) Smoothed() time.Duration { return r.srtt }

// RTO is the retransmission timeout: srtt + 4·mdev clamped to the
// protocol's [lo, hi], or initial (its handshake retry interval) while
// no sample has been taken. A nonzero fixed bypasses adaptation
// altogether (the adaptive-timeout ablation).
func (r *RTT) RTO(lo, hi, initial, fixed time.Duration) time.Duration {
	if fixed > 0 {
		return fixed
	}
	if r.srtt == 0 {
		return initial
	}
	rto := r.srtt + 4*r.mdev
	if rto < lo {
		rto = lo
	}
	if rto > hi {
		rto = hi
	}
	return rto
}
