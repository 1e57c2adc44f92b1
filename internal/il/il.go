// Package il implements the IL protocol of §3: "a lightweight protocol
// designed to be encapsulated by IP ... a connection-based protocol
// providing reliable transmission of sequenced messages between
// machines."
//
// Faithful properties:
//
//   - Reliable datagram service with sequenced delivery: message
//     boundaries written by the sender are preserved for the reader,
//     which is what lets 9P ride IL with no marshaling layer.
//   - Runs over IP (protocol number 40).
//   - No flow control beyond a small outstanding-message window
//     (§3: "A small outstanding message window prevents too many
//     incoming messages from being buffered; messages outside the
//     window are discarded and must be retransmitted").
//   - Connection setup is a two-way handshake generating initial
//     sequence numbers at each end; data messages increment them so
//     the receiver can resequence out-of-order messages.
//   - No blind retransmission: on timeout the sender transmits a
//     query carrying its current sequence numbers; the peer answers
//     with a state message and the missing messages are retransmitted.
//     (A BlindRetransmit knob exists solely for the ablation benchmark
//     that shows why the paper avoided it.)
//   - Adaptive timeouts: a round-trip timer calculates acknowledge and
//     retransmission times in terms of the network speed, so the
//     protocol performs well on both local Ethernets and slow paths.
//
// One substitution: real IL relied on IP fragmentation for messages
// larger than the medium MTU. This stack does not fragment IP, so IL
// itself splits large messages into MTU-sized packets and marks the
// final packet with an end-of-message bit in the spec byte; the
// receiver reassembles. Delimiter semantics are identical.
package il

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/rexmit"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// HdrLen is the IL header: sum[2] len[2] type[1] spec[1] src[2] dst[2]
// id[4] ack[4].
const HdrLen = 18

// Message types.
const (
	msgSync = iota
	msgData
	msgAck
	msgQuery
	msgState
	msgClose
)

// specEOM marks the final packet of a message (delimiter).
const specEOM = 0x01

// Window is the small outstanding-message window.
const Window = 20

// Connection states, numbered after the phases the transport core
// shares.
const (
	Closed    = rexmit.Closed
	Listening = rexmit.Listening
	Syncer    = iota
	Syncee
	Established
	Closing
)

var stateNames = []string{"Closed", "Listening", "Syncer", "Syncee", "Established", "Closing"}

// Timer constants.
const (
	tickInterval = 5 * time.Millisecond
	minRTO       = 10 * time.Millisecond
	maxRTO       = 2 * time.Second
	// deathTime is how long a connection retries before giving up.
	deathTime = 30 * time.Second
	// synRetry is the sync retransmit interval before RTT is known.
	synRetry = 100 * time.Millisecond
)

// Config adjusts protocol behavior for experiments.
type Config struct {
	// BlindRetransmit disables the query mechanism: timeouts
	// immediately retransmit every unacknowledged message, the
	// behavior the paper's design argues against.
	BlindRetransmit bool
	// FixedRTO, if nonzero, disables adaptive timeouts and uses this
	// retransmission timer unconditionally (the adaptive-timeout
	// ablation).
	FixedRTO time.Duration
	// DeathTime overrides how long a connection retries before
	// giving up (default 30s, as in the kernel); tests of partition
	// behavior shorten it.
	DeathTime time.Duration
	// Window overrides the outstanding-message window (default
	// Window = 20) for the window-size ablation.
	Window uint32
}

func (c Config) window() uint32 {
	if c.Window > 0 {
		return c.Window
	}
	return Window
}

func (c Config) deathTime() time.Duration {
	if c.DeathTime > 0 {
		return c.DeathTime
	}
	return deathTime
}

// Proto is a machine's IL protocol device.
type Proto struct {
	stack *ip.Stack
	ck    vclock.Clock
	cfg   Config
	tab   *rexmit.Table[*Conn]
	tx    *rexmit.Transmitter

	// Counters for the ablation experiments and status files.
	Retransmits  atomic.Int64
	QueriesSent  atomic.Int64
	QueriesRcvd  atomic.Int64
	DupsReceived atomic.Int64
	OutOfWindow  atomic.Int64
	MsgsSent     atomic.Int64
	MsgsRcvd     atomic.Int64
	ChecksumErrs atomic.Int64

	// RTTHist collects every round-trip sample the adaptive timer
	// takes (§3); /net/il/stats renders it as a log2 histogram.
	RTTHist obs.Hist
	stats   *obs.Group
}

var _ xport.Proto = (*Proto)(nil)

// New creates the IL device on a stack and registers its demux.
func New(stack *ip.Stack, cfg Config) *Proto {
	p := &Proto{
		stack: stack,
		ck:    stack.Clock(),
		cfg:   cfg,
	}
	p.tx = rexmit.NewTransmitter(stack, ip.ProtoIL, &p.MsgsSent)
	p.tab = rexmit.NewTable(p.tx, 2000, func() *Conn { return &Conn{proto: p} })
	p.stats = new(obs.Group).
		AddAtomic("msgs-sent", &p.MsgsSent).
		AddAtomic("msgs-rcvd", &p.MsgsRcvd).
		AddAtomic("retransmits", &p.Retransmits).
		AddAtomic("queries-sent", &p.QueriesSent).
		AddAtomic("queries-rcvd", &p.QueriesRcvd).
		AddAtomic("dups-rcvd", &p.DupsReceived).
		AddAtomic("out-of-window", &p.OutOfWindow).
		AddAtomic("checksum-errs", &p.ChecksumErrs).
		AddAtomic("tx-drops", &p.tx.Drops).
		AddHist("rtt", &p.RTTHist)
	stack.Register(ip.ProtoIL, p.recv)
	return p
}

// StatsGroup exposes the engine counters; the netdev tree renders it
// into /net/il/stats after the per-conversation lines.
func (p *Proto) StatsGroup() *obs.Group { return p.stats }

// Clock exposes the stack clock so line disciplines pushed on IL
// conversations time their flush windows in the same (possibly
// virtual) time domain as the protocol engine.
func (p *Proto) Clock() vclock.Clock { return p.ck }

// Name implements xport.Proto.
func (p *Proto) Name() string { return "il" }

// Close tears the whole engine down at machine shutdown.
func (p *Proto) Close() { p.tab.Close() }

// NewConn implements xport.Proto.
func (p *Proto) NewConn() (xport.Conn, error) { return p.tab.New(), nil }

// header is the unmarshaled IL header.
type header struct {
	typ  byte
	spec byte
	src  uint16
	dst  uint16
	id   uint32
	ack  uint32
}

// fillHeader writes the IL header and whole-packet checksum over p,
// whose tail beyond HdrLen must already hold the payload.
func fillHeader(p []byte, h header) {
	n := len(p)
	// The checksum field must be zero while summing: recycled pool
	// buffers arrive with stale contents, unlike a fresh make.
	p[0] = 0
	p[1] = 0
	p[2] = byte(n >> 8)
	p[3] = byte(n)
	p[4] = h.typ
	p[5] = h.spec
	p[6] = byte(h.src >> 8)
	p[7] = byte(h.src)
	p[8] = byte(h.dst >> 8)
	p[9] = byte(h.dst)
	p[10] = byte(h.id >> 24)
	p[11] = byte(h.id >> 16)
	p[12] = byte(h.id >> 8)
	p[13] = byte(h.id)
	p[14] = byte(h.ack >> 24)
	p[15] = byte(h.ack >> 16)
	p[16] = byte(h.ack >> 8)
	p[17] = byte(h.ack)
	ck := ip.Checksum(p)
	p[0] = byte(ck >> 8)
	p[1] = byte(ck)
}

// marshal is marshalBlock for a caller that keeps plain bytes.
func marshal(h header, data []byte) []byte { return marshalBlock(h, data).Detach() }

// marshalBlock builds the packet in a pooled block with headroom for
// the IP and Ethernet headers below, so no lower layer copies or
// reallocates.
func marshalBlock(h header, data []byte) *block.Block {
	b := block.Alloc(HdrLen+len(data), block.DefaultHeadroom)
	p := b.Bytes()
	copy(p[HdrLen:], data)
	fillHeader(p, h)
	return b
}

func unmarshal(p []byte) (header, []byte, bool) {
	var h header
	if len(p) < HdrLen {
		return h, nil, false
	}
	if ip.Checksum(p) != 0 {
		return h, nil, false
	}
	n := int(p[2])<<8 | int(p[3])
	if n < HdrLen || n > len(p) {
		return h, nil, false
	}
	h.typ = p[4]
	h.spec = p[5]
	h.src = uint16(p[6])<<8 | uint16(p[7])
	h.dst = uint16(p[8])<<8 | uint16(p[9])
	h.id = uint32(p[10])<<24 | uint32(p[11])<<16 | uint32(p[12])<<8 | uint32(p[13])
	h.ack = uint32(p[14])<<24 | uint32(p[15])<<16 | uint32(p[16])<<8 | uint32(p[17])
	return h, p[HdrLen:n], true
}

// recv demultiplexes an incoming IL packet.
func (p *Proto) recv(src, dst ip.Addr, payload []byte) {
	h, data, ok := unmarshal(payload)
	if !ok {
		// The whole-packet checksum failed (or the packet was
		// malformed): corruption that slipped past every lower-layer
		// CRC ends here, detected, never delivered (§3).
		p.ChecksumErrs.Add(1)
		return
	}
	p.MsgsRcvd.Add(1)
	c, ok := p.tab.Demux(src, h.src, h.dst, h.typ == msgSync, func(c *Conn) {
		// The passive (Syncee) end of an incoming sync.
		c.Phase = Syncee
		c.sndNext = c.ISS + 1
		c.sndUna = c.ISS + 1
		c.rcvNext = h.id + 1
		p.ck.Go(c.timer)
	})
	if !ok {
		// A close for a vanished connection needs no answer; data
		// gets a close so the peer learns quickly.
		if h.typ != msgClose {
			reply := marshalBlock(header{typ: msgClose, src: h.dst, dst: h.src}, nil)
			p.tx.Send(dst, src, reply)
		}
		return
	}
	c.input(h, data, src, dst)
}

// msg is one sequenced packet: sent but not yet acknowledged, or
// received out of order and waiting for its predecessors.
type msg struct {
	id   uint32
	spec byte
	data []byte
	sent time.Time
}

// Conn is an IL conversation. Its Phase follows the IL state machine;
// ISS is the id of its sync.
type Conn struct {
	rexmit.Conv
	proto *Proto

	// Sender state.
	sndNext uint32 // next id to assign
	sndUna  uint32 // lowest unacknowledged id
	unacked []msg

	// Receiver state.
	rcvNext    uint32         // next expected id
	ooo        map[uint32]msg // out-of-order within window (data)
	reassembly []byte         // partial message being assembled

	// Adaptive round-trip timing (§3).
	rtt          rexmit.RTT
	lastProgress time.Time

	closeSeen bool   // peer close received
	closeID   uint32 // its sequence position

	closed bool
}

var _ xport.Conn = (*Conn)(nil)

// Connect implements xport.Conn: the active open (Syncer).
func (c *Conn) Connect(addr string) error {
	return c.proto.tab.Connect(c, addr, func() {
		c.sndNext = c.ISS + 1
		c.sndUna = c.ISS + 1
		c.Phase = Syncer
		c.lastProgress = c.proto.ck.Now()
		c.proto.ck.Go(c.timer)
		c.sendLocked(msgSync, 0, c.ISS, nil)
	})
}

// Announce implements xport.Conn; "*" announces every service not
// explicitly announced (§5.2).
func (c *Conn) Announce(addr string) error { return c.proto.tab.Announce(c, addr) }

// send transmits a control or data packet with current ack state.
func (c *Conn) sendLocked(typ, spec byte, id uint32, data []byte) {
	h := header{typ: typ, spec: spec, src: c.Lport, dst: c.Rport,
		id: id, ack: c.rcvNext - 1}
	if typ == msgSync && c.Phase == Syncer {
		h.ack = 0 // the peer's first id is not known yet
	}
	// One copy of the payload into a pooled block with headroom; every
	// layer below prepends into it in place.
	pkt := marshalBlock(h, data)
	// The transmitter queue never blocks, so holding c.Mu here is
	// safe even when the stack below would stall (ARP may queue).
	c.proto.tx.Send(c.Laddr, c.Raddr, pkt)
}

// Write implements xport.Conn: one reliable sequenced message per
// write, fragmented to the path MTU with the final fragment delimited.
func (c *Conn) Write(p []byte) (int, error) {
	c.Mu.Lock()
	if c.Phase != Established && c.Phase != Syncee {
		err := c.ErrOr(xport.ErrNotConnected)
		c.Mu.Unlock()
		return 0, err
	}
	mtu := c.proto.tx.MSS(c.Raddr, HdrLen)
	total := 0
	for {
		n := len(p) - total
		if n > mtu {
			n = mtu
		}
		// The small outstanding-message window (§3): block while
		// full rather than buffering more.
		for c.sndNext-c.sndUna >= c.proto.cfg.window() && c.Phase != Closed && c.Phase != Closing {
			c.Cond.Wait()
		}
		if c.Phase == Closed || c.Phase == Closing {
			err := c.ErrOr(streams.ErrHungup)
			c.Mu.Unlock()
			return total, err
		}
		var spec byte
		if total+n == len(p) {
			spec = specEOM
		}
		id := c.sndNext
		c.sndNext++
		// The retransmit copy lives in a pooled buffer, released
		// when the ack drops it from the window.
		data := block.GetBytes(n)
		copy(data, p[total:total+n])
		m := msg{id: id, spec: spec, data: data, sent: c.proto.ck.Now()}
		c.rtt.Time(id, m.sent)
		c.unacked = append(c.unacked, m)
		c.sendLocked(msgData, spec, id, data)
		c.Ring.Emit(obs.EvSend, int64(id), int64(n))
		total += n
		if total == len(p) {
			c.Mu.Unlock()
			return total, nil
		}
	}
}

// input processes one received packet.
func (c *Conn) input(h header, data []byte, src, dst ip.Addr) {
	c.Mu.Lock()
	if c.closed {
		c.Mu.Unlock()
		return
	}
	c.lastProgress = c.proto.ck.Now()
	switch h.typ {
	case msgSync:
		switch c.Phase {
		case Syncer:
			if h.ack == c.ISS {
				c.rcvNext = h.id + 1
				c.proto.tab.Establish(c, Established)
				c.sendLocked(msgAck, 0, c.sndNext-1, nil)
			}
		case Syncee:
			// Duplicate sync: re-answer with our sync (the peer
			// is still in Syncer and needs it).
			c.sendLocked(msgSync, 0, c.ISS, nil)
		case Established:
			// The peer missed our final ack: a plain ack
			// settles it without risking a sync ping-pong.
			c.sendLocked(msgAck, 0, c.sndNext-1, nil)
		}
	case msgAck:
		c.ackLocked(h.ack)
		if c.Phase == Syncee && h.ack >= c.ISS {
			c.establishSynceeLocked()
		}
	case msgData:
		if c.Phase == Syncee {
			c.establishSynceeLocked()
		}
		c.dataLocked(h, data)
	case msgQuery:
		c.proto.QueriesRcvd.Add(1)
		c.ackLocked(h.ack)
		c.sendLocked(msgState, 0, c.sndNext-1, nil)
	case msgState:
		c.ackLocked(h.ack)
		// The peer lacks everything past h.ack: retransmit it
		// ("the receiver responds to a query by retransmitting
		// missing messages").
		c.retransmitLocked()
	case msgClose:
		// Closes are sequenced like data: the hangup is delivered
		// only after every earlier message has been consumed, so a
		// close can never cause queued data to be lost.
		c.ackLocked(h.ack)
		c.closeSeen = true
		c.closeID = h.id
		c.maybeCloseLocked()
	}
	c.Mu.Unlock()
}

// maybeCloseLocked completes a peer-initiated close once all data
// preceding it has arrived.
func (c *Conn) maybeCloseLocked() {
	if !c.closeSeen {
		return
	}
	if c.Phase == Established || c.Phase == Syncee {
		// Wait for in-sequence delivery of everything before the
		// close point.
		if c.rcvNext < c.closeID {
			return
		}
	}
	if c.Phase != Closing && c.Phase != Closed {
		c.sendLocked(msgClose, 0, c.sndNext-1, nil)
	}
	c.DieLocked(nil)
}

func (c *Conn) establishSynceeLocked() {
	if !c.proto.tab.Establish(c, Established) {
		// Listener gone or accept queue overflow: refuse.
		c.sendLocked(msgClose, 0, c.sndNext-1, nil)
		c.Phase = Closed
	}
}

// ackLocked processes a cumulative acknowledgement.
func (c *Conn) ackLocked(ack uint32) {
	if ack < c.sndUna {
		return
	}
	c.Ring.Emit(obs.EvAck, int64(ack), 0)
	// Round-trip timing on the timed message (§3 adaptive timeouts).
	c.rtt.Ack(ack, c.proto.ck.Now(), &c.proto.RTTHist)
	i := 0
	for i < len(c.unacked) && c.unacked[i].id <= ack {
		i++
	}
	if i > 0 {
		// Release the acked retransmit copies and compact the
		// window in place — no per-ack reallocation.
		for j := 0; j < i; j++ {
			block.PutBytes(c.unacked[j].data)
		}
		n := copy(c.unacked, c.unacked[i:])
		for j := n; j < len(c.unacked); j++ {
			c.unacked[j] = msg{}
		}
		c.unacked = c.unacked[:n]
	}
	c.sndUna = ack + 1
	if c.sndUna > c.sndNext {
		c.sndNext = c.sndUna
	}
	c.Cond.Broadcast()
}

// dataLocked handles a data packet: in-order delivery, out-of-order
// buffering within the window, duplicate re-ack.
func (c *Conn) dataLocked(h header, data []byte) {
	c.ackLocked(h.ack)
	switch {
	case h.id == c.rcvNext:
		c.Ring.Emit(obs.EvRecv, int64(h.id), int64(len(data)))
		c.acceptLocked(h.spec, data)
		// Drain any buffered successors.
		for {
			m, ok := c.ooo[c.rcvNext]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNext)
			c.acceptLocked(m.spec, m.data)
		}
		c.sendLocked(msgAck, 0, c.sndNext-1, nil)
		c.maybeCloseLocked()
	case h.id < c.rcvNext:
		// Duplicate: re-acknowledge so the sender advances.
		c.proto.DupsReceived.Add(1)
		c.Ring.Emit(obs.EvDup, int64(h.id), 0)
		c.sendLocked(msgAck, 0, c.sndNext-1, nil)
	case h.id < c.rcvNext+c.proto.cfg.window():
		if c.ooo == nil {
			c.ooo = make(map[uint32]msg)
		}
		if _, dup := c.ooo[h.id]; dup {
			c.proto.DupsReceived.Add(1)
			c.Ring.Emit(obs.EvDup, int64(h.id), 0)
		}
		c.ooo[h.id] = msg{id: h.id, spec: h.spec, data: append([]byte(nil), data...)}
	default:
		// Outside the window: "messages outside the window are
		// discarded and must be retransmitted" (§3).
		c.proto.OutOfWindow.Add(1)
		c.Ring.Emit(obs.EvOutOfOrder, int64(h.id), 0)
	}
}

// acceptLocked consumes one in-order packet, reassembling fragmented
// messages and delivering complete ones (delimited) upstream.
func (c *Conn) acceptLocked(spec byte, data []byte) {
	c.rcvNext++
	if len(c.reassembly) == 0 && spec&specEOM != 0 {
		// Whole message in one packet (the common case): one copy of
		// the borrowed receive bytes into a pooled block, delivered
		// without re-materializing.
		c.Rstream.DeviceUpOwned(block.Copy(data, 0))
		return
	}
	c.reassembly = append(c.reassembly, data...)
	if spec&specEOM != 0 {
		// Hand up a pooled copy and keep the scratch for the next
		// message: the reassembly buffer grows to the message size
		// once per conversation instead of once per message.
		c.Rstream.DeviceUpOwned(block.Copy(c.reassembly, 0))
		c.reassembly = c.reassembly[:0]
	}
}

// retransmitLocked resends every unacknowledged message.
func (c *Conn) retransmitLocked() {
	for i := range c.unacked {
		m := &c.unacked[i]
		m.sent = c.proto.ck.Now()
		c.proto.Retransmits.Add(1)
		c.Ring.Emit(obs.EvRetransmit, int64(m.id), 0)
		c.sendLocked(msgData, m.spec, m.id, m.data)
	}
	// Retransmitted messages cannot be timed (Karn's rule).
	c.rtt.Retransmitted()
}

// timer is the connection's helper kernel process: sync retries,
// query-or-blind retransmission, and the death timer.
func (c *Conn) timer() {
	ck := c.proto.ck
	for {
		ck.Sleep(tickInterval)
		c.Mu.Lock()
		if c.closed || c.Phase == Closed {
			c.Mu.Unlock()
			return
		}
		now := ck.Now()
		switch c.Phase {
		case Syncer, Syncee:
			if now.Sub(c.lastProgress) > c.proto.cfg.deathTime() {
				c.DieLocked(vfs.ErrTimedOut)
				c.Mu.Unlock()
				return
			}
			c.sendLocked(msgSync, 0, c.ISS, nil) // retransmit the handshake
			c.Mu.Unlock()
			ck.Sleep(synRetry - tickInterval)
			continue
		case Established, Closing:
			if len(c.unacked) > 0 {
				oldest := c.unacked[0].sent
				if now.Sub(oldest) > c.rtt.RTO(minRTO, maxRTO, synRetry, c.proto.cfg.FixedRTO) {
					if now.Sub(c.lastProgress) > c.proto.cfg.deathTime() {
						c.DieLocked(vfs.ErrTimedOut)
						c.Mu.Unlock()
						return
					}
					if c.proto.cfg.BlindRetransmit {
						c.retransmitLocked()
					} else {
						// §3: send a query instead of
						// retransmitting blindly. The query
						// itself may be lost; requery after
						// another RTO.
						c.proto.QueriesSent.Add(1)
						c.Ring.Emit(obs.EvQuery, 0, 0)
						c.sendLocked(msgQuery, 0, c.sndNext-1, nil)
					}
					// Push the timeout forward so we do not
					// spam queries every tick.
					for i := range c.unacked {
						c.unacked[i].sent = now
					}
				}
			}
			if c.Phase == Closing && len(c.unacked) == 0 {
				c.sendLocked(msgClose, 0, c.sndNext-1, nil)
			}
		}
		c.Mu.Unlock()
	}
}

// Status implements xport.Conn: the ASCII state line, with the timer
// and window detail of the kernel's status files.
func (c *Conn) Status() string {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return fmt.Sprintf("%s rtt %d ms unacked %d window %d",
		stateNames[c.Phase], c.rtt.Smoothed().Milliseconds(), len(c.unacked), c.proto.cfg.window())
}

// State returns the symbolic connection state (for tests).
func (c *Conn) State() string { return c.PhaseName(stateNames) }

// RTT returns the smoothed round-trip estimate.
func (c *Conn) RTT() time.Duration {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.rtt.Smoothed()
}

// Close implements xport.Conn.
func (c *Conn) Close() error {
	c.Mu.Lock()
	if c.closed {
		c.Mu.Unlock()
		return nil
	}
	c.closed = true
	switch c.Phase {
	case Established, Syncee, Syncer:
		c.Phase = Closing
		// The close consumes a sequence number so the peer can
		// order it after all in-flight data.
		id := c.sndNext
		c.sndNext++
		c.sendLocked(msgClose, 0, id, nil)
	case Listening:
		c.UnannounceLocked()
	default:
		c.Phase = Closed
	}
	st := c.Phase
	c.Cond.Broadcast()
	c.Mu.Unlock()
	if st == Closed {
		c.proto.tab.Remove(c)
	}
	c.Rstream.HangupUp()
	// Give the close exchange a moment in the background, then die.
	// The conversation stays in the demux table until then so late
	// packets (our peer's acks) land here quietly instead of
	// provoking stray "unknown conversation" closes.
	c.proto.ck.AfterFunc(200*time.Millisecond, func() {
		c.Mu.Lock()
		c.Phase = Closed
		c.Cond.Broadcast()
		c.Mu.Unlock()
		c.proto.tab.Remove(c)
		c.Rstream.Close()
	})
	return nil
}
