// Package datakit simulates Fraser's Datakit (§1, §2.3): a
// virtual-circuit network whose stations carry hierarchical names like
// "nj/astro/helix" and whose calls name a destination and service
// ("nj/astro/helix!9fs"). Circuit setup goes through the switch; data
// then flows over the circuit under URP, giving the reliable delimited
// transport that Plan 9 ran 9P over between Datakit machines.
//
// The medium profile applies per circuit leg, so the cell-oriented
// slowness of real Datakit (and hence the URP/Datakit row of Table 1)
// is reproduced by configuring a low bandwidth and small MTU.
package datakit

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/medium"
	"repro/internal/obs"
	"repro/internal/urp"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// Errors.
var (
	ErrNoHost    = errors.New("datakit: no such host")
	ErrNoService = vfs.ErrConnRef
	ErrNameTaken = errors.New("datakit: host name taken")
)

// Switch is the Datakit switch: the name-to-station directory plus
// circuit setup.
type Switch struct {
	profile medium.Profile

	mu    sync.Mutex
	hosts map[string]*Host
}

// NewSwitch creates a switch whose circuits have the given profile.
func NewSwitch(p medium.Profile) *Switch {
	return &Switch{profile: p, hosts: make(map[string]*Host)}
}

// NewHost attaches a station under a hierarchical name.
func (sw *Switch) NewHost(name string) (*Host, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, taken := sw.hosts[name]; taken {
		return nil, ErrNameTaken
	}
	h := &Host{sw: sw, name: name, listeners: make(map[string]*vclock.Mailbox[*incomingCall])}
	sw.hosts[name] = h
	return h, nil
}

// Close tears the switch down.
func (sw *Switch) Close() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.hosts = make(map[string]*Host)
}

// dial sets up a circuit from caller to the named host and service.
func (sw *Switch) dial(caller *Host, dest, service string) (*medium.Duplex, error) {
	sw.mu.Lock()
	h := sw.hosts[dest]
	sw.mu.Unlock()
	if h == nil {
		return nil, ErrNoHost
	}
	a, b := medium.NewDuplex(sw.profile)
	call := &incomingCall{wire: b, remote: caller.name, service: service}
	// The enqueue happens under the host lock so a concurrent
	// listener close (which also holds it) cannot race the send.
	h.mu.Lock()
	ch := h.listeners[service]
	if ch == nil {
		// The announce-all listener takes services not explicitly
		// announced (§5.2).
		ch = h.listeners["*"]
	}
	delivered := false
	if ch != nil {
		// TrySend refuses on a full backlog (or a closed listener).
		delivered = ch.TrySend(call)
	}
	h.mu.Unlock()
	if !delivered {
		a.Close()
		b.Close()
		return nil, ErrNoService
	}
	return a, nil
}

// Host is one station on the switch.
type Host struct {
	sw   *Switch
	name string

	mu        sync.Mutex
	listeners map[string]*vclock.Mailbox[*incomingCall]
}

// Name returns the station's Datakit name.
func (h *Host) Name() string { return h.name }

type incomingCall struct {
	wire    *medium.Duplex
	remote  string
	service string
}

// crcTable drives the CRC-16/CCITT the Datakit hardware framed cells
// with. crcTab8 extends it to slicing-by-8: crcTab8[k][v] is the CRC
// of byte v followed by k zero bytes, so eight input bytes fold into
// the register with eight independent table lookups instead of eight
// serially dependent ones — the byte-at-a-time loop's carry chain was
// the single hottest path under the URP throughput benchmarks.
var (
	crcTable [256]uint16
	crcTab8  [8][256]uint16
)

func init() {
	for i := range crcTable {
		crc := uint16(i) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		crcTable[i] = crc
	}
	crcTab8[0] = crcTable
	for k := 1; k < 8; k++ {
		for v := range crcTab8[k] {
			c := crcTab8[k-1][v]
			crcTab8[k][v] = c<<8 ^ crcTable[byte(c>>8)]
		}
	}
}

func crc16(p []byte) uint16 {
	var crc uint16
	for len(p) >= 8 {
		crc = crcTab8[7][p[0]^byte(crc>>8)] ^
			crcTab8[6][p[1]^byte(crc)] ^
			crcTab8[5][p[2]] ^
			crcTab8[4][p[3]] ^
			crcTab8[3][p[4]] ^
			crcTab8[2][p[5]] ^
			crcTab8[1][p[6]] ^
			crcTab8[0][p[7]]
		p = p[8:]
	}
	for _, b := range p {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// fcsLen is the per-cell frame check sequence the hardware appends.
const fcsLen = 2

// duplexWire adapts a medium.Duplex to urp.Wire, modeling the Datakit
// hardware framing: every cell carries a CRC-16 FCS. A cell damaged
// in flight fails the check and is discarded as if lost — URP never
// sees corrupt data (its cells carry no checksum of their own; the
// real hardware made the same promise), and it recovers the gap with
// its REJ/ENQ machinery.
type duplexWire struct {
	d    *medium.Duplex
	errs *atomic.Int64
}

// SendCell frames the cell in place: URP hands over a pool-backed cell
// with capacity slack, so appending the FCS reuses the same buffer and
// the framed cell goes to the medium with no wire copy.
func (w duplexWire) SendCell(p []byte) error {
	fcs := crc16(p)
	cell := append(p, byte(fcs>>8), byte(fcs))
	return w.d.SendOwned(cell)
}

func (w duplexWire) RecvCell() ([]byte, error) {
	for {
		cell, err := w.d.Recv()
		if err != nil {
			return nil, err
		}
		n := len(cell) - fcsLen
		if n < 0 || crc16(cell[:n]) != uint16(cell[n])<<8|uint16(cell[n+1]) {
			if w.errs != nil {
				w.errs.Add(1)
			}
			continue
		}
		return cell[:n], nil
	}
}

func (w duplexWire) Close() error {
	w.d.Close()
	return nil
}

// Proto is the protocol device ("dk") for a host.
type Proto struct {
	host  *Host
	Stats urp.Stats
	// FCSErrs counts cells the hardware discarded as damaged.
	FCSErrs atomic.Int64

	stats *obs.Group
}

var _ xport.Proto = (*Proto)(nil)

// NewProto wraps a host as an xport protocol.
func NewProto(h *Host) *Proto {
	p := &Proto{host: h}
	p.stats = new(obs.Group).
		AddAtomic("blocks", &p.Stats.Blocks).
		AddAtomic("retransmits", &p.Stats.Retransmits).
		AddAtomic("rejects", &p.Stats.Rejects).
		AddAtomic("enquiries", &p.Stats.Enquiries).
		AddAtomic("fcs-errs", &p.FCSErrs)
	return p
}

// StatsGroup exposes the URP engine counters; the netdev tree renders
// it into /net/dk/stats after the per-conversation lines.
func (p *Proto) StatsGroup() *obs.Group { return p.stats }

// Clock exposes the switch's medium clock so line disciplines pushed
// on Datakit conversations time their flush windows in the same
// (possibly virtual) time domain as the circuits underneath.
func (p *Proto) Clock() vclock.Clock { return vclock.Or(p.host.sw.profile.Clock) }

// Name implements xport.Proto.
func (p *Proto) Name() string { return "dk" }

// NewConn implements xport.Proto.
func (p *Proto) NewConn() (xport.Conn, error) {
	return &Conn{proto: p}, nil
}

// Conn is a Datakit conversation: a URP engine over a circuit.
type Conn struct {
	proto *Proto

	mu       sync.Mutex
	urp      *urp.Conn
	wire     *medium.Duplex
	local    string
	remote   string
	service  string
	listenCh *vclock.Mailbox[*incomingCall]
	state    string
}

// WireCounts reports the circuit medium's impairment ground truth —
// what the wire actually did to the cells — for reconciling the stats
// files against it. ok is false before the circuit exists.
func (c *Conn) WireCounts() (counts medium.Counts, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wire == nil {
		return medium.Counts{}, false
	}
	return c.wire.ImpairCounts(), true
}

var _ xport.Conn = (*Conn)(nil)
var _ obs.Tracer = (*Conn)(nil)

// Trace implements obs.Tracer by delegating to the URP engine's ring;
// before the circuit exists (no connect or accept yet) it is nil and
// the trace file reads empty.
func (c *Conn) Trace() *obs.Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp == nil {
		return nil
	}
	return c.urp.Trace()
}

// Connect implements xport.Conn: addr is "nj/astro/helix!9fs".
func (c *Conn) Connect(addr string) error {
	dest, service, ok := strings.Cut(addr, "!")
	if !ok || dest == "" || service == "" {
		return xport.ErrBadAddress
	}
	// Dial without holding c.mu: dial takes Host.mu, and the lock
	// hierarchy is host before conversation (Announce holds Host.mu
	// while taking c.mu), so holding c.mu across the dial would
	// invert it.
	c.mu.Lock()
	if c.urp != nil || c.listenCh != nil {
		c.mu.Unlock()
		return xport.ErrConnected
	}
	c.mu.Unlock()
	wire, err := c.proto.host.sw.dial(c.proto.host, dest, service)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp != nil || c.listenCh != nil {
		// Lost the race to a concurrent Connect or Announce: tear the
		// fresh circuit down, the remote listener sees a hangup.
		wire.Close()
		return xport.ErrConnected
	}
	c.urp = urp.New(duplexWire{wire, &c.proto.FCSErrs}, &c.proto.Stats, wire.Clock())
	c.wire = wire
	c.local = c.proto.host.name
	c.remote = addr
	c.service = service
	c.state = "Established"
	return nil
}

// Announce implements xport.Conn: addr is a service name, optionally
// "*!service".
func (c *Conn) Announce(addr string) error {
	service := addr
	if _, s, ok := strings.Cut(addr, "!"); ok {
		service = s
	}
	if service == "" {
		return xport.ErrBadAddress
	}
	h := c.proto.host
	h.mu.Lock()
	defer h.mu.Unlock()
	//netvet:ignore lock-across-send fixed hierarchy: host before conversation, never reversed
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp != nil || c.listenCh != nil {
		return xport.ErrConnected
	}
	if _, taken := h.listeners[service]; taken {
		return xport.ErrInUse
	}
	ch := vclock.NewMailbox[*incomingCall](h.sw.profile.Clock, 8)
	h.listeners[service] = ch
	c.listenCh = ch
	c.service = service
	c.local = h.name + "!" + service
	c.state = "Announced"
	return nil
}

// Listen implements xport.Conn.
func (c *Conn) Listen() (xport.Conn, error) {
	c.mu.Lock()
	ch := c.listenCh
	c.mu.Unlock()
	if ch == nil {
		return nil, xport.ErrNotAnnounced
	}
	call, ok := ch.Recv()
	if !ok {
		return nil, vfs.ErrHungup
	}
	nc := &Conn{
		proto:   c.proto,
		urp:     urp.New(duplexWire{call.wire, &c.proto.FCSErrs}, &c.proto.Stats, call.wire.Clock()),
		wire:    call.wire,
		local:   c.proto.host.name + "!" + call.service,
		remote:  call.remote,
		service: call.service,
		state:   "Established",
	}
	return nc, nil
}

// Read implements xport.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	u := c.urp
	c.mu.Unlock()
	if u == nil {
		return 0, xport.ErrNotConnected
	}
	return u.Read(p)
}

// Write implements xport.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	u := c.urp
	c.mu.Unlock()
	if u == nil {
		return 0, xport.ErrNotConnected
	}
	return u.Write(p)
}

// LocalAddr implements xport.Conn.
func (c *Conn) LocalAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local
}

// RemoteAddr implements xport.Conn.
func (c *Conn) RemoteAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// Status implements xport.Conn.
func (c *Conn) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.urp != nil && c.urp.Dead() {
		return "Hungup"
	}
	if c.state == "" {
		return "Closed"
	}
	return c.state
}

// Close implements xport.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	u := c.urp
	ch := c.listenCh
	service := c.service
	c.urp = nil
	c.listenCh = nil
	c.state = "Closed"
	c.mu.Unlock()
	if ch != nil {
		h := c.proto.host
		h.mu.Lock()
		if h.listeners[service] == ch {
			delete(h.listeners, service)
		}
		ch.Close() // under h.mu: no dial can be mid-send
		h.mu.Unlock()
	}
	if u != nil {
		return u.Close()
	}
	return nil
}
