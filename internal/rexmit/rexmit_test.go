package rexmit

import (
	"io"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/leakcheck"
	"repro/internal/medium"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// TestMain gates the package behind the goroutine-leak check: every
// transmitter and waiter the tests start must be gone at the end.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// Each protocol's timer bounds, as il and tcp pass them.
var protocols = []struct {
	name            string
	lo, hi, initial time.Duration
	base            uint16 // where ephemeral ports start
}{
	{"il", 10 * time.Millisecond, 2 * time.Second, 100 * time.Millisecond, 2000},
	{"tcp", 20 * time.Millisecond, 2 * time.Second, 200 * time.Millisecond, 5000},
}

func TestRTTEstimator(t *testing.T) {
	ms := time.Millisecond
	type sample struct {
		rtt           time.Duration
		retransmitted bool // Karn's rule: the ack is ambiguous
	}
	cases := []struct {
		name       string
		samples    []sample
		srtt, mdev time.Duration
		taken      int64
	}{
		{"no sample", nil, 0, 0, 0},
		{"first sample seeds srtt=rtt, mdev=rtt/2", []sample{{rtt: 80 * ms}}, 80 * ms, 40 * ms, 1},
		// srtt += (160-80)/8 = 10; mdev += (80-40)/4 = 10.
		{"gains 1/8 and 1/4 on a slower sample", []sample{{rtt: 80 * ms}, {rtt: 160 * ms}}, 90 * ms, 50 * ms, 2},
		// srtt += (40-80)/8 = -5; mdev += (40-40)/4 = 0: the error's
		// magnitude feeds mdev whatever its sign.
		{"gains on a faster sample", []sample{{rtt: 80 * ms}, {rtt: 40 * ms}}, 75 * ms, 40 * ms, 2},
		{"retransmission abandons the sample", []sample{{rtt: 80 * ms, retransmitted: true}}, 0, 0, 0},
		{"Karn after a good sample", []sample{{rtt: 80 * ms}, {rtt: 500 * ms, retransmitted: true}}, 80 * ms, 40 * ms, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r RTT
			var h obs.Hist
			now := time.Unix(1000, 0)
			for i, s := range tc.samples {
				seq := uint32(10 * (i + 1))
				r.Time(seq, now)
				r.Time(seq+5, now.Add(ms)) // already timing: ignored
				if s.retransmitted {
					r.Retransmitted()
				}
				now = now.Add(s.rtt)
				r.Ack(seq-1, now, &h) // short of the timed packet
				r.Ack(seq, now, &h)
			}
			if r.Smoothed() != tc.srtt || r.mdev != tc.mdev {
				t.Errorf("srtt %v mdev %v, want %v %v", r.Smoothed(), r.mdev, tc.srtt, tc.mdev)
			}
			if n := h.SnapshotHist().Count; n != tc.taken {
				t.Errorf("%d samples recorded, want %d", n, tc.taken)
			}
		})
	}
}

func TestRTOClampAndFixed(t *testing.T) {
	ms := time.Millisecond
	for _, p := range protocols {
		cases := []struct {
			name       string
			srtt, mdev time.Duration
			fixed      time.Duration
			want       time.Duration
		}{
			{"before any sample", 0, 0, 0, p.initial},
			{"srtt + 4·mdev", 100 * ms, 25 * ms, 0, 200 * ms},
			{"clamped to min", ms, 0, 0, p.lo},
			{"clamped to max", 3 * time.Second, time.Second, 0, p.hi},
			{"fixed bypasses adaptation", 100 * ms, 25 * ms, 7 * ms, 7 * ms},
			{"fixed before any sample", 0, 0, 7 * ms, 7 * ms},
		}
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				r := RTT{srtt: tc.srtt, mdev: tc.mdev}
				if got := r.RTO(p.lo, p.hi, p.initial, tc.fixed); got != tc.want {
					t.Errorf("RTO = %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// conv is a minimal engine conversation: the core supplies everything
// but the protocol.
type conv struct{ Conv }

func (c *conv) Connect(string) error        { return nil }
func (c *conv) Announce(string) error       { return nil }
func (c *conv) Write(p []byte) (int, error) { return len(p), nil }
func (c *conv) Status() string              { return "" }
func (c *conv) Close() error                { return nil }

var (
	local  = ip.Addr{135, 104, 9, 1}
	remote = ip.Addr{135, 104, 9, 2}
)

// newTable builds a table for an engine with ephemeral base on a
// stack bound to an ideal ether on ck, so Connect can pick a local
// address; closeAll tears all three down.
func newTable(ck vclock.Clock, base uint16) (tab *Table[*conv], closeAll func(), err error) {
	seg := ether.NewSegment("e0", medium.Profile{Clock: ck})
	st := ip.NewStack(ck)
	if _, err := st.Bind(seg.NewInterface("ether0"), local, ip.Addr{255, 255, 255, 0}); err != nil {
		st.Close()
		seg.Close()
		return nil, nil, err
	}
	tab = NewTable(NewTransmitter(st, ip.ProtoIL, new(atomic.Int64)), base, func() *conv { return new(conv) })
	return tab, func() { tab.Close(); st.Close(); seg.Close() }, nil
}

// table is newTable on the real clock, torn down with the test.
func table(t *testing.T, base uint16) *Table[*conv] {
	t.Helper()
	tab, closeAll, err := newTable(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeAll)
	return tab
}

func announce(t *testing.T, tab *Table[*conv], addr string) *conv {
	t.Helper()
	l := tab.New()
	if err := tab.Announce(l, addr); err != nil {
		t.Fatalf("announce %q: %v", addr, err)
	}
	return l
}

func TestEphemeralPorts(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			tab := table(t, p.base)
			lock := func() uint16 {
				tab.mu.Lock()
				defer tab.mu.Unlock()
				return tab.ephemeralLocked()
			}
			if got := lock(); got != p.base+1 {
				t.Errorf("first ephemeral port %d, want %d", got, p.base+1)
			}
			// A live listener and a live conversation hold the next
			// two ports; allocation steps over both.
			announce(t, tab, strconv.Itoa(int(p.base)+2))
			announce(t, tab, "*")
			if _, ok := tab.Demux(remote, 77, p.base+3, true, func(*conv) {}); !ok {
				t.Fatal("call to the announce-all listener not taken")
			}
			if got := lock(); got != p.base+4 {
				t.Errorf("ephemeral port %d, want %d past the listener and conversation", got, p.base+4)
			}
			// The counter wraps from the top of the port space back
			// to the protocol's base, never below it.
			tab.next = 65534
			if got := lock(); got != 65535 {
				t.Errorf("port %d, want 65535", got)
			}
			if got := lock(); got != p.base {
				t.Errorf("port after wrap %d, want base %d", got, p.base)
			}
		})
	}
}

func TestDemuxPortZeroFallback(t *testing.T) {
	tab := table(t, 2000)
	spawn := func(lport uint16, opens bool) (*conv, bool) {
		return tab.Demux(remote, 4000+lport, lport, opens, func(c *conv) { c.Phase = 2 })
	}
	if _, ok := spawn(564, true); ok {
		t.Fatal("call taken with no listener at all")
	}
	svc := announce(t, tab, "564")
	all := announce(t, tab, "*!*")
	cases := []struct {
		name     string
		lport    uint16
		opens    bool
		listener *conv
	}{
		{"announced port", 564, true, svc},
		{"unannounced port falls back to port 0", 17008, true, all},
		{"packet that opens nothing", 999, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ok := spawn(tc.lport, tc.opens)
			if tc.listener == nil {
				if ok {
					t.Fatal("non-opening packet spawned a conversation")
				}
				return
			}
			if !ok || c.listener != &tc.listener.Conv || c.Phase != 2 {
				t.Fatalf("spawned %+v, ok %v", c, ok)
			}
			if got := c.LocalAddr(); got != ip.HostPort(ip.Addr{}, tc.lport) {
				t.Errorf("local %s", got)
			}
			if got := c.RemoteAddr(); got != ip.HostPort(remote, 4000+tc.lport) {
				t.Errorf("remote %s", got)
			}
			// The table now finds it without a listener's help.
			if again, ok := spawn(tc.lport, false); !ok || again != c {
				t.Errorf("second lookup %p, %v; want %p", again, ok, c)
			}
			// Establishing hands it to its listener exactly once.
			c.Mu.Lock()
			handed := tab.Establish(c, 3)
			c.Mu.Unlock()
			if !handed {
				t.Fatal("handoff refused")
			}
			if nc, err := tc.listener.Listen(); err != nil || nc != xport.Conn(c) {
				t.Errorf("listen returned %v, %v", nc, err)
			}
			tab.Remove(c)
			if _, ok := spawn(tc.lport, false); ok {
				t.Error("removed conversation still in the table")
			}
		})
	}
	// A listener that stops accepting refuses the handoff.
	c, _ := spawn(564, true)
	svc.Mu.Lock()
	svc.UnannounceLocked()
	svc.Mu.Unlock()
	c.Mu.Lock()
	handed := tab.Establish(c, 3)
	c.Mu.Unlock()
	if handed {
		t.Error("closed listener accepted a call")
	}
}

func TestAnnounceAndConnectErrors(t *testing.T) {
	tab := table(t, 2000)
	announce(t, tab, "564")
	for _, tc := range []struct {
		addr string
		want error
	}{
		{"banana", xport.ErrBadAddress},
		{"0", xport.ErrBadAddress},
		{"564", xport.ErrInUse},
	} {
		if err := tab.Announce(tab.New(), tc.addr); err != tc.want {
			t.Errorf("Announce(%q) = %v, want %v", tc.addr, err, tc.want)
		}
	}
	busy := tab.New()
	busy.Phase = 2
	if err := tab.Announce(busy, "565"); err != xport.ErrConnected {
		t.Errorf("announce on a busy conversation = %v", err)
	}
	if err := tab.Connect(busy, ip.HostPort(remote, 564), func() {}); err != xport.ErrConnected {
		t.Errorf("connect on a busy conversation = %v", err)
	}
	for _, bad := range []string{"", "1.2.3.4!0", "*!564", "x!y"} {
		if err := tab.Connect(tab.New(), bad, func() {}); err != xport.ErrBadAddress {
			t.Errorf("Connect(%q) = %v", bad, err)
		}
	}
	if err := tab.Connect(tab.New(), "10.9.9.9!564", func() {}); err == nil {
		t.Error("connect with no route succeeded")
	}
	if _, err := tab.New().Listen(); err != xport.ErrNotAnnounced {
		t.Errorf("listen unannounced = %v", err)
	}
}

// TestConnectOutcome drives the active open through the three ways a
// handshake ends: established (even if the peer closes before the
// caller wakes), refused, and dead.
func TestConnectOutcome(t *testing.T) {
	cases := []struct {
		name   string
		finish func(tab *Table[*conv], c *conv) // runs under c.Mu
		want   error
	}{
		{"established then closed at once", func(tab *Table[*conv], c *conv) {
			tab.Establish(c, 3)
			c.DieLocked(nil)
		}, nil},
		{"refused without an error", func(tab *Table[*conv], c *conv) { c.DieLocked(nil) }, vfs.ErrConnRef},
		{"timed out", func(tab *Table[*conv], c *conv) { c.DieLocked(vfs.ErrTimedOut) }, vfs.ErrTimedOut},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := table(t, 5000)
			c := tab.New()
			opened := make(chan struct{})
			go func() {
				<-opened
				c.Mu.Lock()
				tc.finish(tab, c)
				c.Mu.Unlock()
			}()
			err := tab.Connect(c, ip.HostPort(remote, 564), func() {
				if c.Lport != 5001 || c.ISS >= 1<<24 {
					t.Errorf("bound to port %d with ISS %#x", c.Lport, c.ISS)
				}
				c.Phase = 2
				close(opened)
			})
			if err != tc.want {
				t.Errorf("Connect = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCloseWakesEverything tears the table down under blocked
// listeners, a blocked reader, and a connecting caller: each must
// return, and every conversation must be dead with ErrHungup. On the
// virtual clock every waiter has parked before the root goes on.
func TestCloseWakesEverything(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		tab, closeAll, err := newTable(v, 2000)
		if err != nil {
			t.Error(err)
			return
		}
		defer closeAll()
		l, all, dialer := tab.New(), tab.New(), tab.New()
		if tab.Announce(l, "564") != nil || tab.Announce(all, "*") != nil {
			t.Error("announce failed")
			return
		}
		c, _ := tab.Demux(remote, 99, 564, true, func(*conv) {})
		type wake struct {
			who string
			err error
		}
		woken := vclock.NewMailbox[wake](v, 4)
		for who, x := range map[string]*conv{"listener": l, "announce-all": all} {
			v.Go(func() { _, err := x.Listen(); woken.Send(wake{who, err}) })
		}
		v.Go(func() { _, err := c.Read(make([]byte, 8)); woken.Send(wake{"reader", err}) })
		v.Go(func() {
			err := tab.Connect(dialer, ip.HostPort(remote, 7), func() { dialer.Phase = 2 })
			woken.Send(wake{"dialer", err})
		})
		v.Sleep(time.Millisecond)
		tab.Close()
		want := map[string]error{
			"listener":     streams.ErrClosed,
			"announce-all": streams.ErrClosed,
			"reader":       io.EOF,
			"dialer":       vfs.ErrHungup,
		}
		for range want {
			w, _ := woken.Recv()
			if w.err != want[w.who] {
				t.Errorf("%s woke with %v, want %v", w.who, w.err, want[w.who])
			}
		}
		for _, x := range []*conv{l, all, c, dialer} {
			if x.Phase != Closed || x.Err != vfs.ErrHungup {
				t.Errorf("after close: phase %d err %v", x.Phase, x.Err)
			}
			if x.Trace() != &x.Ring {
				t.Error("trace ring not the conversation's own")
			}
		}
		if got := l.PhaseName([]string{"Closed", "Listening"}); got != "Closed" {
			t.Errorf("listener phase %q", got)
		}
	})
}

// TestTransmitterRing fills the transmitter's ring on the virtual clock,
// where the transmitter cannot run until the sender parks: what does
// not fit is counted as dropped, the rest leaves in order.
func TestTransmitterRing(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		st := ip.NewStack(v)
		defer st.Close()
		var sent atomic.Int64
		tx := NewTransmitter(st, ip.ProtoTCP, &sent)
		for range 300 {
			tx.Send(local, remote, block.Alloc(8, block.DefaultHeadroom))
		}
		if d := tx.Drops.Load(); d != 300-256 {
			t.Errorf("drops %d, want %d", d, 300-256)
		}
		v.Sleep(time.Millisecond)
		if n := sent.Load(); n != 256 {
			t.Errorf("sent %d, want 256", n)
		}
		for range 3 {
			tx.Send(local, remote, block.Alloc(8, block.DefaultHeadroom))
		}
		tx.Close() // the three still queued go back to the pool
		if mss := tx.MSS(remote, 18); mss != 1500-ip.HdrLen-18 {
			t.Errorf("MSS without a route %d", mss)
		}
		if mss := tx.MSS(remote, 4000); mss != 512 {
			t.Errorf("MSS under an oversized header %d", mss)
		}
	})
}
