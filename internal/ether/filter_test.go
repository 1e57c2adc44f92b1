package ether

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/vclock"
)

// The address filter: a frame reaches only the stations that accept
// its destination — their own address, broadcast, or anything while
// promiscuous. These tests run on every delivery path, and report with
// t.Error: t.Fatal from a virtual-clock machine goroutine would hang
// the scheduler.

// onSegment runs body against a fresh segment with profile p, inside
// the scheduler when p's clock is virtual.
func onSegment(p medium.Profile, body func(seg *Segment)) {
	run := func(f func()) { f() }
	if v, ok := p.Clock.(*vclock.Virtual); ok {
		run = v.Run
	}
	run(func() {
		seg := NewSegment("ether0", p)
		defer seg.Close()
		body(seg)
	})
}

// eventually polls cond on the segment's clock for up to two
// (real or simulated) seconds.
func eventually(seg *Segment, cond func() bool) bool {
	for range 2000 {
		if cond() {
			return true
		}
		seg.Clock().Sleep(time.Millisecond)
	}
	return cond()
}

// station attaches an interface with one type -1 conversation.
func station(t *testing.T, seg *Segment) (*Interface, *Conn) {
	t.Helper()
	ifc := seg.NewInterface("ether0")
	c, err := ifc.OpenConn()
	if err != nil {
		t.Error(err)
		return ifc, nil
	}
	c.SetType(TypeAll)
	c.SetDeliver(func([]byte) {})
	return ifc, c
}

// seen is every frame the station's filter let onto its input ring.
func seen(ifc *Interface) int64 { return ifc.inPackets.Load() + ifc.crcErrs.Load() }

// onWire reports whether the impairer has ruled on all sent frames,
// so that the emitted count is final.
func onWire(seg *Segment, sent int64) bool {
	return seg.im == nil || seg.ImpairCounts().Sent == sent
}

// emitted is how many copies of sent frames the wire put out.
func emitted(seg *Segment, sent int64) int64 {
	if seg.im == nil {
		return sent
	}
	return seg.ImpairCounts().Emitted
}

func TestAddressFilter(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    medium.Profile
	}{
		{"ideal", medium.Profile{}},
		{"paced-virtual", medium.Profile{Bandwidth: 10_000_000 / 8, Latency: 200 * time.Microsecond, Clock: vclock.NewVirtual()}},
		{"impaired", medium.Profile{Loss: 0.1, Seed: 7, Impair: medium.Impairment{Duplicate: 0.3, Corrupt: 0.3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onSegment(tc.p, func(seg *Segment) {
				a, tx := station(t, seg)
				b, rx := station(t, seg)
				c, by := station(t, seg)
				if tx == nil || rx == nil || by == nil {
					return
				}
				defer tx.Close()
				defer rx.Close()
				defer by.Close()

				// Unicast a→b: the bystander c never sees a frame,
				// so it can neither count one nor overflow on one.
				const frames = 64
				for i := range frames {
					if err := tx.Transmit(b.Addr(), []byte{byte(i), 0xaa, 0x55}); err != nil {
						t.Error(err)
						return
					}
				}
				var sent int64 = frames
				if !eventually(seg, func() bool { return onWire(seg, sent) && seen(b) == emitted(seg, sent) }) {
					t.Errorf("addressee saw %d of %d emitted frames", seen(b), emitted(seg, sent))
					return
				}
				unicast := emitted(seg, sent)
				if seg.im != nil && b.CRCErrs() == 0 {
					t.Error("impairment corrupted no frame: the FCS path went untested")
				}
				if n, o, e := c.inPackets.Load(), c.overflows.Load(), c.CRCErrs(); n != 0 || o != 0 || e != 0 {
					t.Errorf("bystander in %d, overflows %d, crc-errs %d; want all 0", n, o, e)
				}
				if got := a.inPackets.Load() + a.CRCErrs(); got != 0 {
					t.Errorf("sender received %d of its own frames", got)
				}

				// Broadcast reaches every station but the sender,
				// damaged copies included.
				for range 8 {
					if err := tx.Transmit(Broadcast, []byte("all")); err != nil {
						t.Error(err)
						return
					}
				}
				sent += 8
				if !eventually(seg, func() bool {
					total := emitted(seg, sent)
					return onWire(seg, sent) && total > unicast && seen(b) == total && seen(c) == total-unicast
				}) {
					t.Errorf("broadcast: addressee saw %d, bystander %d, wire emitted %d (%d before)",
						seen(b), seen(c), emitted(seg, sent), unicast)
				}
				for _, ifc := range []*Interface{a, b, c} {
					if o := ifc.overflows.Load(); o != 0 {
						t.Errorf("%s overflowed %d times", ifc.Addr(), o)
					}
				}
			})
		})
	}
}

// TestPromiscuousBystander checks that a promiscuous conversation opens
// its interface's filter to every frame, and that turning the mode off
// or closing the conversation shuts it again, however often the mode
// was set.
func TestPromiscuousBystander(t *testing.T) {
	seg := newSeg(t, medium.Profile{})
	_, tx := station(t, seg)
	b, rx := station(t, seg)
	c, cc := station(t, seg)
	defer tx.Close()
	defer rx.Close()
	defer cc.Close()

	// Every unicast to b is chased by a broadcast marker. c takes
	// frames in order, so once it has seen the n-th marker its
	// counters are final for everything sent before.
	var marks, snooped atomic.Int64
	cc.SetDeliver(func(frame []byte) {
		if Addr(frame[:6]) == Broadcast {
			marks.Add(1)
		}
	})
	snoop, err := c.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	snoop.SetType(TypeAll)
	snoop.SetDeliver(func(frame []byte) {
		if Addr(frame[:6]) == b.Addr() {
			snooped.Add(1)
		}
	})

	sent := int64(0)
	send := func() {
		t.Helper()
		if err := tx.Transmit(b.Addr(), []byte("for b")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Transmit(Broadcast, []byte("marker")); err != nil {
			t.Fatal(err)
		}
		sent++
		waitFor(t, "marker at the bystander", func() bool { return marks.Load() == sent })
	}
	expect := func(what string, unicasts, prom int64) {
		t.Helper()
		if got := c.inPackets.Load(); got != sent+unicasts {
			t.Errorf("%s: bystander in %d, want %d markers + %d unicasts", what, got, sent, unicasts)
		}
		if got := snooped.Load(); got != unicasts {
			t.Errorf("%s: snooper saw %d frames for b, want %d", what, got, unicasts)
		}
		if got := int64(c.prom.Load()); got != prom {
			t.Errorf("%s: promiscuous count %d, want %d", what, got, prom)
		}
	}

	send()
	expect("filter closed", 0, 0)

	snoop.SetPromiscuous(true)
	snoop.SetPromiscuous(true)
	send()
	expect("promiscuous (set twice)", 1, 1)

	snoop.SetPromiscuous(false)
	send()
	expect("promiscuous off", 1, 0)

	snoop.SetPromiscuous(true)
	send()
	expect("promiscuous again", 2, 1)
	snoop.SetPromiscuous(true)
	snoop.Close()
	send()
	expect("closed while promiscuous", 2, 0)

	// The slot comes back clean: reopening it does not inherit the mode.
	again, err := c.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	send()
	expect("slot reopened", 2, 0)
}

// TestVirtualReadParksOnSegmentClock: a machine goroutine that blocks
// in Conn.Read before its peer transmits must park on the segment's
// clock. A conversation stream waiting on the real clock would keep
// the virtual scheduler's token, so simulated time — and with it the
// frame the reader waits for — would never advance.
func TestVirtualReadParksOnSegmentClock(t *testing.T) {
	v := vclock.NewVirtual()
	done := make(chan struct{})
	go func() {
		defer close(done)
		onSegment(medium.Profile{Latency: 200 * time.Microsecond, Clock: v}, func(seg *Segment) {
			i1, i2 := seg.NewInterface("ether0"), seg.NewInterface("ether0")
			tx, _ := i1.OpenConn()
			defer tx.Close()
			rx, _ := i2.OpenConn()
			defer rx.Close()
			tx.SetType(0x800)
			rx.SetType(0x800)
			got := vclock.NewMailbox[string](v, 1)
			v.Go(func() {
				buf := make([]byte, 2048)
				n, err := rx.Read(buf)
				if err != nil || n < HdrLen {
					t.Errorf("read: n=%d err=%v", n, err)
					got.Close()
					return
				}
				got.Send(string(buf[HdrLen:n]))
			})
			v.Sleep(time.Millisecond) // the reader parks first
			if err := tx.Transmit(i2.Addr(), []byte("late frame")); err != nil {
				t.Error(err)
				return
			}
			if msg, ok := got.Recv(); ok && msg != "late frame" {
				t.Errorf("read %q", msg)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation wedged: the read did not park on the segment's clock")
	}
}
