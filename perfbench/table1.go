package main

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cyclone"
	"repro/internal/dialer"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/table1"
	"repro/internal/vclock"
)

// t1Path is one Table 1 row as the benchmark drives it: how many
// individually timed 1-byte echoes and how many sink bytes (in 16 KiB
// writes) one round moves over it.
type t1Path struct {
	key   string // metric prefix
	name  string // table1.Path name
	pings int
	sink  int
}

var t1Paths = []t1Path{
	{"il", "IL/ether", 200, 128 << 10},
	{"urp", "URP/Datakit", 40, 64 << 10},
	{"cyclone", "Cyclone", 40, 256 << 10},
	{"tcp", "TCP/ether", 40, 128 << 10},
	{"pipe", "pipes", 200, 1 << 20},
}

// t1WriteSize is the paper's 16k throughput write.
const t1WriteSize = 16 << 10

// t1Stats is what one path moved in the timed phase.
type t1Stats struct {
	rtt       samples
	sinkBytes int64
	sinkTime  time.Duration
	writes    int64
}

// runTable1 is the paper's own evaluation on its calibrated media and
// the real clock: one closed-loop client, path by path.
func runTable1(seed int64, budget time.Duration, tr *tracer, floor bool) (*report, error) {
	r := &report{}
	var setup []time.Duration
	var w *core.World
	var paths map[string]table1.Path
	for i := 0; i < setups; i++ {
		t0 := hostClock.Now()
		nw, np, err := table1World()
		if err != nil {
			return nil, fmt.Errorf("table1 set-up: %w", err)
		}
		setup = append(setup, hostClock.Since(t0))
		if w != nil {
			w.Close()
		}
		w, paths = nw, np
	}
	defer w.Close()

	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 1<<20)
	rng.Read(payload)
	musca, helix, gnot := w.Machine("musca"), w.Machine("helix"), w.Machine("philw-gnot")
	before, rttBefore := t1Snap(musca, helix, gnot)
	stats := make(map[string]*t1Stats)
	for _, p := range t1Paths {
		stats[p.key] = &t1Stats{}
	}
	var rounds []round
	var ilFrames, ilEchoes int64
	m := startMeter()
	for len(rounds) == 0 || hostClock.Since(m.wall) < budget {
		rt := startRound()
		for _, p := range t1Paths {
			st := stats[p.key]
			var f0 int64
			if p.key == "il" {
				f0 = etherOut(musca) + etherOut(helix)
			}
			n := t1Echo(r, tr, paths[p.name], p, rng, st)
			if p.key == "il" {
				ilFrames += etherOut(musca) + etherOut(helix) - f0
				ilEchoes += int64(n)
			}
			t1Sink(r, tr, paths[p.name], p, payload, st)
		}
		rounds = append(rounds, rt.stop())
	}
	d := m.stop()
	after, rttAfter := t1Snap(musca, helix, gnot)

	il, urp, cyc, tcp, pipe := stats["il"], stats["urp"], stats["cyclone"], stats["tcp"], stats["pipe"]
	var ops int64
	for _, st := range stats {
		ops += int64(len(st.rtt)) + st.writes
	}
	r.commonE2E(setup, rounds, il.rtt, mbs(il.sinkBytes, il.sinkTime))
	r.runtimeMetrics(d, ops)
	r.add("il_rtt_p50_ms", "ms", ms(il.rtt.pct(0.5)), len(il.rtt))
	r.add("il_rtt_p99_ms", "ms", ms(il.rtt.pct(0.99)), len(il.rtt))
	r.add("urp_rtt_p50_ms", "ms", ms(urp.rtt.pct(0.5)), len(urp.rtt))
	r.add("cyclone_rtt_p50_ms", "ms", ms(cyc.rtt.pct(0.5)), len(cyc.rtt))
	r.add("il_mbs", "MB/s", mbs(il.sinkBytes, il.sinkTime), int(il.writes))
	r.add("urp_mbs", "MB/s", mbs(urp.sinkBytes, urp.sinkTime), int(urp.writes))
	r.add("cyclone.mbs", "MB/s", mbs(cyc.sinkBytes, cyc.sinkTime), int(cyc.writes))
	r.add("tcp.rtt_p50_ms", "ms", ms(tcp.rtt.pct(0.5)), len(tcp.rtt))
	r.add("tcp.mbs", "MB/s", mbs(tcp.sinkBytes, tcp.sinkTime), int(tcp.writes))
	r.add("streams.pipe_rtt_p50_us", "us", us(pipe.rtt.pct(0.5)), len(pipe.rtt))
	r.add("streams.pipe_mbs", "MB/s", mbs(pipe.sinkBytes, pipe.sinkTime), int(pipe.writes))

	dl := func(k string) float64 { return float64(after[k] - before[k]) }
	r.add("ether.frames_per_op", "count", ratio(float64(ilFrames), float64(ilEchoes)), int(ilEchoes))
	r.add("ether.overflows", "count", dl("ether.overflows"), 0)
	r.add("datakit.blocks_per_kb", "count", ratio(dl("dk.blocks"), float64(urp.sinkBytes)/1024), 0)
	r.add("datakit.fcs_errs", "count", dl("dk.fcs-errs"), 0)
	r.add("urp.retransmits_per_kblock", "count", 1000*ratio(dl("dk.retransmits"), dl("dk.blocks")), 0)
	r.add("urp.rejects", "count", dl("dk.rejects"), 0)
	r.add("urp.enquiries", "count", dl("dk.enquiries"), 0)
	r.add("tcp.retransmits_per_kseg", "count", 1000*ratio(dl("tcp.retransmits"), dl("tcp.segs-sent")), 0)
	ilOps := float64(int64(len(il.rtt)) + il.writes)
	r.add("il.msgs_per_op", "count", ratio(dl("il.msgs-sent"), ilOps), int(ilOps))
	r.add("il.retransmits_per_kmsg", "count", 1000*ratio(dl("il.retransmits"), dl("il.msgs-sent")), 0)
	r.add("il.queries_per_kmsg", "count", 1000*ratio(dl("il.queries-sent"), dl("il.msgs-sent")), 0)
	ilRTT := histDelta(rttAfter, rttBefore)
	r.add("il.rtt_p50_us", "us", us(histQuantile(ilRTT, 0.5)), int(ilRTT.Count))

	if floor {
		if err := t1FloorMetrics(r, payload, stats); err != nil {
			return nil, err
		}
	}
	r.selfMetrics(tr)
	return r, nil
}

// table1World boots table1.BuildWorld on the calibrated media, adds
// the TCP/ether row beside its four, and warms every path with one
// echo (ARP, handshakes).
func table1World() (*core.World, map[string]table1.Path, error) {
	w, ps, err := table1.BuildWorld(table1.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	paths := make(map[string]table1.Path)
	for _, p := range ps {
		paths[p.Name] = p
	}
	musca := w.Machine("musca")
	paths["TCP/ether"] = table1.Path{
		Name: "TCP/ether",
		DialEcho: func() (io.ReadWriteCloser, error) {
			return dialer.Dial(musca.NS, "tcp!helix!echo")
		},
		DialSink: func(n int) (io.ReadWriteCloser, error) {
			return dialSink(musca.NS, "tcp!helix!bench", n)
		},
	}
	for _, p := range t1Paths {
		path, ok := paths[p.name]
		if !ok {
			w.Close()
			return nil, nil, fmt.Errorf("no path %q", p.name)
		}
		c, err := path.DialEcho()
		if err == nil {
			err = echoOnce(c, 'w')
			c.Close()
		}
		if err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("warm %s: %w", p.name, err)
		}
	}
	return w, paths, nil
}

// dialSink speaks table1's sink protocol: the byte count on one line,
// then the payload; the peer answers one byte once it has read it all.
func dialSink(nsp *ns.Namespace, dest string, n int) (io.ReadWriteCloser, error) {
	c, err := dialer.Dial(nsp, dest)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write([]byte(strconv.Itoa(n) + "\n")); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// echoOnce sends one byte and checks it comes back.
func echoOnce(c io.ReadWriter, b byte) error {
	buf := []byte{b}
	if _, err := c.Write(buf); err != nil {
		return err
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		return err
	}
	if buf[0] != b {
		return fmt.Errorf("echo %#x came back %#x", b, buf[0])
	}
	return nil
}

// t1Echo times p.pings seeded 1-byte round trips on a fresh echo
// connection and returns how many it timed.
func t1Echo(r *report, tr *tracer, path table1.Path, p t1Path, rng *rand.Rand, st *t1Stats) int {
	r.Attempted += int64(p.pings)
	c, err := path.DialEcho()
	if err != nil {
		r.Failed += int64(p.pings) - 1
		r.fail("%s echo dial: %v", p.name, err)
		return 0
	}
	defer c.Close()
	if err := echoOnce(c, 0); err != nil {
		r.Failed += int64(p.pings) - 1
		r.fail("%s echo warm: %v", p.name, err)
		return 0
	}
	out, buf := []byte{0}, []byte{0}
	n := 0
	step := "echo " + p.key
	for i := 0; i < p.pings; i++ {
		b := byte(rng.Intn(256))
		out[0] = b
		s := tr.op("bench", step)
		t0 := hostClock.Now()
		w := s.child("transport", "write")
		_, err := c.Write(out)
		w.end()
		if err == nil {
			rd := s.child("transport", "read")
			_, err = io.ReadFull(c, buf)
			rd.end()
		}
		d := hostClock.Since(t0)
		s.end()
		switch {
		case err != nil:
			r.Failed += int64(p.pings - i - 1)
			r.fail("%s echo: %v", p.name, err)
			return n
		case buf[0] != b:
			r.fail("%s echo: sent %#x, got %#x", p.name, b, buf[0])
		default:
			st.rtt = append(st.rtt, d)
			n++
		}
	}
	return n
}

// t1Sink times p.sink payload bytes in 16 KiB writes to the sink,
// through its one-byte acknowledgement.
func t1Sink(r *report, tr *tracer, path table1.Path, p t1Path, payload []byte, st *t1Stats) {
	r.Attempted++
	s := tr.op("bench", "sink "+p.key)
	defer s.end()
	ds := s.child("dialer", "dial")
	c, err := path.DialSink(p.sink)
	ds.end()
	if err != nil {
		r.fail("%s sink dial: %v", p.name, err)
		return
	}
	defer c.Close()
	t0 := hostClock.Now()
	var writes int64
	for off := 0; off < p.sink; off += t1WriteSize {
		w := s.child("transport", "write")
		_, err := c.Write(payload[off : off+t1WriteSize])
		w.end()
		if err != nil {
			r.fail("%s sink write: %v", p.name, err)
			return
		}
		writes++
	}
	ack := []byte{0}
	rd := s.child("transport", "read")
	_, err = io.ReadFull(c, ack)
	rd.end()
	d := hostClock.Since(t0)
	if err != nil || ack[0] != 1 {
		r.fail("%s sink ack %v: %v", p.name, ack, err)
		return
	}
	st.sinkBytes += int64(p.sink)
	st.sinkTime += d
	st.writes += writes
}

// etherOut is the frames a machine's ether0 interface has sent.
func etherOut(m *core.Machine) int64 {
	s, _ := statsFile(m.NS, "/net/ether0/1/stats")
	return s["out"]
}

// t1Snap reads the per-layer counters Table 1 moves: ether, IL and
// TCP on musca and helix, Datakit/URP on the gnot and helix, and
// musca's IL round-trip histogram.
func t1Snap(musca, helix, gnot *core.Machine) (map[string]int64, obs.HistSnap) {
	out := make(map[string]int64)
	var rtt obs.HistSnap
	for _, m := range []*core.Machine{musca, helix} {
		e, _ := statsFile(m.NS, "/net/ether0/1/stats")
		out["ether.overflows"] += e["overflows"]
		il, text := statsFile(m.NS, "/net/il/stats")
		for _, k := range []string{"msgs-sent", "retransmits", "queries-sent"} {
			out["il."+k] += il[k]
		}
		if m == musca {
			rtt = obs.ParseHistSnap(text, "rtt")
		}
		tcp, _ := statsFile(m.NS, "/net/tcp/stats")
		for _, k := range []string{"segs-sent", "retransmits"} {
			out["tcp."+k] += tcp[k]
		}
	}
	for _, m := range []*core.Machine{gnot, helix} {
		dk, _ := statsFile(m.NS, "/net/dk/stats")
		for _, k := range []string{"blocks", "retransmits", "rejects", "enquiries", "fcs-errs"} {
			out["dk."+k] += dk[k]
		}
	}
	return out, rtt
}

// floorPath is one path's model floor: its echo round trip and sink
// goodput in simulated time.
type floorPath struct {
	rtt time.Duration
	mbs float64
}

// t1FloorMetrics computes the virtual-clock model floor twice — it
// must repeat exactly — and reports each medium's real-minus-floor gap.
func t1FloorMetrics(r *report, payload []byte, stats map[string]*t1Stats) error {
	a, err := t1Floor(payload)
	if err != nil {
		return fmt.Errorf("table1 floor: %w", err)
	}
	b, err := t1Floor(payload)
	if err != nil {
		return fmt.Errorf("table1 floor: %w", err)
	}
	r.Attempted++
	if fmt.Sprint(a) != fmt.Sprint(b) {
		r.fail("model floor does not repeat: %v then %v", a, b)
	}
	for _, m := range []struct{ medium, path string }{
		{"ether", "il"}, {"datakit", "urp"}, {"cyclone", "cyclone"},
	} {
		st, f := stats[m.path], a[m.path]
		r.add(m.medium+".rtt_gap_ms", "ms", ms(st.rtt.pct(0.5)-f.rtt), len(st.rtt))
		r.add(m.medium+".goodput_vs_floor", "ratio", ratio(mbs(st.sinkBytes, st.sinkTime), f.mbs), int(st.writes))
	}
	return nil
}

// t1Floor builds the Table 1 topology on a virtual clock with the same
// calibrated profiles and times the same echoes and sink writes in
// simulated time.
func t1Floor(payload []byte) (map[string]floorPath, error) {
	v := vclock.NewVirtual()
	out := make(map[string]floorPath)
	var err error
	v.Run(func() { err = t1FloorRun(v, payload, out) })
	return out, err
}

func t1FloorRun(v *vclock.Virtual, payload []byte, out map[string]floorPath) error {
	prof := core.CalibratedProfiles()
	w, err := core.NewWorldClock(core.PaperNdb, v)
	if err != nil {
		return err
	}
	defer w.Close()
	w.AddEther("ether0", prof.Ether)
	w.AddDatakit(prof.Datakit)
	boot := func(name string, ethers []string, dk bool) (*core.Machine, error) {
		return w.NewMachine(core.MachineConfig{Name: name, Ethers: ethers, Datakit: dk})
	}
	helix, err := boot("helix", []string{"ether0"}, true)
	if err != nil {
		return err
	}
	musca, err := boot("musca", []string{"ether0"}, true)
	if err != nil {
		return err
	}
	bootes, err := boot("bootes", []string{"ether0"}, false)
	if err != nil {
		return err
	}
	gnot, err := boot("philw-gnot", nil, true)
	if err != nil {
		return err
	}
	prof.Cyclone.Clock = v
	link := cyclone.NewLink("bootes-helix", prof.Cyclone)
	w.OnClose(link.Close)
	endB, endH := link.Ends()
	if _, err := bootes.AttachCyclone(endB); err != nil {
		return err
	}
	if _, err := helix.AttachCyclone(endH); err != nil {
		return err
	}
	for _, a := range []string{"il!*!echo", "dk!*!echo"} {
		if _, err := helix.ServeEcho(a); err != nil {
			return err
		}
	}
	for _, a := range []string{"il!*!bench", "dk!*!bench"} {
		if _, err := helix.Serve(a, sinkService); err != nil {
			return err
		}
	}
	if _, err := bootes.Serve("cyc0!*!echo", echoService); err != nil {
		return err
	}

	for _, p := range []struct {
		key        string
		from       *core.Machine
		echo, sink string
		size       int
	}{
		{"il", musca, "il!helix!echo", "il!helix!bench", 128 << 10},
		{"urp", gnot, "dk!nj/astro/helix!echo", "dk!nj/astro/helix!bench", 64 << 10},
		{"cyclone", helix, "cyc0!bootes!echo", "", 256 << 10},
	} {
		c, err := dialer.Dial(p.from.NS, p.echo)
		if err != nil {
			return fmt.Errorf("%s: %w", p.echo, err)
		}
		if err := echoOnce(c, 'w'); err != nil {
			c.Close()
			return err
		}
		var rtt samples
		for i := 0; i < 20; i++ {
			t0 := v.Now()
			if err := echoOnce(c, byte(i)); err != nil {
				c.Close()
				return err
			}
			rtt = append(rtt, v.Since(t0))
		}
		var d time.Duration
		if p.sink == "" {
			d, err = floorEchoSink(v, c, payload[:p.size])
			c.Close()
		} else {
			c.Close()
			d, err = floorSink(v, p.from, p.sink, payload[:p.size])
		}
		if err != nil {
			return fmt.Errorf("%s sink: %w", p.key, err)
		}
		out[p.key] = floorPath{rtt: rtt.pct(0.5), mbs: mbs(int64(p.size), d)}
	}
	return nil
}

// floorSink times a sink transfer in simulated time.
func floorSink(v *vclock.Virtual, from *core.Machine, dest string, p []byte) (time.Duration, error) {
	c, err := dialSink(from.NS, dest, len(p))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	t0 := v.Now()
	for off := 0; off < len(p); off += t1WriteSize {
		if _, err := c.Write(p[off : off+t1WriteSize]); err != nil {
			return 0, err
		}
	}
	ack := []byte{0}
	if _, err := io.ReadFull(c, ack); err != nil || ack[0] != 1 {
		return 0, fmt.Errorf("ack %v: %v", ack, err)
	}
	return v.Since(t0), nil
}

// floorEchoSink is table1's Cyclone sink in simulated time: the link
// carries one conversation, so the echoing peer is the sink, drained
// by a machine goroutine while p goes out in 16 KiB writes.
func floorEchoSink(v *vclock.Virtual, c io.ReadWriter, p []byte) (time.Duration, error) {
	wg := vclock.NewWaitGroup(v)
	wg.Add(1)
	var derr error
	v.Go(func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for got := 0; got < len(p); {
			n, err := c.Read(buf)
			got += n
			if err != nil {
				derr = err
				return
			}
		}
	})
	t0 := v.Now()
	for off := 0; off < len(p); off += t1WriteSize {
		if _, err := c.Write(p[off : off+t1WriteSize]); err != nil {
			return 0, err
		}
	}
	wg.Wait()
	return v.Since(t0), derr
}

// echoService echoes with a 64 KiB buffer, as table1's Cyclone echo
// does: the fiber carries whole 16 KiB messages.
func echoService(_ *ns.Namespace, c *dialer.Conn) {
	buf := make([]byte, 64<<10)
	for {
		n, err := c.Read(buf)
		if err != nil || n == 0 {
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			return
		}
	}
}

// sinkService is table1's sink: read the count line, drain that many
// bytes, answer one byte.
func sinkService(_ *ns.Namespace, c *dialer.Conn) {
	var hdr []byte
	one := []byte{0}
	for len(hdr) < 31 {
		if _, err := c.Read(one); err != nil {
			return
		}
		if one[0] == '\n' {
			break
		}
		hdr = append(hdr, one[0])
	}
	want, err := strconv.Atoi(string(hdr))
	if err != nil {
		return
	}
	buf := make([]byte, 64<<10)
	for got := 0; got < want; {
		n, err := c.Read(buf)
		got += n
		if err != nil {
			return
		}
	}
	c.Write([]byte{1})
}
