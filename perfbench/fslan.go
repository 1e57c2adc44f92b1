package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/vfs"
)

const (
	fsFileSize    = 1 << 20 // the shared data file and each client's own file
	fsBig         = 64 << 10
	fsSmall       = 4 << 10
	fsOpsPerRound = 48 // per client
)

// fsClient is one closed-loop client machine importing bootes.
type fsClient struct {
	m      *core.Machine
	cl     *ninep.Client // the mount's 9P client
	seq    *ns.FD        // sequential 64 KiB reads (the readahead path)
	rnd    *ns.FD        // random 4 KiB reads
	rw     *ns.FD        // the client's own file: writes and read-backs
	own    []byte        // what the client's own file should hold
	seqOff int64
	buf    []byte // read buffer
	rng    *rand.Rand
	r      report

	read64k, read4k, write64k, session samples
	dial, attach, hangup               samples
	bytes                              int64
}

// fsWorld is the LAN: the paper world on ideal media, bootes serving
// the files, helix and musca importing them.
type fsWorld struct {
	w       *core.World
	data    []byte
	clients []*fsClient
}

// runFS drives two closed-loop clients over a seeded mix of 9P file
// operations on ideal media, where only CPU sets the numbers.
func runFS(seed int64, budget time.Duration, tr *tracer, probes bool) (*report, error) {
	r := &report{}
	var setup []time.Duration
	var fw *fsWorld
	for i := 0; i < setups; i++ {
		t0 := hostClock.Now()
		nw, err := newFSWorld(seed)
		if err != nil {
			return nil, fmt.Errorf("fs-lan set-up: %w", err)
		}
		setup = append(setup, hostClock.Since(t0))
		if fw != nil {
			fw.w.Close()
		}
		fw = nw
	}
	defer fw.w.Close()

	before := fsSnap(fw)
	var rounds []round
	m := startMeter()
	for len(rounds) == 0 || hostClock.Since(m.wall) < budget {
		rt := startRound()
		var wg sync.WaitGroup
		for _, c := range fw.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < fsOpsPerRound; i++ {
					c.step(fw.data, tr)
				}
			}()
		}
		wg.Wait()
		rounds = append(rounds, rt.stop())
	}
	d := m.stop()
	after := fsSnap(fw)

	var all fsClient
	for _, c := range fw.clients {
		r.tally(&c.r)
		all.read64k = append(all.read64k, c.read64k...)
		all.read4k = append(all.read4k, c.read4k...)
		all.write64k = append(all.write64k, c.write64k...)
		all.session = append(all.session, c.session...)
		all.dial = append(all.dial, c.dial...)
		all.attach = append(all.attach, c.attach...)
		all.hangup = append(all.hangup, c.hangup...)
		all.bytes += c.bytes
	}
	ops := r.Attempted
	r.commonE2E(setup, rounds, all.read64k, mbs(all.bytes, d.Wall))
	r.runtimeMetrics(d, ops)
	r.add("read64k_p50_us", "us", us(all.read64k.pct(0.5)), len(all.read64k))
	r.add("read64k_p99_us", "us", us(all.read64k.pct(0.99)), len(all.read64k))
	r.add("read4k_p50_us", "us", us(all.read4k.pct(0.5)), len(all.read4k))
	r.add("write64k_p50_us", "us", us(all.write64k.pct(0.5)), len(all.write64k))
	r.add("session_p50_us", "us", us(all.session.pct(0.5)), len(all.session))
	r.add("fs_mbs", "MB/s", mbs(all.bytes, d.Wall), 0)
	r.add("dialer.dial_p50_us", "us", us(all.dial.pct(0.5)), len(all.dial))
	r.add("dialer.hangup_p50_us", "us", us(all.hangup.pct(0.5)), len(all.hangup))
	r.add("mnt.attach_p50_us", "us", us(all.attach.pct(0.5)), len(all.attach))

	dl := func(k string) float64 { return float64(after.n[k] - before.n[k]) }
	mntOps := float64(len(all.read64k) + len(all.read4k) + len(all.write64k))
	rpc := histDelta(after.rpc, before.rpc)
	r.add("ninep.rpcs_per_op", "count", ratio(dl("rpcs"), mntOps), int(mntOps))
	r.add("ninep.rpc_p50_us", "us", us(histQuantile(rpc, 0.5)), int(rpc.Count))
	r.add("ninep.flushes_per_kop", "count", 1000*ratio(dl("flushes"), mntOps), 0)
	r.add("ninep.window_max", "count", float64(after.n["window-max"]), 0)
	r.add("mnt.ra_hit_ratio", "ratio", ratio(dl("ra-hits"), dl("ra-hits")+dl("ra-misses")), 0)
	r.add("mnt.ra_cancels_per_kop", "count", 1000*ratio(dl("ra-cancels"), mntOps), 0)
	r.add("mnt.wb_issued_per_kop", "count", 1000*ratio(dl("wb-issued"), mntOps), 0)
	r.add("mnt.wb_barriers_per_kop", "count", 1000*ratio(dl("wb-barriers"), mntOps), 0)
	r.add("cs.hit_ratio", "ratio", ratio(dl("cs.cache-hits"), dl("cs.queries")), 0)
	ilOps := mntOps + float64(len(all.session))
	r.add("il.msgs_per_op", "count", ratio(dl("il.msgs-sent"), ilOps), int(ilOps))
	r.add("il.retransmits_per_kmsg", "count", 1000*ratio(dl("il.retransmits"), dl("il.msgs-sent")), 0)
	r.add("il.queries_per_kmsg", "count", 1000*ratio(dl("il.queries-sent"), dl("il.msgs-sent")), 0)
	ilRTT := histDelta(after.ilRTT, before.ilRTT)
	r.add("il.rtt_p50_us", "us", us(histQuantile(ilRTT, 0.5)), int(ilRTT.Count))
	r.add("ether.overflows", "count", dl("ether.overflows"), 0)

	if probes {
		fsProbes(r, fw, seed, tr)
		fsBalance(r, fw)
	}
	r.selfMetrics(tr)
	return r, nil
}

func newFSWorld(seed int64) (*fsWorld, error) {
	w, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		return nil, err
	}
	fw := &fsWorld{w: w, data: make([]byte, fsFileSize)}
	rng := rand.New(rand.NewSource(seed))
	rng.Read(fw.data)
	bootes := w.Machine("bootes")
	fail := func(err error) (*fsWorld, error) {
		w.Close()
		return nil, err
	}
	if err := bootes.Root.MkdirAll("usr/bench", 0775); err != nil {
		return fail(err)
	}
	if err := bootes.Root.WriteFile("usr/bench/data", fw.data, 0664); err != nil {
		return fail(err)
	}
	for i, name := range []string{"helix", "musca"} {
		c := &fsClient{m: w.Machine(name), own: make([]byte, fsFileSize), buf: make([]byte, fsBig),
			rng: rand.New(rand.NewSource(seed*1000 + int64(i) + 1))}
		c.rng.Read(c.own)
		if err := bootes.Root.WriteFile("usr/bench/w-"+name, c.own, 0666); err != nil {
			return fail(err)
		}
		if err := c.m.Root.MkdirAll("n/b", 0775); err != nil {
			return fail(err)
		}
		c.cl, err = c.m.ImportConfig("il!bootes!9fs", "/usr/bench", "/n/b", ns.MREPL, mnt.FileConfig())
		if err != nil {
			return fail(fmt.Errorf("%s import: %w", name, err))
		}
		for _, o := range []struct {
			fd   **ns.FD
			path string
			mode int
		}{{&c.seq, "/n/b/data", vfs.OREAD}, {&c.rnd, "/n/b/data", vfs.OREAD}, {&c.rw, "/n/b/w-" + name, vfs.ORDWR}} {
			if *o.fd, err = c.m.NS.Open(o.path, o.mode); err != nil {
				return fail(fmt.Errorf("%s open %s: %w", name, o.path, err))
			}
		}
		// Warm up: one full sequential pass and one session, checked.
		for off := int64(0); off < fsFileSize; off += fsBig {
			if err := c.readCheck(c.seq, fsBig, off, fw.data); err != nil {
				return fail(fmt.Errorf("%s warm-up read: %w", name, err))
			}
		}
		if _, err := c.oneSession(nil); err != nil {
			return fail(fmt.Errorf("%s warm-up session: %w", name, err))
		}
		fw.clients = append(fw.clients, c)
	}
	return fw, nil
}

// readCheck reads n bytes at off and compares them with want.
func (c *fsClient) readCheck(fd *ns.FD, n int, off int64, want []byte) error {
	buf := c.buf[:n]
	got, err := fd.ReadAt(buf, off)
	if err != nil {
		return err
	}
	if got != n || !bytes.Equal(buf, want[off:off+int64(n)]) {
		return fmt.Errorf("read %d@%d: %d bytes, content mismatch", n, off, got)
	}
	return nil
}

// step runs one seeded operation: 40% sequential 64 KiB reads, 30%
// random 4 KiB reads, 20% 64 KiB writes read back, 10% sessions.
func (c *fsClient) step(data []byte, tr *tracer) {
	c.r.Attempted++
	k := c.rng.Intn(100)
	var err error
	switch {
	case k < 40:
		s := tr.op("bench", "read64k")
		t0 := hostClock.Now()
		mr := s.child("mnt", "read")
		err = c.readCheck(c.seq, fsBig, c.seqOff, data)
		mr.end()
		d := hostClock.Since(t0)
		s.end()
		if err == nil {
			c.read64k = append(c.read64k, d)
			c.bytes += fsBig
		}
		c.seqOff = (c.seqOff + fsBig) % fsFileSize
	case k < 70:
		off := c.rng.Int63n(fsFileSize - fsSmall)
		s := tr.op("bench", "read4k")
		t0 := hostClock.Now()
		mr := s.child("mnt", "read")
		err = c.readCheck(c.rnd, fsSmall, off, data)
		mr.end()
		d := hostClock.Since(t0)
		s.end()
		if err == nil {
			c.read4k = append(c.read4k, d)
			c.bytes += fsSmall
		}
	case k < 90:
		off := int64(c.rng.Intn(fsFileSize/fsBig)) * fsBig
		p := c.own[off : off+fsBig]
		c.rng.Read(p)
		s := tr.op("bench", "write64k")
		t0 := hostClock.Now()
		ws := s.child("mnt", "write")
		_, err = c.rw.WriteAt(p, off)
		ws.end()
		if err == nil {
			rs := s.child("mnt", "read")
			err = c.readCheck(c.rw, fsBig, off, c.own)
			rs.end()
		}
		d := hostClock.Since(t0)
		s.end()
		if err == nil {
			c.write64k = append(c.write64k, d)
			c.bytes += 2 * fsBig
		}
	default:
		t0 := hostClock.Now()
		var st sessionTimes
		st, err = c.oneSession(tr)
		if err == nil {
			c.session = append(c.session, hostClock.Since(t0))
			c.dial = append(c.dial, st.dial)
			c.attach = append(c.attach, st.attach)
			c.hangup = append(c.hangup, st.hangup)
		}
	}
	if err != nil {
		c.r.fail("%s op %d: %v", c.m.Name, k, err)
	}
}

// sessionTimes splits a session into its dial, attach and hang-up.
type sessionTimes struct{ dial, attach, hangup time.Duration }

// oneSession dials bootes's file service by name through cs, attaches,
// walks to the data file, stats it, clunks, and hangs up.
func (c *fsClient) oneSession(tr *tracer) (sessionTimes, error) {
	s := tr.op("bench", "session")
	defer s.end()
	t0 := hostClock.Now()
	ds := s.child("dialer", "dial")
	conn, err := dialer.Dial(c.m.NS, "net!bootes!9fs")
	ds.end()
	if err != nil {
		return sessionTimes{}, err
	}
	t1 := hostClock.Now()
	var mc ninep.MsgConn
	if strings.HasPrefix(conn.Dir, "/net/tcp/") {
		mc = ninep.NewStreamConn(conn)
	} else {
		mc = ninep.NewDelimConn(conn)
	}
	cl, err := ninep.NewClientConfig(mc, ninep.ClientConfig{})
	if err != nil {
		conn.Close()
		return sessionTimes{}, err
	}
	as := s.child("ninep", "attach")
	f, err := cl.Attach(c.m.NS.User(), "usr/bench")
	as.end()
	t2 := hostClock.Now()
	if err == nil {
		ws := s.child("ninep", "walk")
		err = f.Walk("data")
		ws.end()
	}
	var d vfs.Dir
	if err == nil {
		ss := s.child("ninep", "stat")
		d, err = f.Stat()
		ss.end()
		if err == nil && d.Length != fsFileSize {
			err = fmt.Errorf("stat length %d, want %d", d.Length, fsFileSize)
		}
	}
	if f != nil {
		cs := s.child("ninep", "clunk")
		if cerr := f.Clunk(); err == nil {
			err = cerr
		}
		cs.end()
	}
	t3 := hostClock.Now()
	hs := s.child("dialer", "hangup")
	cl.Close()
	conn.Close()
	hs.end()
	return sessionTimes{t1.Sub(t0), t2.Sub(t1), hostClock.Since(t3)}, err
}

// fsSnapshot is the per-layer counters of both clients.
type fsSnapshot struct {
	n          map[string]int64
	rpc, ilRTT obs.HistSnap
}

// fsSnap reads /net/mnt/stats, /net/cs/stats and /net/il/stats of the
// two client machines, and the ether overflow drops of them and bootes.
// The mount driver's readahead and write-behind counters are
// process-wide, so they are taken from one machine only.
func fsSnap(fw *fsWorld) fsSnapshot {
	s := fsSnapshot{n: make(map[string]int64)}
	for i, c := range fw.clients {
		mn, text := statsFile(c.m.NS, "/net/mnt/stats")
		if i == 0 {
			for _, k := range []string{"ra-hits", "ra-misses", "ra-cancels", "wb-issued", "wb-barriers"} {
				s.n[k] = mn[k]
			}
		}
		s.n["rpcs"] += mn["rpcs"]
		s.n["flushes"] += mn["flushes"]
		s.n["window-max"] = max(s.n["window-max"], mn["window-max"])
		s.rpc.Merge(obs.ParseHistSnap(text, "rpc"))
		cs, _ := statsFile(c.m.NS, "/net/cs/stats")
		s.n["cs.queries"] += cs["queries"]
		s.n["cs.cache-hits"] += cs["cache-hits"]
		il, itext := statsFile(c.m.NS, "/net/il/stats")
		for _, k := range []string{"msgs-sent", "retransmits", "queries-sent"} {
			s.n["il."+k] += il[k]
		}
		s.ilRTT.Merge(obs.ParseHistSnap(itext, "rtt"))
	}
	for _, m := range []*core.Machine{fw.w.Machine("bootes"), fw.clients[0].m, fw.clients[1].m} {
		e, _ := statsFile(m.NS, "/net/ether0/1/stats")
		s.n["ether.overflows"] += e["overflows"]
	}
	return s
}

// fsProbes times single layers after the mix: one MaxFData Fid.Read
// on the mount's own 9P client (bypassing mnt), a walk+stat through
// the mount, and a connection-server translation.
func fsProbes(r *report, fw *fsWorld, seed int64, tr *tracer) {
	const n = 300
	c := fw.clients[0]
	rng := rand.New(rand.NewSource(seed + 7))
	var fid, stat, xlate samples
	r.Attempted += 3 * n
	f, err := c.cl.Attach(c.m.NS.User(), "usr/bench")
	if err == nil {
		err = f.Walk("data")
	}
	if err == nil {
		err = f.Open(vfs.OREAD)
	}
	if err != nil {
		r.Failed += n - 1
		r.fail("fid probe set-up: %v", err)
	} else {
		buf := make([]byte, ninep.MaxFData)
		for i := 0; i < n; i++ {
			off := int64(rng.Intn(fsFileSize/ninep.MaxFData)) * ninep.MaxFData
			s := tr.op("bench", "fid-read")
			t0 := hostClock.Now()
			cs := s.child("ninep", "read")
			got, err := f.Read(buf, off)
			cs.end()
			d := hostClock.Since(t0)
			s.end()
			if err != nil || got != len(buf) || !bytes.Equal(buf, fw.data[off:off+int64(got)]) {
				r.fail("fid read %d: %d bytes, %v", off, got, err)
				continue
			}
			fid = append(fid, d)
		}
		f.Clunk()
	}
	for i := 0; i < n; i++ {
		t0 := hostClock.Now()
		d, err := c.m.NS.Stat("/n/b/data")
		if err != nil || d.Length != fsFileSize {
			r.fail("walk+stat: %v", err)
			continue
		}
		stat = append(stat, hostClock.Since(t0))
	}
	for i := 0; i < n; i++ {
		t0 := hostClock.Now()
		a, err := c.m.CS.Translate("net!bootes!9fs")
		if err != nil || a.Len() == 0 {
			r.fail("cs translate: %v", err)
			continue
		}
		xlate = append(xlate, hostClock.Since(t0))
	}
	r.add("ninep.fid_read8k_p50_us", "us", us(fid.pct(0.5)), len(fid))
	r.add("mnt.walk_stat_p50_us", "us", us(stat.pct(0.5)), len(stat))
	r.add("cs.translate_p50_us", "us", us(xlate.pct(0.5)), len(xlate))
}

// fsBalance checks that counters read from outside agree: each
// machine's /net/mnt/stats RPC count equals its mount client's, and
// every IL message sent was received, except those an interface
// dropped on receive-queue overflow — the ideal ether's only loss.
func fsBalance(r *report, fw *fsWorld) {
	for _, c := range fw.clients {
		r.Attempted++
		mn, _ := statsFile(c.m.NS, "/net/mnt/stats")
		if got, want := mn["rpcs"], c.cl.RPCs.Load(); got != want {
			r.fail("%s /net/mnt/stats rpcs %d, client counted %d", c.m.Name, got, want)
		}
	}
	r.Attempted++
	var sent, rcvd, overflows int64
	for try := 0; try < 40; try++ {
		sent, rcvd, overflows = 0, 0, 0
		for _, m := range fw.w.Machines() {
			if m.IL == nil {
				continue
			}
			il, _ := statsFile(m.NS, "/net/il/stats")
			sent += il["msgs-sent"]
			rcvd += il["msgs-rcvd"]
			e, _ := statsFile(m.NS, "/net/ether0/1/stats")
			overflows += e["overflows"]
		}
		if lost := sent - rcvd; lost >= 0 && lost <= overflows {
			return
		}
		hostClock.Sleep(50 * time.Millisecond)
	}
	r.fail("IL books do not balance: %d messages sent, %d received, %d frames dropped on overflow",
		sent, rcvd, overflows)
}
