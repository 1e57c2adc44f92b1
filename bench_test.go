// Benchmarks regenerating the paper's evaluation (see EXPERIMENTS.md).
//
// Table 1 (§8) has two columns — throughput of 16k writes and 1-byte
// round-trip latency — for four paths: pipes, IL/ether, URP/Datakit,
// and Cyclone. The benchmarks here run on ideal media (FastProfiles)
// so they measure the cost of the code paths themselves and are stable
// under testing.B; the calibrated-media reproduction that mirrors the
// paper's absolute shape is `go run ./cmd/netsim -table1` (recorded in
// EXPERIMENTS.md).
//
// The remaining benchmarks are the ablations DESIGN.md calls out: IL's
// query-based retransmission versus blind retransmission under loss
// (§3), adaptive versus fixed timeouts (§3), and 9P mounts over IL
// (native delimiters) versus TCP (marshaling layer).
package repro

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/ether"
	"repro/internal/exportfs"
	"repro/internal/il"
	"repro/internal/ip"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/table1"
	"repro/internal/vfs"
)

// buildPaths boots the measurement world once per benchmark.
func buildPaths(b *testing.B) map[string]table1.Path {
	b.Helper()
	w, paths, err := table1.BuildWorld(table1.FastConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	m := make(map[string]table1.Path, len(paths))
	for _, p := range paths {
		m[p.Name] = p
	}
	return m
}

func benchLatency(b *testing.B, path string) {
	p, ok := buildPaths(b)[path]
	if !ok {
		b.Fatalf("no path %q", path)
	}
	conn, err := p.DialEcho()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 1)
	conn.Write(buf)
	if _, err := io.ReadFull(conn, buf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchThroughput(b *testing.B, path string) {
	p, ok := buildPaths(b)[path]
	if !ok {
		b.Fatalf("no path %q", path)
	}
	const chunk = 16 * 1024 // the paper's 16k writes
	total := b.N * chunk
	conn, err := p.DialSink(total)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for range b.N {
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(conn, one); err != nil {
		b.Fatal(err)
	}
}

// --- Table 1, row by row ---

func BenchmarkTable1LatencyPipes(b *testing.B)         { benchLatency(b, "pipes") }
func BenchmarkTable1LatencyILEther(b *testing.B)       { benchLatency(b, "IL/ether") }
func BenchmarkTable1LatencyURPDatakit(b *testing.B)    { benchLatency(b, "URP/Datakit") }
func BenchmarkTable1LatencyCyclone(b *testing.B)       { benchLatency(b, "Cyclone") }
func BenchmarkTable1ThroughputPipes(b *testing.B)      { benchThroughput(b, "pipes") }
func BenchmarkTable1ThroughputILEther(b *testing.B)    { benchThroughput(b, "IL/ether") }
func BenchmarkTable1ThroughputURPDatakit(b *testing.B) { benchThroughput(b, "URP/Datakit") }
func BenchmarkTable1ThroughputCyclone(b *testing.B)    { benchThroughput(b, "Cyclone") }

// --- Figure 1: the device file tree (walk + clone cost) ---

func BenchmarkFigure1EtherTreeWalk(b *testing.B) {
	w, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	helix := w.Machine("helix")
	b.ResetTimer()
	for b.Loop() {
		if _, err := helix.NS.Stat("/net/ether0/clone"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: query vs blind retransmission under loss (§3) ---

// lossyILWorld builds two machines on a lossy ether with the given IL
// configuration and returns dialer/listener protos.
func lossyILWorld(b *testing.B, loss float64, cfg il.Config) (*il.Proto, *il.Proto, ip.Addr, func()) {
	b.Helper()
	seg := ether.NewSegment("e0", ether.Profile{Loss: loss, Seed: 42})
	s1, s2 := ip.NewStack(), ip.NewStack()
	a1 := ip.Addr{10, 0, 0, 1}
	a2 := ip.Addr{10, 0, 0, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := s1.Bind(seg.NewInterface("e"), a1, mask); err != nil {
		b.Fatal(err)
	}
	if _, err := s2.Bind(seg.NewInterface("e"), a2, mask); err != nil {
		b.Fatal(err)
	}
	stop := func() { s1.Close(); s2.Close(); seg.Close() }
	return il.New(s1, cfg), il.New(s2, cfg), a2, stop
}

func benchILRetransmit(b *testing.B, loss float64, blind bool) {
	p1, p2, a2, stop := lossyILWorld(b, loss, il.Config{BlindRetransmit: blind})
	defer stop()
	lc, _ := p2.NewConn()
	if err := lc.Announce("17008"); err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	go func() {
		nc, err := lc.Listen()
		if err != nil {
			return
		}
		buf := make([]byte, 8192)
		for {
			n, err := nc.Read(buf)
			if n > 0 {
				if _, werr := nc.Write(buf[:1]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	dc, _ := p1.NewConn()
	if err := dc.Connect(ip.HostPort(a2, 17008)); err != nil {
		b.Fatal(err)
	}
	defer dc.Close()
	payload := make([]byte, 1024)
	ack := make([]byte, 1)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for b.Loop() {
		if _, err := dc.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(dc, ack); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	retrans := p1.Retransmits.Load() + p2.Retransmits.Load()
	sent := p1.MsgsSent.Load() + p2.MsgsSent.Load()
	b.ReportMetric(float64(retrans)/float64(b.N), "retrans/op")
	b.ReportMetric(float64(retrans)/float64(sent)*100, "retrans-%")
}

func BenchmarkILRetransmitQuery0pc(b *testing.B)  { benchILRetransmit(b, 0.0, false) }
func BenchmarkILRetransmitQuery5pc(b *testing.B)  { benchILRetransmit(b, 0.05, false) }
func BenchmarkILRetransmitQuery15pc(b *testing.B) { benchILRetransmit(b, 0.15, false) }
func BenchmarkILRetransmitBlind0pc(b *testing.B)  { benchILRetransmit(b, 0.0, true) }
func BenchmarkILRetransmitBlind5pc(b *testing.B)  { benchILRetransmit(b, 0.05, true) }
func BenchmarkILRetransmitBlind15pc(b *testing.B) { benchILRetransmit(b, 0.15, true) }

// --- Ablation: adaptive vs fixed timeouts (§3) ---

func benchILTimeout(b *testing.B, latency time.Duration, cfg il.Config) {
	seg := ether.NewSegment("e0", ether.Profile{Latency: latency, Loss: 0.05, Seed: 7, Bandwidth: 1 << 26})
	defer seg.Close()
	s1, s2 := ip.NewStack(), ip.NewStack()
	defer s1.Close()
	defer s2.Close()
	a1 := ip.Addr{10, 0, 0, 1}
	a2 := ip.Addr{10, 0, 0, 2}
	mask := ip.Addr{255, 255, 255, 0}
	s1.Bind(seg.NewInterface("e"), a1, mask)
	s2.Bind(seg.NewInterface("e"), a2, mask)
	p1, p2 := il.New(s1, cfg), il.New(s2, cfg)
	lc, _ := p2.NewConn()
	if err := lc.Announce("17008"); err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	go func() {
		nc, err := lc.Listen()
		if err != nil {
			return
		}
		buf := make([]byte, 8192)
		for {
			n, err := nc.Read(buf)
			if n > 0 {
				nc.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
	dc, _ := p1.NewConn()
	if err := dc.Connect(ip.HostPort(a2, 17008)); err != nil {
		b.Fatal(err)
	}
	defer dc.Close()
	buf := make([]byte, 64)
	b.ResetTimer()
	for b.Loop() {
		if _, err := dc.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(dc, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	spurious := p1.Retransmits.Load() + p2.Retransmits.Load() +
		p1.QueriesSent.Load() + p2.QueriesSent.Load()
	b.ReportMetric(float64(spurious)/float64(b.N), "recovery-msgs/op")
}

// Fast LAN: adaptive timers converge to the real RTT; a fixed timer
// tuned for a WAN wastes a long wait on every loss.
func BenchmarkILTimeoutAdaptiveLAN(b *testing.B) {
	benchILTimeout(b, 200*time.Microsecond, il.Config{})
}
func BenchmarkILTimeoutFixedSlowLAN(b *testing.B) {
	benchILTimeout(b, 200*time.Microsecond, il.Config{FixedRTO: 500 * time.Millisecond})
}

// Slow WAN: a fixed timer tuned for a LAN retransmits spuriously.
func BenchmarkILTimeoutAdaptiveWAN(b *testing.B) {
	benchILTimeout(b, 20*time.Millisecond, il.Config{})
}
func BenchmarkILTimeoutFixedFastWAN(b *testing.B) {
	benchILTimeout(b, 20*time.Millisecond, il.Config{FixedRTO: 15 * time.Millisecond})
}

// --- Ablation: the IL window size (§3) ---
//
// "A small outstanding message window prevents too many incoming
// messages from being buffered." The window must still cover the
// path's bandwidth-delay product: on a latency-bearing medium, window
// 1 serializes every message on the RTT, while the kernel's 20 keeps
// the pipe full.

func benchILWindow(b *testing.B, window uint32) {
	seg := ether.NewSegment("e0", ether.Profile{Latency: 2 * time.Millisecond, Bandwidth: 1 << 26})
	defer seg.Close()
	s1, s2 := ip.NewStack(), ip.NewStack()
	defer s1.Close()
	defer s2.Close()
	mask := ip.Addr{255, 255, 255, 0}
	s1.Bind(seg.NewInterface("e"), ip.Addr{10, 0, 0, 1}, mask)
	s2.Bind(seg.NewInterface("e"), ip.Addr{10, 0, 0, 2}, mask)
	cfg := il.Config{Window: window}
	p1, p2 := il.New(s1, cfg), il.New(s2, cfg)
	lc, _ := p2.NewConn()
	if err := lc.Announce("17008"); err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	got := make(chan int, 1024)
	go func() {
		nc, err := lc.Listen()
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := nc.Read(buf)
			if n > 0 {
				got <- n
			}
			if err != nil {
				close(got)
				return
			}
		}
	}()
	dc, _ := p1.NewConn()
	if err := dc.Connect("10.0.0.2!17008"); err != nil {
		b.Fatal(err)
	}
	defer dc.Close()
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	go func() {
		for range b.N {
			if _, err := dc.Write(payload); err != nil {
				return
			}
		}
	}()
	for range b.N {
		if _, ok := <-got; !ok {
			b.Fatal("receiver died")
		}
	}
}

func BenchmarkILWindow1(b *testing.B)  { benchILWindow(b, 1) }
func BenchmarkILWindow4(b *testing.B)  { benchILWindow(b, 4) }
func BenchmarkILWindow20(b *testing.B) { benchILWindow(b, 20) }

// --- 9P mounts: IL's native delimiters vs TCP's marshaling (§2.1),
// and the pipelined mount driver's sliding window ---

// mount9PBench boots a world, writes a payload-sized file on bootes,
// imports bootes on helix with windowed transfers opted in (a plain
// file tree) at the given window (0 = default, 1 = the serial
// RPC-per-fragment driver), and returns an open fd for the file.
func mount9PBench(b *testing.B, dest string, profiles core.PaperProfiles, size, window int) *ns.FD {
	b.Helper()
	w, err := core.PaperWorld(profiles)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	payload := make([]byte, size)
	bootes.Root.WriteFile("lib/bench", payload, 0664)
	cfg := mnt.Config{Client: ninep.ClientConfig{WindowedTransfers: true, Window: window}}
	if _, err := helix.ImportConfig(dest, "/", "/n/b", ns.MREPL, cfg); err != nil {
		b.Fatal(err)
	}
	fd, err := helix.NS.Open("/n/b/lib/bench", vfs.ORDWR)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fd.Close() })
	return fd
}

// bench9PRead reads a 64K file in one ReadAt per iteration: eight
// MaxFData fragments, which the pipelined driver keeps in flight
// concurrently and the serial driver round-trips one at a time.
func bench9PRead(b *testing.B, dest string, profiles core.PaperProfiles, window int) {
	const size = 64 * 1024
	fd := mount9PBench(b, dest, profiles, size, window)
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for b.Loop() {
		if n, err := fd.ReadAt(buf, 0); err != nil || n != size {
			b.Fatalf("read %d, %v", n, err)
		}
	}
}

func Benchmark9PReadOverIL(b *testing.B) { bench9PRead(b, "il!bootes!9fs", core.FastProfiles(), 0) }
func Benchmark9PReadOverILSerial(b *testing.B) {
	bench9PRead(b, "il!bootes!9fs", core.FastProfiles(), 1)
}
func Benchmark9PReadOverTCP(b *testing.B) { bench9PRead(b, "tcp!bootes!9fs", core.FastProfiles(), 0) }
func Benchmark9PReadOverTCPSerial(b *testing.B) {
	bench9PRead(b, "tcp!bootes!9fs", core.FastProfiles(), 1)
}

// The WAN profile is where the window matters most: every fragment
// round trip costs ~10 ms, so the serial driver pays 8 RTTs per 64K
// read and the windowed driver roughly one.
func Benchmark9PReadOverILWAN(b *testing.B) { bench9PRead(b, "il!bootes!9fs", core.WANProfiles(), 0) }
func Benchmark9PReadOverILWANSerial(b *testing.B) {
	bench9PRead(b, "il!bootes!9fs", core.WANProfiles(), 1)
}

// Benchmark9PReadSmall pins the single-RPC invariant's cost: a 4K read
// is at most MaxFData, must map to exactly one Tread, and must not
// regress against the serial driver (it takes the identical path).
func Benchmark9PReadSmallOverIL(b *testing.B) {
	const size = 4096
	fd := mount9PBench(b, "il!bootes!9fs", core.FastProfiles(), size, 0)
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for b.Loop() {
		if _, err := fd.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// bench9PWrite writes 64K in one WriteAt per iteration: eight Twrite
// fragments, windowed versus serial.
func bench9PWrite(b *testing.B, window int) {
	const size = 64 * 1024
	fd := mount9PBench(b, "il!bootes!9fs", core.FastProfiles(), size, window)
	payload := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for b.Loop() {
		if n, err := fd.WriteAt(payload, 0); err != nil || n != size {
			b.Fatalf("write %d, %v", n, err)
		}
	}
}

func Benchmark9PWriteOverIL(b *testing.B)       { bench9PWrite(b, 0) }
func Benchmark9PWriteOverILSerial(b *testing.B) { bench9PWrite(b, 1) }

// Benchmark9PRelayThroughGateway measures the §6.1 relay: the
// Datakit-only terminal reads a file on bootes through helix — the
// mount crosses the import (dk, 9P hop 1), helix's kernel relays to
// its own mount of bootes (il, 9P hop 2). With the pipelined mount
// driver on both imports, a 64K read keeps a window of Treads in
// flight across both hops at once.
func bench9PRelay(b *testing.B, window int) {
	w, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	gnot := w.Machine("philw-gnot")
	const size = 64 * 1024
	payload := make([]byte, size)
	bootes.Root.WriteFile("lib/bench", payload, 0664)
	// helix mounts bootes; gnot imports helix's whole tree (which
	// includes that mount) over the Datakit.
	cfg := mnt.Config{Client: ninep.ClientConfig{WindowedTransfers: true, Window: window}}
	if _, err := helix.ImportConfig("il!bootes!9fs", "/", "/n/bootes", ns.MREPL, cfg); err != nil {
		b.Fatal(err)
	}
	if _, err := gnot.ImportConfig("dk!nj/astro/helix!exportfs", "/", "/n/helix", ns.MREPL, cfg); err != nil {
		b.Fatal(err)
	}
	fd, err := gnot.NS.Open("/n/helix/n/bootes/lib/bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer fd.Close()
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for b.Loop() {
		if n, err := fd.ReadAt(buf, 0); err != nil || n != size {
			b.Fatalf("read %d, %v", n, err)
		}
	}
}

func Benchmark9PRelayThroughGateway(b *testing.B)       { bench9PRelay(b, 0) }
func Benchmark9PRelayThroughGatewaySerial(b *testing.B) { bench9PRelay(b, 1) }

// Benchmark9PRelayThroughGateway1kClients measures the multi-tenant
// gateway itself: one exportfs.Server, a thousand mounted tenants
// taking turns reading a shared 8K file, plus one hot tenant
// flooding windowed reads the whole time. The reported extras are the
// acceptance gauges — hit-rate is the shared cache's fraction over
// the run, and p99/p50 is the ratio across the thousand tenants'
// mean request latencies, the round-robin dispatcher's fairness
// under a hot neighbor.
func Benchmark9PRelayThroughGateway1kClients(b *testing.B) {
	const nclients = 1000
	rfs := ramfs.New("gw")
	payload := make([]byte, ninep.MaxFData)
	if err := rfs.WriteFile("lib/shared", payload, 0664); err != nil {
		b.Fatal(err)
	}
	srv := exportfs.NewServer(ns.New("gw", rfs.Root()), exportfs.Config{})
	serve := func() ninep.MsgConn {
		cend, send := ninep.NewPipe(nil)
		go srv.ServeConn(send)
		return cend
	}
	openShared := func(uname string) (vfs.Handle, *ninep.Client) {
		root, cl, err := mnt.MountConfig(serve(), uname, "", mnt.FileConfig())
		if err != nil {
			b.Fatal(err)
		}
		n, err := root.Walk("lib")
		if err == nil {
			n, err = n.Walk("shared")
		}
		if err != nil {
			b.Fatal(err)
		}
		h, err := n.Open(vfs.OREAD)
		if err != nil {
			b.Fatal(err)
		}
		return h, cl
	}

	handles := make([]vfs.Handle, nclients)
	for i := range handles {
		h, cl := openShared(fmt.Sprintf("c%04d", i))
		handles[i] = h
		b.Cleanup(func() { cl.Close() })
	}

	// The hot tenant floods for the whole timed window.
	hotH, hotCl := openShared("hot")
	b.Cleanup(func() { hotCl.Close() })
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, ninep.MaxFData)
		for {
			select {
			case <-stop:
				return
			default:
				hotH.Read(buf, 0)
			}
		}
	}()

	buf := make([]byte, ninep.MaxFData)
	b.SetBytes(ninep.MaxFData)
	b.ResetTimer()
	i := 0
	for b.Loop() {
		h := handles[i%nclients]
		if n, err := h.Read(buf, 0); err != nil || n != ninep.MaxFData {
			b.Fatalf("read %d, %v", n, err)
		}
		i++
	}
	b.StopTimer()
	close(stop)
	<-done

	// Fairness across tenants: the distribution of per-connection
	// mean latencies, hot tenant excluded.
	means := make([]float64, 0, nclients)
	for _, cs := range srv.Ninep().ConnStats() {
		if cs.Uname == "hot" || cs.Lat.Count == 0 {
			continue
		}
		means = append(means, float64(cs.Lat.SumNs)/float64(cs.Lat.Count))
	}
	sort.Float64s(means)
	if len(means) > 0 {
		p50 := means[len(means)/2]
		p99 := means[len(means)*99/100]
		if p50 > 0 {
			b.ReportMetric(p99/p50, "p99/p50")
		}
	}
	hits := float64(srv.Cache().Hits.Load())
	misses := float64(srv.Cache().Misses.Load())
	if hits+misses > 0 {
		b.ReportMetric(hits/(hits+misses), "hit-rate")
	}
}

// --- csquery and dial costs (the §4–§5 machinery) ---

func BenchmarkCsTranslate(b *testing.B) {
	w, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	helix := w.Machine("helix")
	b.ResetTimer()
	for b.Loop() {
		if _, err := helix.CS.Translate("net!helix!9fs"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDialEchoIL(b *testing.B) {
	w, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	musca := w.Machine("musca")
	b.ResetTimer()
	for b.Loop() {
		conn, err := dialer.Dial(musca.NS, "il!helix!echo")
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// sanity: the benchmarks' world must be healthy under `go test` too.
func TestBenchWorldBoots(t *testing.T) {
	w, paths, err := table1.BuildWorld(table1.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(paths) != 4 {
		t.Fatalf("expected 4 table-1 paths, got %d", len(paths))
	}
	names := map[string]bool{}
	for _, p := range paths {
		names[p.Name] = true
	}
	for _, want := range []string{"pipes", "IL/ether", "URP/Datakit", "Cyclone"} {
		if !names[want] {
			t.Errorf("missing path %q", want)
		}
	}
	_ = fmt.Sprint()
}

// --- Line disciplines on the WAN (§2.4): goodput of a small-message
// stream with and without the batch and compress modules pushed ---

// benchWANGoodput boots the WAN world (10 ms RTT on the office ether),
// runs a sink service on bootes, and streams msgs messages of sz bytes
// from helix per iteration; the sink acknowledges each burst, so an
// iteration covers the full drain — including the batch module's tail
// flush. mods (nil for the baseline) are pushed on both ends through
// the production path: the listener arms the accepted conversation,
// the dialer writes the same specs to its ctl file. compressible
// selects text-shaped payloads; bulk runs use incompressible bytes so
// the compress module's passthrough guard is what is measured.
func benchWANGoodput(b *testing.B, msgs, sz int, compressible bool, mods ...string) {
	w, err := core.PaperWorld(core.WANProfiles())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	bootes := w.Machine("bootes")
	helix := w.Machine("helix")
	stop, err := bootes.Serve("il!*!17090", func(_ *ns.Namespace, conn *dialer.Conn) {
		buf := make([]byte, 64*1024)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if n == 4 && string(buf[:n]) == "done" {
				if _, err := conn.Write([]byte("ok")); err != nil {
					return
				}
			}
		}
	}, mods...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	conn, err := dialer.Dial(helix.NS, "il!bootes!17090")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	if err := conn.Push(mods...); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, sz)
	if compressible {
		// Text-shaped: the mix of repetition and drift real RPC and
		// log traffic has.
		copy(payload, fmt.Sprintf("wan goodput message %08d: status ok, queue drained, next poll soon; ", sz))
		for i := len("wan goodput message 00000000: status ok, queue drained, next poll soon; "); i < sz; i++ {
			payload[i] = byte('a' + i%17)
		}
	} else {
		r := uint64(0x9e3779b97f4a7c15)
		for i := range payload {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			payload[i] = byte(r)
		}
	}
	ack := make([]byte, 16)
	b.SetBytes(int64(msgs * sz))
	b.ResetTimer()
	for b.Loop() {
		for i := 0; i < msgs; i++ {
			if _, err := conn.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := conn.Write([]byte("done")); err != nil {
			b.Fatal(err)
		}
		if n, err := conn.Read(ack); err != nil || string(ack[:n]) != "ok" {
			b.Fatalf("ack %q, %v", ack[:n], err)
		}
	}
}

// Small messages are where the disciplines earn their keep: 64-byte
// writes each cost a full IL/IP/ether header and a paced wire slot
// undressed; batched they share one frame per 2 KB window.
func BenchmarkWANSmallMsgGoodput(b *testing.B) {
	benchWANGoodput(b, 512, 64, true)
}
func BenchmarkWANSmallMsgGoodputBatch(b *testing.B) {
	benchWANGoodput(b, 512, 64, true, "batch 2048 2ms")
}
func BenchmarkWANSmallMsgGoodputBatchCompress(b *testing.B) {
	benchWANGoodput(b, 512, 64, true, "compress", "batch 2048 2ms")
}

// Bulk writes ride the batch fastpath (a block over the cap passes
// straight through) and incompressible payloads take the compress
// module's stored-frame exit: the disciplines must not tax the case
// they cannot help.
func BenchmarkWANBulkGoodput(b *testing.B) {
	benchWANGoodput(b, 16, 4096, false)
}
func BenchmarkWANBulkGoodputBatch(b *testing.B) {
	benchWANGoodput(b, 16, 4096, false, "batch 2048 2ms")
}
func BenchmarkWANBulkGoodputBatchCompress(b *testing.B) {
	benchWANGoodput(b, 16, 4096, false, "compress", "batch 2048 2ms")
}
