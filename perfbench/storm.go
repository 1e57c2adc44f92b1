package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/mnt"
	"repro/internal/ns"
	"repro/internal/vclock"
)

// The gateway storm's fixed schedule: tenants over a Datakit hierarchy
// import one exporter's /lib through its multi-tenant exportfs and
// read a file. Even tenants read the hot shared file; odd ones read
// from a cold set twice ccache's 4 MiB default, so the cache evicts.
const (
	stormTenants   = 40
	stormSim       = 8 * time.Second
	stormInterval  = time.Second
	stormFileSize  = 64 << 10
	stormColdFiles = 128
	stormDest      = "dk!nj/astro/registry!exportfs"
)

var (
	stormAreas     = []string{"nj", "mh", "il", "dk"}
	stormExchanges = []string{"astro", "coma", "lyra", "vega"}
)

// stormRep is one simulation of the schedule: host costs, and the
// simulated statistics that must repeat exactly for a seed.
type stormRep struct {
	setup time.Duration // host time to boot the world
	round round         // host cost of the simulated schedule
	host  samples       // host time per tenant session
	r     report

	// Simulated, exact.
	reads, errs, bytes                     int64
	hits, misses, evictions, rpcs, workers int64
	importSim, readSim                     samples
}

// fingerprint renders every simulated statistic.
func (s *stormRep) fingerprint() string {
	return fmt.Sprintf("reads %d errs %d bytes %d hits %d misses %d evictions %d rpcs %d import %v read %v",
		s.reads, s.errs, s.bytes, s.hits, s.misses, s.evictions, s.rpcs, s.importSim, s.readSim)
}

// runStorm simulates the schedule on the virtual clock until the budget
// is spent (at least twice: the repeats must agree exactly). Traced,
// it also balances the cache against the reads served and checks that
// another seed gives another simulation.
func runStorm(seed int64, budget time.Duration, tr *tracer, checks bool) (*report, error) {
	r := &report{}
	var reps []*stormRep
	m := startMeter()
	for len(reps) < 2 || hostClock.Since(m.wall) < budget {
		rep, err := stormOnce(seed, tr, checks && len(reps) == 0)
		if err != nil {
			return nil, fmt.Errorf("gateway-storm: %w", err)
		}
		r.tally(&rep.r)
		if len(reps) > 0 {
			r.Attempted++
			if a, b := reps[0].fingerprint(), rep.fingerprint(); a != b {
				r.fail("same seed, different simulation:\n  %s\n  %s", a, b)
			}
		}
		reps = append(reps, rep)
	}
	d := m.stop()
	if checks {
		other, err := stormOnce(seed+1, nil, false)
		if err != nil {
			return nil, fmt.Errorf("gateway-storm: %w", err)
		}
		r.Attempted++
		if other.fingerprint() == reps[0].fingerprint() {
			r.fail("seeds %d and %d simulate identically", seed, seed+1)
		}
	}

	var setup, perRead []time.Duration
	var rounds []round
	var host samples
	var runSum time.Duration
	var payload int64
	for _, rep := range reps {
		setup = append(setup, rep.setup)
		rounds = append(rounds, rep.round)
		host = append(host, rep.host...)
		runSum += rep.round.wall
		payload += rep.bytes
		perRead = append(perRead, rep.round.wall/time.Duration(max(rep.reads, 1)))
	}
	// The rounds and goodput cover the simulated phases, not the boots.
	r.commonE2E(setup, rounds, host, mbs(payload, runSum))
	first := reps[0]
	r.runtimeMetrics(d, first.reads*int64(len(reps)))
	r.add("storm_wall_s", "s", r.Round.Seconds(), len(rounds))
	r.add("storm.import_sim_p50_ms", "ms", ms(first.importSim.pct(0.5)), len(first.importSim))
	r.add("storm.import_sim_p99_ms", "ms", ms(first.importSim.pct(0.99)), len(first.importSim))
	r.add("storm.read_sim_p50_ms", "ms", ms(first.readSim.pct(0.5)), len(first.readSim))
	r.add("storm.read_sim_p99_ms", "ms", ms(first.readSim.pct(0.99)), len(first.readSim))
	r.add("storm.reads", "count", float64(first.reads), 0)
	r.add("storm.host_us_per_read", "us", us(medianDur(perRead)), len(perRead))
	frags := float64(first.hits + first.misses)
	r.add("ccache.hit_ratio", "ratio", ratio(float64(first.hits), frags), 0)
	r.add("ccache.evictions_per_kread", "count", 1000*ratio(float64(first.evictions), frags), 0)
	r.add("exportfs.rpcs_per_read", "count", ratio(float64(first.rpcs), float64(first.reads)), 0)
	r.add("exportfs.workers_max", "count", float64(first.workers), 0)
	r.selfMetrics(tr)
	return r, nil
}

// stormOnce boots a fresh world on a fresh virtual clock and runs the
// schedule once.
func stormOnce(seed int64, tr *tracer, balance bool) (*stormRep, error) {
	v := vclock.NewVirtual()
	rep := &stormRep{}
	var err error
	t0 := hostClock.Now()
	v.Run(func() { err = stormRun(v, seed, tr, balance, rep, t0) })
	return rep, err
}

func stormNdb() string {
	var b strings.Builder
	b.WriteString("sys=registry\n\tdk=nj/astro/registry\n")
	for i := 0; i < stormTenants; i++ {
		fmt.Fprintf(&b, "sys=t%03d\n\tdk=%s/%s/t%03d\n", i,
			stormAreas[i%len(stormAreas)], stormExchanges[(i/len(stormAreas))%len(stormExchanges)], i)
	}
	return b.String()
}

func stormRun(v *vclock.Virtual, seed int64, tr *tracer, balance bool, rep *stormRep, t0 time.Time) error {
	w, err := core.NewWorldClock(stormNdb(), v)
	if err != nil {
		return err
	}
	defer w.Close()
	w.AddDatakit(medium.Profile{Latency: 2 * time.Millisecond, Bandwidth: 1 << 20, MTU: 2048, Seed: seed})
	reg, err := w.NewMachine(core.MachineConfig{Name: "registry", Datakit: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	files := make(map[string][]byte)
	names := []string{"hot"}
	for i := 0; i < stormColdFiles; i++ {
		names = append(names, fmt.Sprintf("c%03d", i))
	}
	if err := reg.Root.MkdirAll("lib", 0775); err != nil {
		return err
	}
	for _, n := range names {
		p := make([]byte, stormFileSize)
		rng.Read(p)
		files[n] = p
		if err := reg.Root.WriteFile("lib/"+n, p, 0444); err != nil {
			return err
		}
	}
	if _, err := reg.ServeExportfs("dk!*!exportfs"); err != nil {
		return err
	}
	tenants := make([]*core.Machine, stormTenants)
	for i := range tenants {
		if tenants[i], err = w.NewMachine(core.MachineConfig{Name: fmt.Sprintf("t%03d", i), Datakit: true}); err != nil {
			return err
		}
		if err := tenants[i].Root.MkdirAll("n/gw", 0775); err != nil {
			return err
		}
	}
	rep.setup = hostClock.Since(t0)

	// Cold tenants scan the cold set from evenly spaced places, all
	// rotated by one seeded offset: each reads mostly files no one
	// else has read lately, and every seed sees the same pattern.
	base := rng.Intn(stormColdFiles)
	rt := startRound()
	wg := vclock.NewWaitGroup(v)
	for i, m := range tenants {
		wg.Add(1)
		trng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		cold := -1
		if i%2 == 1 {
			cold = base + i/2*stormColdFiles/(stormTenants/2)
		}
		v.Go(func() {
			defer wg.Done()
			stormTenant(v, m, cold, trng, files, tr, rep)
		})
	}
	wg.Wait()
	rep.round = rt.stop()

	srv := reg.Exportfs()
	cache := srv.Cache()
	rep.hits, rep.misses = cache.Hits.Load(), cache.Misses.Load()
	rep.evictions = cache.Evictions.Load()
	rep.rpcs, rep.workers = srv.Ninep().RPCs.Load(), srv.Ninep().WorkerHW.Load()
	if balance {
		stormBalance(tenants[:4], reg, files, &rep.r)
	}
	return nil
}

// stormTenant is one tenant's life: stagger in, then import, read and
// check a file — the hot one, or with cold >= 0 the next cold one —
// unmount, and pause, until the simulated time is up.
func stormTenant(ck vclock.Clock, m *core.Machine, cold int, rng *rand.Rand,
	files map[string][]byte, tr *tracer, rep *stormRep) {
	start := ck.Now()
	ck.Sleep(time.Duration(rng.Int63n(int64(stormInterval))))
	for ck.Since(start) < stormSim {
		name := "hot"
		if cold >= 0 {
			name = fmt.Sprintf("c%03d", cold%stormColdFiles)
			cold++
		}
		rep.r.Attempted++
		s := tr.op("bench", "tenant")
		h0, v0 := hostClock.Now(), ck.Now()
		is := s.child("mnt", "import")
		cl, err := m.ImportConfig(stormDest, "/lib", "/n/gw", ns.MREPL, mnt.FileConfig())
		is.end()
		if err != nil {
			s.end()
			rep.errs++
			rep.r.fail("%s import: %v", m.Name, err)
			ck.Sleep(stormInterval / 4)
			continue
		}
		imp, v1 := ck.Since(v0), ck.Now()
		rs := s.child("mnt", "read")
		b, err := m.NS.ReadFile("/n/gw/" + name)
		rs.end()
		read := ck.Since(v1)
		un := s.child("mnt", "unmount")
		cl.Close()
		un.end()
		s.end()
		host := hostClock.Since(h0)
		if err != nil || !bytes.Equal(b, files[name]) {
			rep.errs++
			rep.r.fail("%s read %s: %d bytes, %v", m.Name, name, len(b), err)
		} else {
			rep.reads++
			rep.bytes += int64(len(b))
			rep.importSim = append(rep.importSim, imp)
			rep.readSim = append(rep.readSim, read)
			rep.host = append(rep.host, host)
		}
		ck.Sleep(stormInterval/2 + time.Duration(rng.Int63n(int64(stormInterval))))
	}
}

// stormBalance checks the exporter's books after the storm: with a few
// imports open, every fragment read the 9P server served is one cache
// hit or one miss.
func stormBalance(tenants []*core.Machine, reg *core.Machine, files map[string][]byte, r *report) {
	r.Attempted++
	srv := reg.Exportfs()
	var cls []interface{ Close() error }
	defer func() {
		for _, cl := range cls {
			cl.Close()
		}
	}()
	for _, m := range tenants {
		cl, err := m.ImportConfig(stormDest, "/lib", "/n/gw", ns.MREPL, mnt.FileConfig())
		if err != nil {
			r.fail("balance import: %v", err)
			return
		}
		cls = append(cls, cl)
	}
	before := connReads(srv.Stats())
	frags0 := srv.Cache().Hits.Load() + srv.Cache().Misses.Load()
	for i, m := range tenants {
		for _, name := range []string{"hot", fmt.Sprintf("c%03d", i)} {
			b, err := m.NS.ReadFile("/n/gw/" + name)
			if err != nil || !bytes.Equal(b, files[name]) {
				r.fail("balance read %s: %v", name, err)
				return
			}
		}
	}
	var reads int64
	for id, n := range connReads(srv.Stats()) {
		reads += n - before[id]
	}
	frags := srv.Cache().Hits.Load() + srv.Cache().Misses.Load() - frags0
	if reads != frags || reads == 0 {
		r.fail("cache books: %d fragment reads served, %d hits+misses", reads, frags)
	}
}
