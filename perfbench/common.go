package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/block"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// hostClock is the wall clock every host-time measurement reads: the
// program's own real clock.
var hostClock = vclock.Real

// setups is how many times a workload builds its world; setup_s is the
// median and the last world is measured.
const setups = 7

// metric is one named number with its unit and the sample count it
// rests on (0 for a ratio or a count that is not a sample statistic).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report is what one workload run measured.
type report struct {
	Attempted int64
	Failed    int64
	// Problems describes the first few failed checks.
	Problems []string
	// E2E holds the end-to-end metrics, the same names on every
	// workload.
	E2E []metric
	// Layer holds the per-layer metrics this workload speaks for.
	Layer []metric
	// Round is the median wall time of one fixed round of work, the
	// base of trace.overhead_share.
	Round time.Duration
}

func (r *report) add(name, unit string, v float64, n int) {
	r.Layer = append(r.Layer, metric{name, unit, v, n})
}

func (r *report) e2e(name, unit string, v float64, n int) {
	r.E2E = append(r.E2E, metric{name, unit, v, n})
}

// fail records one failed operation or correctness check.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// tally merges a worker's books into r.
func (r *report) tally(o *report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, p := range o.Problems {
		if len(r.Problems) < 8 {
			r.Problems = append(r.Problems, p)
		}
	}
}

// samples is a set of latencies.
type samples []time.Duration

// pct returns the q-quantile by nearest rank on the sorted samples.
func (s samples) pct(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// mean is the average sample.
func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mbs is payload megabytes (1e6) per second.
func mbs(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianDur is the median of a set of durations.
func medianDur(d []time.Duration) time.Duration { return samples(d).pct(0.5) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets a timed phase: wall time, Go heap and block-pool
// deltas.
type meter struct {
	wall  time.Time
	mem   runtime.MemStats
	block block.Stats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.block = block.Snapshot()
	m.wall = hostClock.Now()
	return m
}

// meterDelta is what a phase cost.
type meterDelta struct {
	Wall           time.Duration
	AllocBytes     uint64
	GCs            uint32
	BlockAllocs    int64
	BlockPoolHits  int64
	BlockPoolTries int64
}

func (m *meter) stop() meterDelta {
	wall := hostClock.Since(m.wall)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b := block.Snapshot()
	return meterDelta{
		Wall:          wall,
		AllocBytes:    mem.TotalAlloc - m.mem.TotalAlloc,
		GCs:           mem.NumGC - m.mem.NumGC,
		BlockAllocs:   b.Allocs - m.block.Allocs,
		BlockPoolHits: b.PoolHits - m.block.PoolHits,
		BlockPoolTries: (b.PoolHits - m.block.PoolHits) +
			(b.PoolMisses - m.block.PoolMisses),
	}
}

// runtimeMetrics reports the block and Go-runtime layer per operation.
func (r *report) runtimeMetrics(d meterDelta, ops int64) {
	r.add("block.allocs_per_op", "count", ratio(float64(d.BlockAllocs), float64(ops)), 0)
	r.add("block.pool_hit_ratio", "ratio", ratio(float64(d.BlockPoolHits), float64(d.BlockPoolTries)), 0)
	r.add("runtime.alloc_bytes_per_op", "B", ratio(float64(d.AllocBytes), float64(ops)), 0)
	r.add("runtime.gc_cycles_per_kop", "count", 1000*ratio(float64(d.GCs), float64(ops)), 0)
}

// round is one fixed unit of a workload's work, as the host paid for
// it.
type round struct{ wall, cpu time.Duration }

// roundTimer brackets one round.
type roundTimer struct {
	t0 time.Time
	c0 time.Duration
}

func startRound() roundTimer { return roundTimer{hostClock.Now(), cpuTime()} }

func (t roundTimer) stop() round { return round{hostClock.Since(t.t0), cpuTime() - t.c0} }

// commonE2E fills the end-to-end metrics every workload shares: the
// median set-up, the share of operations that succeeded, the median
// round's wall time and CPU utilisation, the headline operation's
// median and mean latency, and the headline goodput in MB/s.
func (r *report) commonE2E(setup []time.Duration, rounds []round, op samples, goodput float64) {
	var walls []time.Duration
	var util []float64
	for _, rd := range rounds {
		walls = append(walls, rd.wall)
		util = append(util, ratio(rd.cpu.Seconds(), rd.wall.Seconds()))
	}
	sort.Float64s(util)
	r.e2e("setup_s", "s", medianDur(setup).Seconds(), len(setup))
	r.e2e("ok_share", "ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), int(r.Attempted))
	r.e2e("cpu_util", "ratio", util[(len(util)-1)/2], len(util))
	r.Round = medianDur(walls)
	r.e2e("round_s", "s", r.Round.Seconds(), len(rounds))
	r.e2e("op_p50_us", "us", us(op.pct(0.50)), len(op))
	r.e2e("op_mean_us", "us", us(op.mean()), len(op))
	r.e2e("mbs", "MB/s", goodput, 0)
}

// statsFile reads a stats file through a name space and parses its
// scalar lines.
func statsFile(nsp *ns.Namespace, path string) (map[string]int64, string) {
	b, err := nsp.ReadFile(path)
	if err != nil {
		return map[string]int64{}, ""
	}
	return obs.ParseStats(string(b)), string(b)
}

// histDelta is after minus before, bucket by bucket.
func histDelta(after, before obs.HistSnap) obs.HistSnap {
	d := after
	d.Count -= before.Count
	d.SumNs -= before.SumNs
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

// histQuantile estimates the q-quantile of a log2-bucket histogram,
// interpolating linearly inside the bucket that holds it (bucket k
// spans 2^(k-1) to 2^k ns) rather than answering the bucket's bound.
func histQuantile(s obs.HistSnap, q float64) time.Duration {
	if s.Count <= 0 {
		return 0
	}
	want := q * float64(s.Count)
	var seen float64
	for k, n := range s.Buckets {
		if n <= 0 {
			continue
		}
		if seen+float64(n) >= want {
			lo, hi := 0.0, 1.0
			if k > 0 {
				lo, hi = math.Ldexp(1, k-1), math.Ldexp(1, k)
			}
			return time.Duration(lo + (hi-lo)*(want-seen)/float64(n))
		}
		seen += float64(n)
	}
	return time.Duration(math.Ldexp(1, obs.NHistBuckets-1))
}

// connReads maps each per-connection bill line of an exportfs stats
// file ("conn N uname: ... reads R ...", lines ParseStats skips) to
// its read count.
func connReads(text string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "conn" {
			continue
		}
		for i := 2; i+1 < len(f); i++ {
			if f[i] == "reads" {
				out[f[1]], _ = strconv.ParseInt(f[i+1], 10, 64)
			}
		}
	}
	return out
}
