package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory at the benchmark's own call sites,
// around each call into a layer. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ops   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one operation share Op; Parent is
// the index of the enclosing span, -1 for an operation's root.
type span struct {
	Op     uint64 `json:"op"`
	Layer  string `json:"layer"`
	Step   string `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func newTracer() *tracer { return &tracer{t0: hostClock.Now(), spans: make([]span, 0, 1<<16)} }

// op starts a new operation's root span and returns its handle.
func (t *tracer) op(layer, step string) sp {
	if t == nil {
		return sp{}
	}
	return t.begin(t.ops.Add(1), -1, layer, step)
}

// sp is an open span handle.
type sp struct {
	t  *tracer
	op uint64
	i  int
}

func (t *tracer) begin(op uint64, parent int, layer, step string) sp {
	now := int64(hostClock.Since(t.t0))
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{Op: op, Layer: layer, Step: step, Start: now, End: -1, Parent: parent})
	t.mu.Unlock()
	return sp{t, op, i}
}

// child opens a span inside s.
func (s sp) child(layer, step string) sp {
	if s.t == nil {
		return sp{}
	}
	return s.t.begin(s.op, s.i, layer, step)
}

// end closes the span.
func (s sp) end() {
	if s.t == nil {
		return
	}
	now := int64(hostClock.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.i].End = now
	s.t.mu.Unlock()
}

// selfTimes sums each layer's self time — a span's duration minus the
// part of it its children cover — and counts root operations.
func (t *tracer) selfTimes() (map[string]time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	roots := 0
	for i, s := range t.spans {
		if s.Parent < 0 {
			roots++
		} else {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredBy(t.spans, kids[i], s.Start, s.End)
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self, roots
}

// coveredBy is the length of [lo,hi) covered by the union of the
// given spans.
func coveredBy(all []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range idx {
		a, b := all[i].Start, all[i].End
		if b < 0 {
			continue
		}
		a, b = max(a, lo), min(b, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfMetrics reports mean self time per operation for the layers the
// benchmark brackets.
func (r *report) selfMetrics(t *tracer) {
	if t == nil {
		return
	}
	self, roots := t.selfTimes()
	for _, l := range traceLayers {
		if d, ok := self[l]; ok {
			r.add("self."+l+"_us_per_op", "us", ratio(us(d), float64(roots)), roots)
		}
	}
}

// traceLayers are the layers spans are recorded for.
var traceLayers = []string{"bench", "transport", "dialer", "ninep", "mnt"}
