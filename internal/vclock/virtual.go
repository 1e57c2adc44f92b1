package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Epoch is the fixed origin of virtual time. Every Virtual clock
// starts here, so timestamps derived from the clock (trace events,
// seeded generators) are identical across same-seed runs.
var Epoch = time.Date(1993, time.January, 25, 0, 0, 0, 0, time.UTC)

// Virtual is the discrete-event clock: a cooperative token scheduler
// over the goroutines registered with Go, advancing simulated time to
// the next pending timer whenever all of them are parked.
//
// There is no scheduler goroutine. The goroutine that gives up the
// token picks its successor itself, under mu, and wakes it directly;
// Run only waits for the end of the simulation.
type Virtual struct {
	mu         sync.Mutex
	now        int64 // ns since Epoch
	seq        uint64
	runq       []*gor // FIFO; runq[runqHead:] are waiting
	runqHead   int
	events     []event // binary min-heap by (at, seq)
	running    *gor
	live       int
	rootDone   bool
	started    bool
	drainUntil int64 // end of the post-root drain; -1 until the root returns

	// done carries the end of the simulation to Run: "" when it wound
	// down, the deadlock report when it could not.
	done chan string
}

// gor is one machine goroutine's parking spot.
type gor struct {
	wake chan struct{}
}

// event is a pending timer: a sleeper to resume, or an AfterFunc body
// to spawn. Events fire in (at, seq) order — seq breaks ties in
// creation order — and fire strictly one at a time, with the woken
// chain run to quiescence before the next event, so same-instant
// timers cannot race each other.
type event struct {
	at  int64
	seq uint64
	g   *gor        // the sleeper, or nil for an AfterFunc
	t   *afterTimer // the AfterFunc, when g is nil
}

// afterTimer is the record an AfterFunc's Timer.Stop points at; sleeps
// need none, so they allocate nothing.
type afterTimer struct {
	f       func()
	fired   bool
	stopped bool
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// pushLocked adds an event to the heap.
func (v *Virtual) pushLocked(at int64, g *gor, t *afterTimer) {
	v.seq++
	h := append(v.events, event{at: at, seq: v.seq, g: g, t: t})
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	v.events = h
}

// popLocked removes and returns the earliest event.
func (v *Virtual) popLocked() event {
	h := v.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	v.events = h
	return top
}

// NewVirtual returns a virtual clock positioned at Epoch. Drive it
// with Run.
func NewVirtual() *Virtual {
	return &Virtual{drainUntil: -1, done: make(chan string, 1)}
}

// drainHorizon bounds how long pending timers keep firing after the
// root returns.
const drainHorizon = int64(time.Minute)

// Run executes fn as the root machine goroutine and returns once fn
// has returned and the remaining machine goroutines have wound down.
// Construction may happen before Run (Go, AfterFunc and the
// primitives all work from the calling thread then); once Run has
// started, only machine goroutines may touch the clock.
//
// Run panics if the simulation deadlocks: every machine goroutine
// parked, no pending timer, and the root function not yet returned.
// After the root returns, pending timers keep firing for a bounded
// drain horizon so engine timer loops can observe their shutdown and
// exit; goroutines still parked after that are leaked (and show up in
// the leak checkers, like any real leak).
func (v *Virtual) Run(fn func()) {
	v.mu.Lock()
	if v.started {
		v.mu.Unlock()
		panic("vclock: Run called twice")
	}
	v.started = true
	v.goLocked(func() {
		defer func() {
			v.mu.Lock()
			v.rootDone = true
			v.mu.Unlock()
		}()
		fn()
	})
	first, _ := v.pickLocked() // the root is queued, so never nil
	v.running = first
	v.mu.Unlock()
	first.wake <- struct{}{}
	if msg := <-v.done; msg != "" {
		panic(msg)
	}
}

// pickLocked pops the next runnable goroutine, advancing virtual time
// through pending events as needed. It returns nil when the simulation
// is over (or drained past the post-root horizon), with the deadlock
// report if it ended stuck.
func (v *Virtual) pickLocked() (*gor, string) {
	for {
		if v.runqHead < len(v.runq) {
			g := v.runq[v.runqHead]
			v.runq[v.runqHead] = nil
			v.runqHead++
			if v.runqHead == len(v.runq) {
				v.runq = v.runq[:0]
				v.runqHead = 0
			}
			return g, ""
		}
		if v.rootDone && v.drainUntil < 0 {
			v.drainUntil = v.now + drainHorizon
		}
		fired := false
		for len(v.events) > 0 && !fired {
			if v.rootDone && v.events[0].at > v.drainUntil {
				return nil, ""
			}
			ev := v.popLocked()
			if ev.t != nil {
				if ev.t.stopped {
					continue
				}
				ev.t.fired = true
			}
			if ev.at > v.now {
				v.now = ev.at
			}
			if ev.g != nil {
				v.readyLocked(ev.g)
			} else if ev.t.f != nil {
				v.goLocked(ev.t.f)
			}
			fired = true
		}
		if fired {
			continue
		}
		if v.live > 0 && !v.rootDone {
			return nil, fmt.Sprintf("vclock: simulation deadlock: %d machine goroutine(s) parked with no pending event at T+%v", v.live, time.Duration(v.now))
		}
		return nil, ""
	}
}

// handoff passes the token from g to next, which the caller picked
// and made v.running before releasing v.mu: it wakes next, or tells
// Run the simulation is over when next is nil, then blocks g until it
// is resumed. A g whose own event came up next keeps the token with
// no channel operation at all; a nil g has exited and does not wait.
func (v *Virtual) handoff(g, next *gor, end string) {
	switch next {
	case nil:
		v.done <- end
	case g:
		return
	default:
		next.wake <- struct{}{}
	}
	if g != nil {
		<-g.wake
	}
}

// Go registers and starts a machine goroutine.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	v.goLocked(f)
	v.mu.Unlock()
}

func (v *Virtual) goLocked(f func()) {
	g := &gor{wake: make(chan struct{}, 1)}
	v.live++
	v.readyLocked(g)
	go func() {
		<-g.wake
		f()
		v.mu.Lock()
		v.live--
		next, end := v.pickLocked()
		v.running = next
		v.mu.Unlock()
		v.handoff(nil, next, end)
	}()
}

// curLocked returns the currently running machine goroutine; blocking
// clock operations from unregistered goroutines are a programming
// error (the scheduler could not know when to resume them).
func (v *Virtual) curLocked(op string) *gor {
	g := v.running
	if g == nil {
		panic("vclock: " + op + " from a goroutine not registered with the virtual clock")
	}
	return g
}

// parkLocked gives up g's token (v.mu held on entry, released inside)
// and blocks until g is resumed.
func (v *Virtual) parkLocked(g *gor) {
	next, end := v.pickLocked()
	v.running = next
	v.mu.Unlock()
	v.handoff(g, next, end)
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Epoch.Add(time.Duration(v.now))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock: the goroutine parks and becomes runnable at
// now+d. Sleep(0) still round-trips through the event heap, so it is
// a deterministic yield point.
func (v *Virtual) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	g := v.curLocked("Sleep")
	v.pushLocked(v.now+int64(d), g, nil)
	v.parkLocked(g)
}

// SleepUntil implements Clock.
func (v *Virtual) SleepUntil(t time.Time) {
	v.mu.Lock()
	g := v.curLocked("SleepUntil")
	at := int64(t.Sub(Epoch))
	if at < v.now {
		at = v.now
	}
	v.pushLocked(at, g, nil)
	v.parkLocked(g)
}

// AfterFunc implements Clock: f runs as a fresh machine goroutine when
// virtual time reaches now+d.
func (v *Virtual) AfterFunc(d time.Duration, f func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &afterTimer{f: f}
	v.mu.Lock()
	v.pushLocked(v.now+int64(d), nil, t)
	v.mu.Unlock()
	return &Timer{stop: func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if t.fired || t.stopped {
			return false
		}
		t.stopped = true
		return true
	}}
}

// Virtual implements Clock.
func (v *Virtual) Virtual() bool { return true }

// readyLocked appends woken goroutines to the run queue in order,
// sliding the waiting ones down over the popped prefix rather than
// growing a full array.
func (v *Virtual) readyLocked(gs ...*gor) {
	if v.runqHead > 0 && len(v.runq)+len(gs) > cap(v.runq) {
		n := copy(v.runq, v.runq[v.runqHead:])
		clear(v.runq[n:])
		v.runq = v.runq[:n]
		v.runqHead = 0
	}
	v.runq = append(v.runq, gs...)
}
