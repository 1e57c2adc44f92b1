package vclock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
)

// TestAllocsVirtualHandoff pins the scheduler's steady state at zero
// allocations: token handoffs between goroutines, the self-resume of a
// sleeper whose own timer is next, timer pushes and pops, run-queue
// and waiter-list reuse.
func TestAllocsVirtualHandoff(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := NewVirtual()
	allocs := -1.0
	v.Run(func() {
		ping := NewMailbox[int](v, 1)
		pong := NewMailbox[int](v, 1)
		done := NewWaitGroup(v)
		done.Add(2)
		v.Go(func() {
			defer done.Done()
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		stop := false
		v.Go(func() {
			defer done.Done()
			for !stop {
				v.Sleep(3 * time.Microsecond)
			}
		})
		step := func() {
			ping.Send(1)
			pong.Recv()
			v.Sleep(time.Microsecond)
		}
		// Warm up: mailbox rings, waiter lists, run queue and heap
		// reach their steady sizes.
		for i := 0; i < 100; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(1000, step)
		stop = true
		ping.Close()
		done.Wait()
	})
	if allocs != 0 {
		t.Fatalf("steady-state handoff allocates %.2f per iteration, want 0", allocs)
	}
}

func TestVirtualDeadlockInCondWait(t *testing.T) {
	// The last runnable goroutine parks in Cond.Wait, so the parker
	// itself finds the deadlock; the panic must still surface from
	// Run, in the caller's goroutine, where recover can catch it.
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "2 machine goroutine(s)") || !strings.Contains(msg, "T+1ms") {
			t.Fatalf("expected a deadlock panic with 2 parked at T+1ms, got %q", msg)
		}
	}()
	v := NewVirtual()
	var mu sync.Mutex
	c := NewCond(v, &mu)
	v.Run(func() {
		v.Go(func() {
			mu.Lock()
			c.Wait() // nothing will ever signal
		})
		v.Sleep(time.Millisecond)
		mu.Lock()
		c.Wait()
	})
}

func TestVirtualRunTwicePanics(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "twice") {
			t.Fatalf("second Run: got %v, want a panic", r)
		}
	}()
	v.Run(func() {})
}

func TestVirtualSleepOutsideMachinePanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not registered") {
			t.Fatalf("Sleep before Run: got %v, want a panic", r)
		}
	}()
	v.Sleep(time.Millisecond)
}

func TestVirtualDrainHorizon(t *testing.T) {
	// After the root returns, timers keep firing for the drain horizon
	// so engine loops can see their shutdown; a timer beyond it never
	// fires, and Run returns without waiting for it.
	v := NewVirtual()
	var fired []string
	v.Run(func() {
		v.AfterFunc(time.Second, func() { fired = append(fired, "inside") })
		v.AfterFunc(2*time.Minute, func() { fired = append(fired, "beyond") })
		v.Go(func() {
			v.Sleep(30 * time.Second)
			fired = append(fired, "sleeper")
		})
	})
	if got := strings.Join(fired, ","); got != "inside,sleeper" {
		t.Fatalf("fired after the root returned = %s, want inside,sleeper", got)
	}
}

func TestVirtualRunQueueReuse(t *testing.T) {
	// A run queue that never drains slides its waiting goroutines down
	// over the popped prefix instead of growing: three goroutines wake
	// one another round-robin at one instant, so the queue never
	// empties, and its array stays small.
	v := NewVirtual()
	var order []int
	maxCap := 0
	v.Run(func() {
		var mu sync.Mutex
		conds := [3]*Cond{NewCond(v, &mu), NewCond(v, &mu), NewCond(v, &mu)}
		turn := 0
		const rounds = 300
		wg := NewWaitGroup(v)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				mu.Lock()
				defer mu.Unlock()
				for turn < rounds {
					if turn%3 != i {
						conds[i].Wait()
						continue
					}
					order = append(order, i)
					turn++
					conds[(i+1)%3].Signal()
					conds[(i+2)%3].Signal()
					v.mu.Lock()
					maxCap = max(maxCap, cap(v.runq))
					v.mu.Unlock()
				}
				for _, c := range conds {
					c.Broadcast()
				}
			})
		}
		wg.Wait()
	})
	if len(order) != 300 {
		t.Fatalf("ran %d turns, want 300", len(order))
	}
	for k, i := range order {
		if i != k%3 {
			t.Fatalf("turn %d ran goroutine %d, want %d", k, i, k%3)
		}
	}
	if maxCap > 16 {
		t.Fatalf("run queue grew to cap %d; it should reuse its array", maxCap)
	}
}

// BenchmarkVirtualHandoff measures one round trip between two machine
// goroutines through a pair of bounded mailboxes: four token
// handoffs, no virtual time passing.
func BenchmarkVirtualHandoff(b *testing.B) {
	b.ReportAllocs()
	v := NewVirtual()
	v.Run(func() {
		ping := NewMailbox[int](v, 1)
		pong := NewMailbox[int](v, 1)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv()
		}
		b.StopTimer()
		ping.Close()
	})
}

// BenchmarkVirtualSleep measures one timed sleep and wakeup with 64
// sleepers on staggered periods, so the timer heap holds 64 events
// and most wakeups hand the token to another goroutine.
func BenchmarkVirtualSleep(b *testing.B) {
	b.ReportAllocs()
	v := NewVirtual()
	v.Run(func() {
		const sleepers = 64
		left := b.N
		wg := NewWaitGroup(v)
		b.ResetTimer()
		for i := 0; i < sleepers; i++ {
			d := time.Duration(i+1) * time.Microsecond
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for left > 0 {
					left--
					v.Sleep(d)
				}
			})
		}
		wg.Wait()
		b.StopTimer()
	})
}
