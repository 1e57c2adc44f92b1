package vclock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenSchedule runs one scenario that touches every way the virtual
// scheduler hands the token on — same-instant sleeps, timers stopped
// and not, goroutines spawned from timer bodies, FIFO condition
// waiters, a bounded mailbox blocking both sides, goroutine exits and
// a self re-arming timer — and returns the (virtual time, goroutine,
// step) trace in the order the steps ran.
func goldenSchedule() []string {
	v := NewVirtual()
	var trace []string
	log := func(who, step string) {
		trace = append(trace, fmt.Sprintf("%v %s %s", v.Since(Epoch), who, step))
	}
	v.Run(func() {
		wg := NewWaitGroup(v)

		// Same-instant ties: Sleep and SleepUntil aimed at T+1ms fire
		// in arming order.
		for i, until := range []bool{false, true, false} {
			name := fmt.Sprintf("tie%d", i)
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				log(name, "start")
				if until {
					v.SleepUntil(Epoch.Add(time.Millisecond))
				} else {
					v.Sleep(time.Millisecond)
				}
				log(name, "woke")
				v.Sleep(0)
				log(name, "yielded")
			})
		}

		// Timers: one kept, one stopped, one spawning a goroutine, and
		// one that re-arms itself three times.
		v.AfterFunc(2*time.Millisecond, func() { log("kept", "fired") })
		stopped := v.AfterFunc(2*time.Millisecond, func() { log("stopped", "fired") })
		wg.Add(1)
		v.AfterFunc(time.Millisecond, func() {
			log("spawner", "fired")
			v.Go(func() {
				defer wg.Done()
				log("spawned", "start")
				v.Sleep(500 * time.Microsecond)
				log("spawned", "exit")
			})
			log("spawner", "exit")
		})
		var rearm func()
		n := 0
		wg.Add(1)
		rearm = func() {
			n++
			log("rearm", fmt.Sprintf("fire%d", n))
			if n < 3 {
				v.AfterFunc(700*time.Microsecond, rearm)
				return
			}
			wg.Done()
		}
		v.AfterFunc(700*time.Microsecond, rearm)

		// Condition waiters: Signal wakes the oldest, Broadcast the
		// rest in arrival order.
		var mu sync.Mutex
		c := NewCond(v, &mu)
		gen := 0
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("w%d", i)
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				mu.Lock()
				log(name, "wait")
				seen := gen
				for gen == seen {
					c.Wait()
				}
				log(name, fmt.Sprintf("gen%d", gen))
				mu.Unlock()
			})
		}
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			v.Sleep(3 * time.Millisecond)
			mu.Lock()
			gen++
			log("cond", "signal")
			c.Signal()
			mu.Unlock()
			v.Sleep(time.Millisecond)
			mu.Lock()
			gen++
			log("cond", "broadcast")
			c.Broadcast()
			mu.Unlock()
		})

		// A mailbox of one: the producer blocks on a full box, the
		// consumer on an empty one.
		mb := NewMailbox[int](v, 1)
		wg.Add(2)
		v.Go(func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				log("prod", fmt.Sprintf("send%d", i))
				mb.Send(i)
			}
			mb.Close()
			log("prod", "closed")
		})
		v.Go(func() {
			defer wg.Done()
			for {
				x, ok := mb.Recv()
				if !ok {
					log("cons", "eof")
					return
				}
				log("cons", fmt.Sprintf("recv%d", x))
				if x%2 == 0 {
					v.Sleep(250 * time.Microsecond)
				}
			}
		})

		if !stopped.Stop() {
			log("root", "stop-failed")
		}
		log("root", "waiting")
		wg.Wait()
		log("root", "done")
	})
	return trace
}

// goldenTrace is the schedule goldenSchedule produced under the
// channel-relay scheduler that preceded direct handoff; any change to
// the scheduler must replay it exactly.
const goldenTrace = `0s root waiting
0s tie0 start
0s tie1 start
0s tie2 start
0s w0 wait
0s w1 wait
0s w2 wait
0s w3 wait
0s prod send0
0s prod send1
0s cons recv0
0s prod send2
250µs cons recv1
250µs prod send3
250µs cons recv2
250µs prod closed
500µs cons recv3
500µs cons eof
700µs rearm fire1
1ms spawner fired
1ms spawner exit
1ms spawned start
1ms tie0 woke
1ms tie1 woke
1ms tie2 woke
1ms tie0 yielded
1ms tie1 yielded
1ms tie2 yielded
1.4ms rearm fire2
1.5ms spawned exit
2ms kept fired
2.1ms rearm fire3
3ms cond signal
3ms w0 gen1
4ms cond broadcast
4ms w1 gen2
4ms w2 gen2
4ms w3 gen2
4ms root done`

func TestVirtualGoldenSchedule(t *testing.T) {
	got := strings.Join(goldenSchedule(), "\n")
	if got != goldenTrace {
		t.Fatalf("schedule drifted from the golden trace:\n%s", got)
	}
}
