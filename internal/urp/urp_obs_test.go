package urp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Deeper URP behavior at the protocol's edges: the mod-8 sequence
// space's window of seven, the enquiry timer when acknowledgements
// stall, and the trace ring recording the block-level conversation in
// order.

// TestWindowSevenEdge writes exactly Window blocks against a wire that
// swallows acknowledgements: all seven must go out unblocked (the
// window admits them), and the eighth write must stall — the pacing
// edge the mod-8 numbering forces.
func TestWindowSevenEdge(t *testing.T) {
	// Runs on the virtual clock: a simulated second is proof the writer
	// finished (or stalled), with no real-time stake. Inside Run every
	// assertion is t.Error + return — t.Fatal's Goexit would strand the
	// scheduler token.
	v := vclock.NewVirtual()
	v.Run(func() {
		tx := medium.NewPipe(medium.Profile{Clock: v})
		silent := medium.NewPipe(medium.Profile{Clock: v})
		a := New(wire{d: duplexOf(tx, silent)}, nil, v)
		defer a.Close()
		a.Trace().Enable()

		sent := make(chan int, 1)
		v.Go(func() {
			for i := range Window {
				if _, err := a.Write(bytes.Repeat([]byte{byte(i)}, BlockSize)); err != nil {
					sent <- i
					return
				}
			}
			sent <- Window
		})
		v.Sleep(time.Second)
		select {
		case n := <-sent:
			if n != Window {
				t.Errorf("only %d of %d window blocks went out", n, Window)
				return
			}
		default:
			t.Error("writer blocked inside the window")
			return
		}

		// The eighth block must wait for an ack that never comes: two
		// more simulated seconds and it still has not returned.
		blocked := make(chan struct{}, 1)
		v.Go(func() {
			a.Write([]byte("eighth"))
			blocked <- struct{}{}
		})
		v.Sleep(2 * time.Second)
		select {
		case <-blocked:
			t.Error("write past the window did not block")
			return
		default:
		}

		// The trace starts with seven sends, sequence-numbered in order
		// (the enquiries the stalled ack path provoked trail after).
		evs := a.Trace().Events()
		if len(evs) < Window {
			t.Errorf("trace has %d events, want at least %d", len(evs), Window)
			return
		}
		for i := 0; i < Window; i++ {
			if evs[i].Kind != obs.EvSend || evs[i].A != int64(i) {
				t.Errorf("trace[%d] = %v seq %d, want send seq %d", i, evs[i].Kind, evs[i].A, i)
				return
			}
		}
	})
}

// TestEnquiryTimeout stalls the ack path and waits: the timer must
// send enquiries (counted and traced) rather than retransmit blindly.
func TestEnquiryTimeout(t *testing.T) {
	// Virtual clock: one simulated second covers twenty enquiry
	// timeouts, so the "wait for the timer" half costs nothing real.
	v := vclock.NewVirtual()
	v.Run(func() {
		tx := medium.NewPipe(medium.Profile{Clock: v})
		silent := medium.NewPipe(medium.Profile{Clock: v})
		stats := &Stats{}
		a := New(wire{d: duplexOf(tx, silent)}, stats, v)
		defer a.Close()
		a.Trace().Enable()

		if _, err := a.Write([]byte("lonely block")); err != nil {
			t.Error(err)
			return
		}
		v.Sleep(time.Second)
		if stats.Enquiries.Load() == 0 {
			t.Error("no enquiry after the ack stalled")
			return
		}
		ks := a.Trace().Kinds()
		if len(ks) < 2 || ks[0] != obs.EvSend {
			t.Errorf("trace %v: want send first", ks)
			return
		}
		sawQuery := false
		for _, k := range ks[1:] {
			if k == obs.EvQuery {
				sawQuery = true
			}
		}
		if !sawQuery {
			t.Errorf("trace %v records no enquiry", ks)
		}
	})
}

// TestTraceOrderUnderLoss drives a lossy wire and checks both ends'
// rings: the sender's trace interleaves sends, retransmits, and acks;
// the receiver's records in-sequence receives and the REJs that
// triggered recovery — and the counted rejects equal the traced ones.
func TestTraceOrderUnderLoss(t *testing.T) {
	a, b, stats := pair(t, medium.Profile{Loss: 0.12, Seed: 4})
	a.Trace().Enable()
	b.Trace().Enable()

	const rounds = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for n := 0; n < rounds; {
			if _, err := b.Read(buf); err != nil {
				return
			}
			n++
		}
	}()
	for i := range rounds {
		if _, err := a.Write(bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	// Sender side: sends and at least one retransmit (the wire loses
	// ~12% of cells), acks present, and every retransmit traced is
	// also counted.
	var sends, retrans, acks int64
	for _, e := range a.Trace().Events() {
		switch e.Kind {
		case obs.EvSend:
			sends++
		case obs.EvRetransmit:
			retrans++
		case obs.EvAck:
			acks++
		}
	}
	if sends == 0 || acks == 0 {
		t.Fatalf("sender trace: %d sends, %d acks", sends, acks)
	}
	if retrans == 0 {
		t.Error("12% loss produced no traced retransmit")
	}

	// Receiver side: the trace records REJs as they are SENT, the
	// counter as they are RECEIVED by the peer — a REJ cell can itself
	// be lost, so traced ≥ counted, never the reverse.
	var rejs int64
	for _, e := range b.Trace().Events() {
		if e.Kind == obs.EvReject {
			rejs++
		}
	}
	if rejs == 0 {
		t.Error("loss produced no traced REJ")
	}
	if rejs < stats.Rejects.Load() {
		t.Errorf("peer counted %d rejects but only %d were traced as sent", stats.Rejects.Load(), rejs)
	}

	// In-sequence receives arrive with monotonically advancing mod-8
	// sequence numbers.
	prev := int64(-1)
	for _, e := range b.Trace().Events() {
		if e.Kind != obs.EvRecv {
			continue
		}
		if prev >= 0 {
			if want := (prev + 1) % SeqMod; e.A != want {
				t.Fatalf("receive trace jumps %d -> %d", prev, e.A)
			}
		}
		prev = e.A
	}
}
