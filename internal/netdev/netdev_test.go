package netdev

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/il"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/tcp"
	"repro/internal/vfs"
)

// world builds two machines with TCP and IL devices mounted in their
// name spaces.
func world(t *testing.T) (nsA, nsB *ns.Namespace, addrA, addrB ip.Addr) {
	t.Helper()
	seg := ether.NewSegment("e0", medium.Profile{})
	t.Cleanup(seg.Close)
	mask := ip.Addr{255, 255, 255, 0}
	addrA = ip.Addr{135, 104, 9, 31}
	addrB = ip.Addr{135, 104, 53, 11}
	maskB := ip.Addr{255, 255, 0, 0} // same segment, one big net
	_ = maskB
	mk := func(a ip.Addr) (*ns.Namespace, *ip.Stack) {
		st := ip.NewStack(nil)
		if _, err := st.Bind(seg.NewInterface("ether0"), a, ip.Addr{255, 255, 0, 0}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		tp, ilp := tcp.New(st), il.New(st, il.Config{})
		// Engine teardown wakes any goroutine still parked in a
		// blocking listen open when the test ends.
		t.Cleanup(func() { tp.Close(); ilp.Close() })
		nsp := ns.New("bootes", ramfs.New("bootes").Root())
		nsp.MountDevice(New(tp, "bootes"), "", "/net/tcp", ns.MREPL)
		nsp.MountDevice(New(ilp, "bootes"), "", "/net/il", ns.MREPL)
		_ = mask
		return nsp, st
	}
	nsA, _ = mk(addrA)
	nsB, _ = mk(addrB)
	return nsA, nsB, addrA, addrB
}

// TestPaperConnectionDance walks the exact four steps of §2.3.
func TestPaperConnectionDance(t *testing.T) {
	nsA, nsB, _, addrB := world(t)

	// Server: clone, announce, open listen (blocks), then echo.
	go func() {
		lctl, err := nsB.Open("/net/tcp/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer lctl.Close()
		buf := make([]byte, 16)
		n, _ := lctl.Read(buf)
		dir := "/net/tcp/" + string(buf[:n])
		if _, err := lctl.WriteString("announce 564"); err != nil {
			t.Error(err)
			return
		}
		// Opening the listen file blocks until a call arrives and
		// returns a file descriptor for the ctl file of the new
		// connection.
		nctl, err := nsB.Open(dir+"/listen", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer nctl.Close()
		n, _ = nctl.Read(buf)
		ndir := "/net/tcp/" + string(buf[:n])
		data, err := nsB.Open(ndir+"/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer data.Close()
		b := make([]byte, 256)
		rn, err := data.Read(b)
		if err != nil {
			t.Error(err)
			return
		}
		data.Write(b[:rn])
	}()

	time.Sleep(20 * time.Millisecond) // let the announce land

	// Client: 1) open clone, 2) read connection number, 3) write the
	// address to ctl, 4) open data.
	ctl, err := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	buf := make([]byte, 16)
	n, err := ctl.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	convNum := string(buf[:n])
	if convNum != "0" && convNum != "1" {
		t.Errorf("connection number %q", convNum)
	}
	if _, err := ctl.WriteString("connect " + addrB.String() + "!564"); err != nil {
		t.Fatal(err)
	}
	dir := "/net/tcp/" + convNum
	data, err := nsA.Open(dir+"/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()

	// The connection directory has the §2.3 files and the paper's
	// "cat local remote status" works (checked before the echo so the
	// server has not yet closed its end).
	ents, _ := nsA.ReadDir(dir)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	if strings.Join(names, " ") != "ctl data listen local remote stats status trace" {
		t.Errorf("conversation dir: %v", names)
	}
	local, _ := nsA.ReadFile(dir + "/local")
	remote, _ := nsA.ReadFile(dir + "/remote")
	status, _ := nsA.ReadFile(dir + "/status")
	if !strings.Contains(string(remote), addrB.String()+"!564") {
		t.Errorf("remote file %q", remote)
	}
	if len(local) == 0 {
		t.Error("empty local file")
	}
	if !strings.Contains(string(status), "Established") {
		t.Errorf("status file %q", status)
	}
	if !strings.HasPrefix(string(status), "tcp/") {
		t.Errorf("status should begin with proto/conv: %q", status)
	}

	if _, err := data.WriteString("echo me"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	rn, err := data.Read(got)
	if err != nil || string(got[:rn]) != "echo me" {
		t.Fatalf("echoed %q, %v", got[:rn], err)
	}
}

func TestProtoDevicesLookIdentical(t *testing.T) {
	// The same code drives IL with zero changes: only the directory
	// name and the address differ.
	nsA, nsB, _, addrB := world(t)
	go func() {
		lctl, err := nsB.Open("/net/il/clone", vfs.ORDWR)
		if err != nil {
			return
		}
		defer lctl.Close()
		buf := make([]byte, 16)
		n, _ := lctl.Read(buf)
		lctl.WriteString("announce 17008")
		nctl, err := nsB.Open("/net/il/"+string(buf[:n])+"/listen", vfs.ORDWR)
		if err != nil {
			return
		}
		defer nctl.Close()
		n, _ = nctl.Read(buf)
		data, err := nsB.Open("/net/il/"+string(buf[:n])+"/data", vfs.ORDWR)
		if err != nil {
			return
		}
		defer data.Close()
		b := make([]byte, 256)
		rn, _ := data.Read(b)
		data.Write(b[:rn])
	}()
	time.Sleep(20 * time.Millisecond)

	ctl, err := nsA.Open("/net/il/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	buf := make([]byte, 16)
	n, _ := ctl.Read(buf)
	if _, err := ctl.WriteString("connect " + addrB.String() + "!17008"); err != nil {
		t.Fatal(err)
	}
	data, err := nsA.Open("/net/il/"+string(buf[:n])+"/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	data.WriteString("il says hi")
	got := make([]byte, 64)
	rn, err := data.Read(got)
	if err != nil || string(got[:rn]) != "il says hi" {
		t.Fatalf("il echo %q, %v", got[:rn], err)
	}
}

func TestBadCtlCommands(t *testing.T) {
	nsA, _, _, _ := world(t)
	ctl, err := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.WriteString("frobnicate"); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("unknown verb = %v", err)
	}
	if _, err := ctl.WriteString("connect"); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("connect without arg = %v", err)
	}
	if _, err := ctl.WriteString("connect not!an!address!at!all"); err == nil {
		t.Error("garbage address accepted")
	}
}

func TestConversationFreedOnLastClose(t *testing.T) {
	nsA, _, _, _ := world(t)
	ctl, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	buf := make([]byte, 8)
	n, _ := ctl.Read(buf)
	dir := "/net/tcp/" + string(buf[:n])
	if _, err := nsA.Stat(dir); err != nil {
		t.Fatalf("conv dir missing while ctl open: %v", err)
	}
	ctl.Close()
	if _, err := nsA.Stat(dir); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("conv dir survives last close: %v", err)
	}
	// The slot is reused by the next clone.
	ctl2, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	defer ctl2.Close()
	n, _ = ctl2.Read(buf)
	if string(buf[:n]) != "0" {
		t.Errorf("slot not reused: got %q", buf[:n])
	}
}

func TestCloneListsOnlyLiveConversations(t *testing.T) {
	nsA, _, _, _ := world(t)
	c0, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	defer c0.Close()
	c1, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	ents, _ := nsA.ReadDir("/net/tcp")
	if len(ents) != 4 { // clone + stats + 0 + 1
		t.Errorf("entries %d, want 4", len(ents))
	}
	c1.Close()
	ents, _ = nsA.ReadDir("/net/tcp")
	if len(ents) != 3 {
		t.Errorf("after close: %d entries, want 3", len(ents))
	}
	// The stats file reports the live conversation.
	b, err := nsA.ReadFile("/net/tcp/stats")
	if err != nil || !strings.HasPrefix(string(b), "tcp/0 ") {
		t.Errorf("stats file %q, %v", b, err)
	}
}

func TestHangupCtl(t *testing.T) {
	nsA, nsB, _, addrB := world(t)
	go func() {
		lctl, err := nsB.Open("/net/tcp/clone", vfs.ORDWR)
		if err != nil {
			return
		}
		defer lctl.Close()
		buf := make([]byte, 16)
		n, _ := lctl.Read(buf)
		lctl.WriteString("announce 23")
		nctl, err := nsB.Open("/net/tcp/"+string(buf[:n])+"/listen", vfs.ORDWR)
		if err == nil {
			defer nctl.Close()
			time.Sleep(200 * time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	ctl, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	defer ctl.Close()
	buf := make([]byte, 8)
	ctl.Read(buf)
	if _, err := ctl.WriteString("connect " + addrB.String() + "!23"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.WriteString("hangup"); err != nil {
		t.Errorf("hangup ctl: %v", err)
	}
}

// TestPushedModulesThroughCtl arms a conversation with the production
// line-discipline stack via the ctl file — "push compress", "push
// batch" — on both ends, exchanges traffic through the data files, and
// checks the per-conversation stats file reports balanced module
// counters. Then it pops the stack back off and verifies a bare pop is
// rejected.
func TestPushedModulesThroughCtl(t *testing.T) {
	nsA, nsB, _, addrB := world(t)

	const nmsg = 20
	srvReady := make(chan struct{})
	srvArmed := make(chan struct{}) // the accepted end has its stack
	go func() {
		lctl, err := nsB.Open("/net/tcp/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer lctl.Close()
		buf := make([]byte, 16)
		n, _ := lctl.Read(buf)
		if _, err := lctl.WriteString("announce 7777"); err != nil {
			t.Error(err)
			return
		}
		close(srvReady)
		nctl, err := nsB.Open("/net/tcp/"+string(buf[:n])+"/listen", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer nctl.Close()
		n, _ = nctl.Read(buf)
		ndir := "/net/tcp/" + string(buf[:n])
		// Arm the accepted conversation before touching data: both
		// ends of the wire must run the same stack in the same order.
		if _, err := nctl.WriteString("push compress"); err != nil {
			t.Error(err)
			return
		}
		if _, err := nctl.WriteString("push batch 256 1ms"); err != nil {
			t.Error(err)
			return
		}
		close(srvArmed)
		data, err := nsB.Open(ndir+"/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer data.Close()
		b := make([]byte, 4096)
		for i := 0; i < nmsg; i++ {
			rn, err := data.Read(b)
			if err != nil {
				t.Errorf("server read %d: %v", i, err)
				return
			}
			if _, err := data.Write(b[:rn]); err != nil {
				t.Errorf("server echo %d: %v", i, err)
				return
			}
		}
	}()
	<-srvReady
	time.Sleep(20 * time.Millisecond)

	ctl, err := nsA.Open("/net/tcp/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	buf := make([]byte, 16)
	n, _ := ctl.Read(buf)
	dir := "/net/tcp/" + string(buf[:n])

	// An undisciplined conversation has an empty stats file.
	if b, err := nsA.ReadFile(dir + "/stats"); err != nil || len(b) != 0 {
		t.Errorf("stats before connect: %q, %v", b, err)
	}
	if _, err := ctl.WriteString("connect " + addrB.String() + "!7777"); err != nil {
		t.Fatal(err)
	}
	// Live but undisciplined: the stats file exists and is empty.
	if b, err := nsA.ReadFile(dir + "/stats"); err != nil || len(b) != 0 {
		t.Errorf("stats before push: %q, %v", b, err)
	}
	if _, err := ctl.WriteString("push compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.WriteString("push batch 256 1ms"); err != nil {
		t.Fatal(err)
	}
	// A bad spec must not wedge the armed conversation.
	if _, err := ctl.WriteString("push batch nope"); err == nil {
		t.Error("bad push spec accepted")
	}

	data, err := nsA.Open(dir+"/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	// Traffic starts only once the far end is armed too: a message
	// that arrived before its pushes would reach it undecoded.
	select {
	case <-srvArmed:
	case <-time.After(5 * time.Second):
		t.Fatal("server never armed its conversation")
	}
	var sent int
	b := make([]byte, 4096)
	for i := 0; i < nmsg; i++ {
		msg := []byte(strings.Repeat("abcdefgh", i+1))
		sent += len(msg)
		if _, err := data.Write(msg); err != nil {
			t.Fatal(err)
		}
		rn, err := data.Read(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(b[:rn]) != string(msg) {
			t.Fatalf("echo %d: %d bytes back, want %d", i, rn, len(msg))
		}
	}

	// The stats file must parse back to balanced module counters.
	sb, err := nsA.ReadFile(dir + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := obs.ParseStats(string(sb))
	if st["batch-msgs-in"] != nmsg {
		t.Errorf("batch-msgs-in = %d, want %d:\n%s", st["batch-msgs-in"], nmsg, sb)
	}
	if st["batch-bytes-in"] != int64(sent) {
		t.Errorf("batch-bytes-in = %d, want %d", st["batch-bytes-in"], sent)
	}
	if st["compress-saved-bytes"]+st["compress-wire-bytes"] != st["compress-bytes-in"] {
		t.Errorf("compress identity broken:\n%s", sb)
	}
	if st["compress-dec-errs"] != 0 || st["batch-errs"] != 0 {
		t.Errorf("decode errors on a clean wire:\n%s", sb)
	}

	// Pop the stack back off; a third pop has nothing left to take.
	if _, err := ctl.WriteString("pop"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.WriteString("pop"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.WriteString("pop"); err == nil {
		t.Error("pop on an empty stack accepted")
	}
}
