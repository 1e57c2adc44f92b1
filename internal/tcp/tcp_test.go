package tcp

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/vfs"
	"repro/internal/xport"
)

func pair(t *testing.T, prof medium.Profile) (*Proto, *Proto, ip.Addr, ip.Addr) {
	t.Helper()
	seg := ether.NewSegment("e0", prof)
	t.Cleanup(seg.Close)
	s1, s2 := ip.NewStack(nil), ip.NewStack(nil)
	a1 := ip.Addr{135, 104, 117, 1}
	a2 := ip.Addr{135, 104, 117, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := s1.Bind(seg.NewInterface("ether0"), a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(seg.NewInterface("ether0"), a2, mask); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close(); s2.Close() })
	p1, p2 := New(s1), New(s2)
	// Engine teardown kills straggling conversations (a lost FIN can
	// strand a passive close) so their timers don't outlive the test.
	t.Cleanup(func() { p1.Close(); p2.Close() })
	return p1, p2, a1, a2
}

func connect(t *testing.T, p1, p2 *Proto, a2 ip.Addr, port string) (xport.Conn, xport.Conn) {
	t.Helper()
	lc, _ := p2.NewConn()
	if err := lc.Announce(port); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	acceptCh := make(chan xport.Conn, 1)
	go func() {
		nc, err := lc.Listen()
		if err == nil {
			acceptCh <- nc
		}
	}()
	dc, _ := p1.NewConn()
	if err := dc.Connect(a2.String() + "!" + port); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	select {
	case sc := <-acceptCh:
		t.Cleanup(func() { sc.Close() })
		return dc, sc
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

func TestHandshakeEcho(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	if dc.(*Conn).State() != "Established" || sc.(*Conn).State() != "Established" {
		t.Errorf("states %s / %s", dc.(*Conn).State(), sc.(*Conn).State())
	}
	dc.Write([]byte("hello tcp"))
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "hello tcp" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	sc.Write([]byte("right back"))
	n, err = dc.Read(buf)
	if err != nil || string(buf[:n]) != "right back" {
		t.Fatalf("reply %q, %v", buf[:n], err)
	}
}

func TestByteStreamDoesNotPreserveDelimiters(t *testing.T) {
	// §3: "TCP ... does not preserve delimiters." Two writes may be
	// read as one; the byte content must still be exact.
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	dc.Write([]byte("first"))
	dc.Write([]byte("second"))
	time.Sleep(50 * time.Millisecond) // let both segments land
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	for len(got) < len("firstsecond") {
		n, err = sc.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += string(buf[:n])
	}
	if got != "firstsecond" {
		t.Fatalf("stream bytes %q", got)
	}
}

func TestBulkTransfer(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 16*1024) // 256 KiB
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 32*1024)
		for len(got) < len(payload) {
			n, err := sc.Read(buf)
			if err != nil {
				return
			}
			got = append(got, buf[:n]...)
		}
	}()
	if n, err := dc.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write %d, %v", n, err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk transfer corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{Loss: 0.08, Seed: 11, Bandwidth: 1 << 26})
	dc, sc := connect(t, p1, p2, a2, "564")
	payload := bytes.Repeat([]byte("L"), 40*1024)
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 8192)
		for len(got) < len(payload) {
			n, err := sc.Read(buf)
			if err != nil {
				return
			}
			got = append(got, buf[:n]...)
		}
	}()
	dc.Write(payload)
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("lossy transfer corrupted (%d/%d bytes)", len(got), len(payload))
	}
	if p1.Retransmits.Load() == 0 {
		t.Log("note: loss pattern hit no data segments")
	}
}

func TestConnectionRefusedByRST(t *testing.T) {
	p1, _, _, a2 := pair(t, medium.Profile{})
	dc, _ := p1.NewConn()
	defer dc.Close()
	err := dc.Connect(a2.String() + "!9")
	if !vfs.SameError(err, vfs.ErrConnRef) {
		t.Errorf("refused connect = %v", err)
	}
}

func TestFINDeliversEOFAfterData(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	dc.Write([]byte("finale"))
	dc.Close()
	var got []byte
	buf := make([]byte, 64)
	for {
		n, err := sc.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read error %v (got %q)", err, got)
		}
	}
	if string(got) != "finale" {
		t.Errorf("data before FIN: %q", got)
	}
}

func TestCloseWithBufferedDataDrains(t *testing.T) {
	// Close immediately after a large write: every byte must still
	// arrive before EOF (FIN is sequenced after the data).
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	payload := bytes.Repeat([]byte("D"), 100*1024)
	go func() {
		dc.Write(payload)
		dc.Close()
	}()
	var got []byte
	buf := make([]byte, 16*1024)
	for {
		n, err := sc.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if len(got) != len(payload) {
		t.Fatalf("received %d of %d bytes before EOF", len(got), len(payload))
	}
}

func TestHalfClose(t *testing.T) {
	// After the client closes, the server (CloseWait) can still send.
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	dc.Write([]byte("request"))
	dc.Close()
	buf := make([]byte, 64)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "request" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	// Wait until the FIN arrives and the server is in CloseWait.
	deadline := time.Now().Add(2 * time.Second)
	for sc.(*Conn).State() != "Close_wait" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n, err := sc.Write([]byte("response")); err != nil || n != 8 {
		t.Fatalf("server write after client close: %d, %v", n, err)
	}
	got := make([]byte, 64)
	rn, err := dc.Read(got)
	if err != nil || string(got[:rn]) != "response" {
		t.Fatalf("client read after close %q, %v", got[:rn], err)
	}
}

func TestSequentialConnectionsSamePort(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{})
	lc, _ := p2.NewConn()
	if err := lc.Announce("7"); err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for i := range 4 {
		go func() {
			nc, err := lc.Listen()
			if err != nil {
				return
			}
			buf := make([]byte, 128)
			n, _ := nc.Read(buf)
			nc.Write(buf[:n])
			nc.Close()
		}()
		dc, _ := p1.NewConn()
		if err := dc.Connect(a2.String() + "!7"); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		dc.Write([]byte("echo?"))
		buf := make([]byte, 128)
		n, err := dc.Read(buf)
		if err != nil || string(buf[:n]) != "echo?" {
			t.Fatalf("echo %d: %q, %v", i, buf[:n], err)
		}
		dc.Close()
	}
}

func TestAnnounceCollisionAndBadAddrs(t *testing.T) {
	p1, _, _, _ := pair(t, medium.Profile{})
	a, _ := p1.NewConn()
	if err := a.Announce("80"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _ := p1.NewConn()
	defer b.Close()
	if err := b.Announce("80"); err != xport.ErrInUse {
		t.Errorf("duplicate announce = %v", err)
	}
	if err := b.Connect("nonsense"); err == nil {
		t.Error("bad connect address accepted")
	}
	if _, err := b.Listen(); err != xport.ErrNotAnnounced {
		t.Errorf("listen unannounced = %v", err)
	}
}

func TestStatusLines(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{})
	dc, sc := connect(t, p1, p2, a2, "564")
	if s := dc.Status(); len(s) < 11 || s[:11] != "Established" {
		t.Errorf("dialer status %q", s)
	}
	if s := sc.Status(); len(s) < 11 || s[:11] != "Established" {
		t.Errorf("server status %q", s)
	}
	if la := dc.LocalAddr(); la == "" {
		t.Error("empty local addr")
	}
	if ra := dc.RemoteAddr(); ra != a2.String()+"!564" {
		t.Errorf("remote addr %q", ra)
	}
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(src, dst uint16, seq, ack uint32, flags byte, win uint16, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		h := header{src: src, dst: dst, seq: seq, ack: ack, flags: flags, win: win}
		g, d, ok := unmarshal(marshal(h, data))
		return ok && g == h && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	pkt := marshal(header{src: 1, dst: 2, seq: 3, ack: 4, flags: flagACK}, []byte("zz"))
	pkt[5] ^= 0x01
	if _, _, ok := unmarshal(pkt); ok {
		t.Error("corrupted TCP segment accepted")
	}
	if _, _, ok := unmarshal(pkt[:8]); ok {
		t.Error("short segment accepted")
	}
}

func TestConcurrentConnections(t *testing.T) {
	p1, p2, _, a2 := pair(t, medium.Profile{})
	lc, _ := p2.NewConn()
	if err := lc.Announce("564"); err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	go func() {
		for {
			nc, err := lc.Listen()
			if err != nil {
				return
			}
			go func(nc xport.Conn) {
				defer nc.Close()
				buf := make([]byte, 1024)
				for {
					n, err := nc.Read(buf)
					if err != nil {
						return
					}
					nc.Write(buf[:n])
				}
			}(nc)
		}
	}()
	var wg sync.WaitGroup
	for i := range 6 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dc, _ := p1.NewConn()
			defer dc.Close()
			if err := dc.Connect(a2.String() + "!564"); err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			msg := bytes.Repeat([]byte{byte('a' + i)}, 300)
			dc.Write(msg)
			got := make([]byte, 0, len(msg))
			buf := make([]byte, 512)
			for len(got) < len(msg) {
				n, err := dc.Read(buf)
				if err != nil {
					t.Errorf("conn %d read: %v", i, err)
					return
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("conn %d echo corrupted", i)
			}
		}(i)
	}
	wg.Wait()
}
