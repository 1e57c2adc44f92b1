package udp

import (
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/xport"
)

func pair(t *testing.T) (*Proto, *Proto, ip.Addr, ip.Addr) {
	t.Helper()
	seg := ether.NewSegment("e0", medium.Profile{})
	t.Cleanup(seg.Close)
	s1, s2 := ip.NewStack(nil), ip.NewStack(nil)
	a1 := ip.Addr{10, 0, 0, 1}
	a2 := ip.Addr{10, 0, 0, 2}
	mask := ip.Addr{255, 255, 255, 0}
	if _, err := s1.Bind(seg.NewInterface("e"), a1, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Bind(seg.NewInterface("e"), a2, mask); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close(); s2.Close() })
	return New(s1), New(s2), a1, a2
}

func read(t *testing.T, c xport.Conn, buf []byte) int {
	t.Helper()
	type res struct {
		n   int
		err error
	}
	ch := make(chan res, 1)
	go func() {
		n, err := c.Read(buf)
		ch <- res{n, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.n
	case <-time.After(2 * time.Second):
		t.Fatal("udp read timed out")
		return 0
	}
}

func TestConnectedDatagrams(t *testing.T) {
	p1, p2, a1, a2 := pair(t)
	srv, _ := p2.NewConn()
	if err := srv.Announce("53"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, _ := p1.NewConn()
	if err := cli.Connect(ip.HostPort(a2, 53)); err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Write([]byte("query"))
	// Announced conversations read in headers mode.
	buf := make([]byte, 256)
	n := read(t, srv, buf)
	if n < AddrHdrLen {
		t.Fatalf("short headers-mode read %d", n)
	}
	var from ip.Addr
	copy(from[:], buf[:4])
	if from != a1 {
		t.Errorf("headers-mode source %v, want %v", from, a1)
	}
	if string(buf[AddrHdrLen:n]) != "query" {
		t.Errorf("payload %q", buf[AddrHdrLen:n])
	}
	// Reply through the same prefix.
	reply := append(append([]byte{}, buf[:AddrHdrLen]...), []byte("answer")...)
	if _, err := srv.Write(reply); err != nil {
		t.Fatal(err)
	}
	n = read(t, cli, buf)
	if string(buf[:n]) != "answer" {
		t.Errorf("client got %q", buf[:n])
	}
}

func TestConnectedFiltersOtherPeers(t *testing.T) {
	p1, p2, _, a2 := pair(t)
	srv, _ := p2.NewConn()
	srv.Announce("99")
	defer srv.Close()
	cli, _ := p1.NewConn()
	cli.Connect(ip.HostPort(a2, 99))
	defer cli.Close()
	// A datagram from a different local port must not reach cli.
	other, _ := p2.NewConn()
	other.Announce("98")
	defer other.Close()
	cli.Write([]byte("hello")) // learn cli's port on srv
	buf := make([]byte, 256)
	n := read(t, srv, buf)
	hdr := append([]byte{}, buf[:AddrHdrLen]...)
	// Send to cli from the WRONG port (98, not 99).
	other.Write(append(hdr, []byte("spoof")...))
	// And the real reply from 99.
	srv.Write(append(hdr, []byte("genuine")...))
	n = read(t, cli, buf)
	if string(buf[:n]) != "genuine" {
		t.Errorf("connected conversation accepted %q", buf[:n])
	}
}

func TestDatagramBoundariesPreserved(t *testing.T) {
	p1, p2, _, a2 := pair(t)
	srv, _ := p2.NewConn()
	srv.Announce("7")
	defer srv.Close()
	cli, _ := p1.NewConn()
	cli.Connect(ip.HostPort(a2, 7))
	defer cli.Close()
	cli.Write([]byte("one"))
	cli.Write([]byte("two two"))
	buf := make([]byte, 256)
	n := read(t, srv, buf)
	if string(buf[AddrHdrLen:n]) != "one" {
		t.Errorf("first datagram %q", buf[AddrHdrLen:n])
	}
	n = read(t, srv, buf)
	if string(buf[AddrHdrLen:n]) != "two two" {
		t.Errorf("second datagram %q", buf[AddrHdrLen:n])
	}
}

func TestPortCollisionAndRelease(t *testing.T) {
	p1, _, _, _ := pair(t)
	a, _ := p1.NewConn()
	if err := a.Announce("53"); err != nil {
		t.Fatal(err)
	}
	b, _ := p1.NewConn()
	if err := b.Announce("53"); err != xport.ErrInUse {
		t.Errorf("duplicate announce = %v", err)
	}
	a.Close()
	if err := b.Announce("53"); err != nil {
		t.Errorf("after release: %v", err)
	}
	b.Close()
}

func TestWriteErrors(t *testing.T) {
	p1, _, _, _ := pair(t)
	c, _ := p1.NewConn()
	defer c.Close()
	if _, err := c.Write([]byte("x")); err != xport.ErrNotConnected {
		t.Errorf("unbound write = %v", err)
	}
	if err := c.Connect("not an address"); err == nil {
		t.Error("bad address accepted")
	}
	if err := c.Connect("10.0.0.2!0"); err == nil {
		t.Error("port 0 connect accepted")
	}
	if _, err := c.Listen(); err == nil {
		t.Error("udp listen succeeded")
	}
}

func TestStatusAndAddrs(t *testing.T) {
	p1, _, _, a2 := pair(t)
	c, _ := p1.NewConn()
	if c.Status() != "Open" {
		t.Errorf("fresh status %q", c.Status())
	}
	c.Connect(ip.HostPort(a2, 9))
	if c.Status() != "Connected" {
		t.Errorf("connected status %q", c.Status())
	}
	if c.RemoteAddr() != ip.HostPort(a2, 9) {
		t.Errorf("remote %q", c.RemoteAddr())
	}
	c.Close()
	if c.Status() != "Closed" {
		t.Errorf("closed status %q", c.Status())
	}
	a, _ := p1.NewConn()
	a.Announce("111")
	if a.Status() != "Announced" {
		t.Errorf("announced status %q", a.Status())
	}
	a.Close()
}

func TestOversizeAndRunt(t *testing.T) {
	p1, p2, _, a2 := pair(t)
	srv, _ := p2.NewConn()
	srv.Announce("5")
	defer srv.Close()
	cli, _ := p1.NewConn()
	cli.Connect(ip.HostPort(a2, 5))
	defer cli.Close()
	// Over-MTU datagrams are rejected by IP.
	if _, err := cli.Write(make([]byte, 2000)); err == nil {
		t.Error("over-MTU datagram sent")
	}
	// Empty datagrams carry.
	if _, err := cli.Write(nil); err != nil {
		t.Errorf("empty datagram: %v", err)
	}
	buf := make([]byte, 64)
	if n := read(t, srv, buf); n != AddrHdrLen {
		t.Errorf("empty datagram read %d bytes", n)
	}
}
