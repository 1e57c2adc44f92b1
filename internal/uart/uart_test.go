package uart

import (
	"bytes"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/exportfs"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

func line(t *testing.T) (*End, *End) {
	t.Helper()
	l := NewLine(nil)
	t.Cleanup(l.Close)
	a, b := l.Ends()
	// Fast lines for functional tests.
	a.SetBaud(8_000_000)
	b.SetBaud(8_000_000)
	return a, b
}

func TestBytesCrossTheLine(t *testing.T) {
	a, b := line(t)
	a.Write([]byte("at your service"))
	buf := make([]byte, 64)
	got := []byte{}
	for len(got) < 15 {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "at your service" {
		t.Errorf("received %q", got)
	}
	// And back.
	b.Write([]byte("ok"))
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "ok" {
		t.Errorf("reverse %q, %v", buf[:n], err)
	}
}

func TestBaudPacing(t *testing.T) {
	l := NewLine(nil)
	defer l.Close()
	a, b := l.Ends()
	a.SetBaud(9600) // ~960 bytes/sec
	start := time.Now()
	a.Write(make([]byte, 96)) // ~100 ms on the wire
	buf := make([]byte, 128)
	got := 0
	for got < 96 {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	if el := time.Since(start); el < 70*time.Millisecond {
		t.Errorf("96 bytes at 9600 baud took only %v", el)
	}
}

func TestFileTreeAndCtl(t *testing.T) {
	a, _ := line(t)
	dev := NewDev("bootes")
	dev.Add(1, a)
	nsp := ns.New("bootes", ramfs.New("bootes").Root())
	if err := nsp.MountDevice(dev, "", "/dev", ns.MREPL); err != nil {
		t.Fatal(err)
	}
	// The paper's listing: eia1 and eia1ctl, flat in /dev.
	ents, err := nsp.ReadDir("/dev")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "eia1" || names[1] != "eia1ctl" {
		t.Fatalf("/dev entries %v", names)
	}
	// echo b1200 > /dev/eia1ctl (stty replaced by echo, §2.2).
	ctl, err := nsp.Open("/dev/eia1ctl", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.WriteString("b1200\n"); err != nil {
		t.Fatal(err)
	}
	if a.Baud() != 1200 {
		t.Errorf("baud %d after b1200", a.Baud())
	}
	buf := make([]byte, 16)
	n, _ := ctl.ReadAt(buf, 0)
	if string(buf[:n]) != "b1200" {
		t.Errorf("ctl read %q", buf[:n])
	}
	// Line-discipline words are accepted; garbage is not.
	if _, err := ctl.WriteString("l8"); err != nil {
		t.Errorf("l8 rejected: %v", err)
	}
	if _, err := ctl.WriteString("b9x"); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("bad baud accepted: %v", err)
	}
	if _, err := ctl.WriteString("zzz"); err == nil {
		t.Error("garbage ctl accepted")
	}
}

func TestDataFileThroughNamespace(t *testing.T) {
	a, b := line(t)
	dev := NewDev("bootes")
	dev.Add(1, a)
	nsp := ns.New("bootes", ramfs.New("bootes").Root())
	nsp.MountDevice(dev, "", "/dev", ns.MREPL)
	fd, err := nsp.Open("/dev/eia1", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	fd.WriteString("dial the modem")
	buf := make([]byte, 64)
	got := []byte{}
	for len(got) < 14 {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "dial the modem" {
		t.Errorf("peer received %q", got)
	}
}

func TestSerialDoesNotPreserveDelimiters(t *testing.T) {
	a, b := line(t)
	a.Write([]byte("one"))
	a.Write([]byte("two"))
	time.Sleep(20 * time.Millisecond) // let both arrive
	buf := make([]byte, 64)
	n, err := b.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reads may merge ("onetwo") — bytes, not messages.
	got := string(buf[:n])
	for len(got) < 6 {
		n, err = b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += string(buf[:n])
	}
	if got != "onetwo" {
		t.Errorf("byte stream %q", got)
	}
}

func TestFrameModuleOverSerial(t *testing.T) {
	// §2.4.1 in anger: push the frame module on both ends and the
	// raw byte line carries delimited messages again.
	a, b := line(t)
	if err := a.Stream().PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Stream().PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("first message"))
	a.Write([]byte("second"))
	buf := make([]byte, 64)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "first message" {
		t.Fatalf("framed read %q, %v", buf[:n], err)
	}
	n, _ = b.Read(buf)
	if string(buf[:n]) != "second" {
		t.Errorf("second framed read %q", buf[:n])
	}
}

func Test9PMountOverSerialLine(t *testing.T) {
	// A home user's slow link: mount a file tree across the UART
	// using the ninep marshaling adapter over the byte stream.
	a, b := line(t)
	rfs := ramfs.New("home")
	rfs.WriteFile("mail/inbox", []byte("You have mail.\n"), 0664)
	remote := ns.New("home", rfs.Root())
	go exportfs.Serve(ninep.NewStreamConn(endRWC{b}), remote, "/", nil)

	local := ns.New("user", ramfs.New("user").Root())
	cl, err := exportfs.Import(local, ninep.NewStreamConn(endRWC{a}), "", "/n/home", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := local.ReadFile("/n/home/mail/inbox")
	if err != nil || !bytes.Equal(got, []byte("You have mail.\n")) {
		t.Fatalf("9P over serial: %q, %v", got, err)
	}
}

// endRWC adapts an End to io.ReadWriteCloser.
type endRWC struct{ e *End }

func (w endRWC) Read(p []byte) (int, error) {
	n, err := w.e.Read(p)
	if n == 0 && err == nil {
		return 0, io.EOF
	}
	return n, err
}
func (w endRWC) Write(p []byte) (int, error) { return w.e.Write(p) }
func (w endRWC) Close() error                { return w.e.Close() }

func TestHangupOnClose(t *testing.T) {
	l := NewLine(nil)
	a, b := l.Ends()
	a.SetBaud(1_000_000)
	a.Write([]byte("bye"))
	buf := make([]byte, 16)
	n, _ := b.Read(buf)
	if string(buf[:n]) != "bye" {
		t.Fatalf("read %q", buf[:n])
	}
	l.Close()
	if _, err := b.Read(buf); err == nil {
		t.Error("read after line close succeeded")
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("write after line close succeeded")
	}
}
