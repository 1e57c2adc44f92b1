package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dialer"
	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/vfs"
)

// TestCpuSession reproduces §6's cpu: the remote process's name space
// is an analogue of the terminal's window — the terminal serves its
// files over the call with exportfs, the CPU server mounts them at
// /mnt/term in the session's own (cloned) name space, computes, and
// writes the result back into the terminal.
func TestCpuSession(t *testing.T) {
	w := paperWorld(t)
	helix := w.Machine("helix")
	musca := w.Machine("musca") // the terminal

	done := make(chan string, 1)
	if _, err := helix.Serve("il!*!cpu", func(nsp *ns.Namespace, conn *dialer.Conn) {
		root, cl, err := mnt.Mount(ninep.NewDelimConn(conn), nsp.User(), "", mnt.Config{})
		if err != nil {
			done <- err.Error()
			return
		}
		defer cl.Close()
		if err := nsp.MountNode(root, "/mnt/term", ns.MREPL); err != nil {
			done <- err.Error()
			return
		}
		b, err := nsp.ReadFile("/mnt/term/tmp/in")
		if err != nil {
			done <- err.Error()
			return
		}
		out := strings.ToUpper(string(b))
		if err := nsp.WriteFile("/mnt/term/tmp/out", []byte(out), 0664); err != nil {
			done <- err.Error()
			return
		}
		done <- "ok"
	}); err != nil {
		t.Fatal(err)
	}

	if err := musca.NS.WriteFile("/tmp/in", []byte("shout this"), 0664); err != nil {
		t.Fatal(err)
	}
	conn, err := dialer.Dial(musca.NS, "il!helix!cpu")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go exportfs.NewServer(musca.NS, exportfs.Config{}).ServeConn(ninep.NewDelimConn(conn))

	select {
	case msg := <-done:
		if msg != "ok" {
			t.Fatal(msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cpu session never completed")
	}
	b, err := musca.NS.ReadFile("/tmp/out")
	if err != nil || string(b) != "SHOUT THIS" {
		t.Fatalf("terminal result %q, %v", b, err)
	}

	// The session ran in a cloned name space: the machine's own view
	// has no /mnt/term.
	if _, err := helix.NS.Stat("/mnt/term"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("session mount leaked into the machine name space: %v", err)
	}
}
