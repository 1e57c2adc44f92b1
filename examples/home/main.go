// Home: the paper's slow-link story (§1): "9600 baud serial lines
// provide slow links to users at home. ... At home or when connected
// over a slow network, users tend to do most work on the CPU server
// to minimize traffic on the slow links."
//
// A home terminal hangs off helix over a serial line (/dev/eia1). The
// serial wire carries bytes, not messages, so the 9P mount uses the
// §2.1 marshaling adapter. The user then works "on the CPU server":
// instead of pulling a big file across the 9600-baud line, the remote
// end computes over it and ships back only the answer.
//
//	go run ./examples/home
package main

import (
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/uart"
	"repro/internal/vfs"
)

// endRWC adapts a UART end to io.ReadWriteCloser for the 9P adapter.
type endRWC struct{ e *uart.End }

func (w endRWC) Read(p []byte) (int, error) {
	n, err := w.e.Read(p)
	if n == 0 && err == nil {
		return 0, io.EOF
	}
	return n, err
}
func (w endRWC) Write(p []byte) (int, error) { return w.e.Write(p) }
func (w endRWC) Close() error                { return w.e.Close() }

func main() {
	world, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	helix := world.Machine("helix")

	// The phone line: 56k at home, because 9600 baud makes the demo
	// contemplative (the pacing is real — try it).
	line := uart.NewLine(nil)
	defer line.Close()
	homeEnd, cpuEnd := line.Ends()
	homeEnd.SetBaud(57600)
	cpuEnd.SetBaud(57600)

	// helix answers the modem: it exports its name space over the
	// serial byte stream.
	if err := helix.AttachUART(1, cpuEnd); err != nil {
		log.Fatal(err)
	}
	go exportfs.NewServer(helix.NS, exportfs.Config{}).ServeConn(ninep.NewStreamConn(endRWC{cpuEnd}))

	// The home machine: not in the world at all, just a name space
	// and the serial port.
	home := ns.New("philw", ramfs.New("philw").Root())
	cl, err := exportfs.Import(home, ninep.NewStreamConn(endRWC{homeEnd}), "", "/n/helix", ns.MREPL, mnt.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Put a day's work on the CPU server (as if it were always there).
	text := strings.Repeat("all work and no play makes plan 9 a dull system\n", 400)
	if err := home.WriteFile("/n/helix/tmp/novel.txt", []byte(text), 0664); err != nil {
		log.Fatal(err)
	}

	// The wrong way at 56k: pull the whole file home.
	//netvet:ignore realtime example measures real wall time
	start := time.Now()
	b, err := home.ReadFile("/n/helix/tmp/novel.txt")
	if err != nil {
		log.Fatal(err)
	}
	//netvet:ignore realtime example measures real wall time
	pull := time.Since(start)
	fmt.Printf("pulling %d bytes over the serial line: %v\n", len(b), pull)

	// The right way: do the work on the CPU server and move only the
	// result. Here the "computation" is wc -l, run where the data is.
	//netvet:ignore realtime example measures real wall time
	start = time.Now()
	lines := 0
	{
		// Remote process on helix, local to the data.
		fd, err := helix.NS.Open("/tmp/novel.txt", vfs.OREAD)
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, 32*1024)
		for {
			n, err := fd.Read(buf)
			lines += strings.Count(string(buf[:n]), "\n")
			if err != nil {
				break
			}
		}
		fd.Close()
		helix.NS.WriteFile("/tmp/novel.count", []byte(fmt.Sprint(lines)), 0664)
	}
	cnt, err := home.ReadFile("/n/helix/tmp/novel.count")
	if err != nil {
		log.Fatal(err)
	}
	//netvet:ignore realtime example measures real wall time
	remote := time.Since(start)
	fmt.Printf("running wc on the CPU server and fetching the count: %v (%s lines)\n", remote, cnt)
	fmt.Printf("the slow link moved %d bytes instead of %d\n", len(cnt), len(b))
}
