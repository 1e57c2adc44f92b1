package ns

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/devtree"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

func newNS(t *testing.T) (*Namespace, *ramfs.FS) {
	t.Helper()
	fs := ramfs.New("glenda")
	return New("glenda", fs.Root()), fs
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"":              "/",
		"/":             "/",
		"net":           "/net",
		"/net/":         "/net",
		"/net/../dev":   "/dev",
		"/a//b/./c":     "/a/b/c",
		"/../..":        "/",
		"/net/tcp/0/..": "/net/tcp",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOpenReadWriteThroughNS(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("dir/file", []byte("hello world"), 0664)
	fd, err := nsp.Open("/dir/file", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 5)
	if _, err := io.ReadFull(fd, b); err != nil || string(b) != "hello" {
		t.Fatalf("read %q, %v", b, err)
	}
	// Sequential reads advance the offset.
	if _, err := io.ReadFull(fd, b); err != nil || string(b) != " worl" {
		t.Fatalf("second read %q, %v", b, err)
	}
	fd.Close()
	if fd.Name() != "/dir/file" {
		t.Errorf("fd name %q", fd.Name())
	}
}

func TestReadAtEOF(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("x"), 0664)
	fd, _ := nsp.Open("/f", vfs.OREAD)
	defer fd.Close()
	b := make([]byte, 4)
	n, _ := fd.Read(b)
	if n != 1 {
		t.Fatalf("first read %d", n)
	}
	if _, err := fd.Read(b); err != io.EOF {
		t.Errorf("EOF read error = %v", err)
	}
}

func TestSeek(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("0123456789"), 0664)
	fd, _ := nsp.Open("/f", vfs.OREAD)
	defer fd.Close()
	if off, _ := fd.Seek(4, io.SeekStart); off != 4 {
		t.Errorf("seek start: %d", off)
	}
	b := make([]byte, 2)
	fd.Read(b)
	if string(b) != "45" {
		t.Errorf("after seek read %q", b)
	}
	if off, _ := fd.Seek(-1, io.SeekCurrent); off != 5 {
		t.Errorf("seek current: %d", off)
	}
	if off, _ := fd.Seek(-2, io.SeekEnd); off != 8 {
		t.Errorf("seek end: %d", off)
	}
	if _, err := fd.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
}

func TestCreateRemoveThroughNS(t *testing.T) {
	nsp, _ := newNS(t)
	fd, err := nsp.Create("/newfile", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("data")
	fd.Close()
	b, err := nsp.ReadFile("/newfile")
	if err != nil || string(b) != "data" {
		t.Fatalf("read created file: %q, %v", b, err)
	}
	if err := nsp.Remove("/newfile"); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.Open("/newfile", vfs.OREAD); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("open after remove = %v", err)
	}
}

func TestWriteFileHelper(t *testing.T) {
	nsp, _ := newNS(t)
	if err := nsp.WriteFile("/f", []byte("one"), 0664); err != nil {
		t.Fatal(err)
	}
	if err := nsp.WriteFile("/f", []byte("2"), 0664); err != nil {
		t.Fatal(err)
	}
	b, _ := nsp.ReadFile("/f")
	if string(b) != "2" {
		t.Errorf("after rewrite %q", b)
	}
}

func TestMountReplacesTree(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("net", 0775)
	other := ramfs.New("glenda")
	other.WriteFile("tcp/clone", nil, 0666)
	if err := nsp.MountNode(other.Root(), "/net", MREPL); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.Stat("/net/tcp/clone"); err != nil {
		t.Errorf("mounted file missing: %v", err)
	}
}

func TestMountOnNonexistentPoint(t *testing.T) {
	// Mounting on a name that has no underlying file still works:
	// the mount table supplies the tree (used for kernel devices).
	nsp, _ := newNS(t)
	dev := ramfs.New("glenda")
	dev.WriteFile("inside", []byte("ok"), 0664)
	if err := nsp.MountNode(dev.Root(), "/purely/virtual", MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := nsp.ReadFile("/purely/virtual/inside")
	if err != nil || string(b) != "ok" {
		t.Errorf("virtual mount read: %q, %v", b, err)
	}
}

func TestUnionAfterPreservesDuplicatesAndPrecedence(t *testing.T) {
	// Reproduces the paper's §6.1 transcript: import -a musca /net
	// lists /net/cs and /net/dk twice, and local entries supersede
	// remote ones of the same name.
	nsp, fs := newNS(t)
	fs.MkdirAll("net", 0775)
	fs.WriteFile("net/cs", []byte("local-cs"), 0666)
	fs.WriteFile("net/dk", []byte("local-dk"), 0666)

	remote := ramfs.New("musca")
	remote.WriteFile("cs", []byte("remote-cs"), 0666)
	remote.WriteFile("dk", []byte("remote-dk"), 0666)
	remote.WriteFile("tcp", []byte("remote-tcp"), 0666)
	remote.WriteFile("il", []byte("remote-il"), 0666)

	localNet, err := nsp.Walk("/net")
	if err != nil {
		t.Fatal(err)
	}
	if err := nsp.MountNode(localNet, "/net", MREPL); err != nil {
		t.Fatal(err)
	}
	if err := nsp.MountNode(remote.Root(), "/net", MAFTER); err != nil {
		t.Fatal(err)
	}

	ents, err := nsp.ReadDir("/net")
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range ents {
		count[e.Name]++
	}
	if count["cs"] != 2 || count["dk"] != 2 {
		t.Errorf("union listing counts %v, want cs and dk twice", count)
	}
	if count["tcp"] != 1 || count["il"] != 1 {
		t.Errorf("unique remote entries %v", count)
	}
	// Local supersedes remote on walk.
	b, err := nsp.ReadFile("/net/cs")
	if err != nil || string(b) != "local-cs" {
		t.Errorf("/net/cs = %q, %v (want local)", b, err)
	}
	// Unique remote entries are reachable.
	b, err = nsp.ReadFile("/net/tcp")
	if err != nil || string(b) != "remote-tcp" {
		t.Errorf("/net/tcp = %q, %v (want remote)", b, err)
	}
}

func TestUnionBefore(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("bin", 0775)
	fs.WriteFile("bin/tool", []byte("system"), 0775)
	mine := ramfs.New("glenda")
	mine.WriteFile("tool", []byte("mine"), 0775)
	local, _ := nsp.Walk("/bin")
	nsp.MountNode(local, "/bin", MREPL)
	nsp.MountNode(mine.Root(), "/bin", MBEFORE)
	b, err := nsp.ReadFile("/bin/tool")
	if err != nil || string(b) != "mine" {
		t.Errorf("MBEFORE precedence: %q, %v", b, err)
	}
}

func TestUnionCreateFlag(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("u", 0775)
	a := ramfs.New("glenda")
	b := ramfs.New("glenda")
	local, _ := nsp.Walk("/u")
	nsp.MountNode(local, "/u", MREPL)
	nsp.MountNode(a.Root(), "/u", MAFTER) // no MCREATE
	// With no MCREATE member, creation is refused.
	if _, err := nsp.Create("/u/f", 0664, vfs.OWRITE); !vfs.SameError(err, vfs.ErrNoCreate) {
		t.Errorf("create in non-MCREATE union = %v", err)
	}
	nsp.MountNode(b.Root(), "/u", MAFTER|MCREATE)
	fd, err := nsp.Create("/u/f", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("x")
	fd.Close()
	if _, err := b.ReadFile("f"); err != nil {
		t.Errorf("creation did not land in MCREATE member: %v", err)
	}
	if _, err := a.ReadFile("f"); err == nil {
		t.Error("creation landed in non-MCREATE member")
	}
}

func TestBind(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("dev/eia1", []byte("uart"), 0666)
	if err := nsp.Bind("/dev", "/serial", MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := nsp.ReadFile("/serial/eia1")
	if err != nil || string(b) != "uart" {
		t.Errorf("bound read %q, %v", b, err)
	}
	if err := nsp.Bind("/missing", "/x", MREPL); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("bind missing source = %v", err)
	}
}

func TestUnmount(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("mnt", 0775)
	other := ramfs.New("u")
	other.WriteFile("f", []byte("1"), 0664)
	nsp.MountNode(other.Root(), "/mnt", MREPL)
	if _, err := nsp.ReadFile("/mnt/f"); err != nil {
		t.Fatal(err)
	}
	if err := nsp.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.ReadFile("/mnt/f"); err == nil {
		t.Error("file visible after unmount")
	}
	if err := nsp.Unmount("/mnt"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("double unmount = %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("net", 0775)
	child := nsp.Clone()
	other := ramfs.New("u")
	other.WriteFile("f", []byte("child-only"), 0664)
	child.MountNode(other.Root(), "/net", MREPL)
	if _, err := child.ReadFile("/net/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.ReadFile("/net/f"); err == nil {
		t.Error("child mount leaked into parent name space")
	}
	if child.User() != "glenda" {
		t.Errorf("clone user %q", child.User())
	}
}

func TestMountUnderMount(t *testing.T) {
	nsp, _ := newNS(t)
	outer := ramfs.New("u")
	outer.MkdirAll("sub", 0775)
	inner := ramfs.New("u")
	inner.WriteFile("deep", []byte("d"), 0664)
	nsp.MountNode(outer.Root(), "/m", MREPL)
	nsp.MountNode(inner.Root(), "/m/sub", MREPL)
	b, err := nsp.ReadFile("/m/sub/deep")
	if err != nil || string(b) != "d" {
		t.Errorf("nested mount read %q, %v", b, err)
	}
}

func TestStatAndWstatThroughNS(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("abc"), 0664)
	d, err := nsp.Stat("/f")
	if err != nil || d.Length != 3 {
		t.Fatalf("stat %+v, %v", d, err)
	}
	if err := nsp.Wstat("/f", vfs.Dir{Name: "g"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.Stat("/g"); err != nil {
		t.Errorf("renamed via wstat missing: %v", err)
	}
}

func TestDirFDReadDirAndRawRead(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("d/one", nil, 0664)
	fs.WriteFile("d/two", nil, 0664)
	fd, err := nsp.Open("/d", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if !fd.IsDir() {
		t.Error("directory fd not marked as dir")
	}
	ents, err := fd.ReadDir()
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir %v, %v", ents, err)
	}
	buf := make([]byte, 4*vfs.DirRecLen)
	n, err := fd.Read(buf)
	if err != nil || n != 2*vfs.DirRecLen {
		t.Errorf("raw dir read = %d, %v", n, err)
	}
}

func TestDevtreeUnderNS(t *testing.T) {
	// A synthetic device mounts and reads like any file tree.
	ctlLog := ""
	ctl := &devtree.FileNode{
		Entry: devtree.MkFile("ctl", "net", 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			return &devtree.CtlHandle{
				Cmd: func(cmd string) error { ctlLog = cmd; return nil },
				Get: func() (string, error) { return "7", nil },
			}, nil
		},
	}
	status := devtree.TextFile(devtree.MkFile("status", "net", 0444),
		func() (string, error) { return "Established", nil })
	dir := devtree.StaticDir(devtree.MkDir("x", "net", 0555),
		map[string]vfs.Node{"ctl": ctl, "status": status}, []string{"ctl", "status"})

	nsp, _ := newNS(t)
	nsp.MountNode(dir, "/net/x", MREPL)
	fd, err := nsp.Open("/net/x/ctl", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("b1200\n")
	if ctlLog != "b1200" {
		t.Errorf("ctl cmd %q", ctlLog)
	}
	b := make([]byte, 8)
	n, _ := fd.ReadAt(b, 0)
	if string(b[:n]) != "7" {
		t.Errorf("ctl read %q", b[:n])
	}
	fd.Close()
	b2, err := nsp.ReadFile("/net/x/status")
	if err != nil || string(b2) != "Established" {
		t.Errorf("status %q, %v", b2, err)
	}
	ents, _ := nsp.ReadDir("/net/x")
	if len(ents) != 2 || ents[0].Name != "ctl" {
		t.Errorf("device dir entries %+v", ents)
	}
}

// Property: Clean is idempotent, always absolute, and never emits "."
// or ".." components.
func TestCleanQuick(t *testing.T) {
	f := func(parts []string) bool {
		p := strings.Join(parts, "/")
		c := Clean(p)
		if c == "" || c[0] != '/' {
			return false
		}
		if Clean(c) != c {
			return false
		}
		for _, el := range strings.Split(c[1:], "/") {
			if el == "." || el == ".." {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// hangupNode is a file whose reads fail after the first chunk, as a
// connection's data file does when the far end hangs up mid-transfer.
type hangupNode struct{}

type hangupHandle struct{}

var errHangup = errors.New("hangup")

func (hangupNode) Stat() (vfs.Dir, error)        { return vfs.Dir{Name: "data", Mode: 0444}, nil }
func (hangupNode) Walk(string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (hangupNode) Open(int) (vfs.Handle, error)  { return hangupHandle{}, nil }

func (hangupHandle) Read(p []byte, off int64) (int, error) {
	if off > 0 {
		return 0, errHangup
	}
	return copy(p, "first chunk"), nil
}
func (hangupHandle) Write([]byte, int64) (int, error) { return 0, vfs.ErrPerm }
func (hangupHandle) Close() error                     { return nil }

func TestReadFileReportsMidFileError(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("data", nil, 0444)
	if err := nsp.MountNode(hangupNode{}, "/data", MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := nsp.ReadFile("/data")
	if !errors.Is(err, errHangup) {
		t.Errorf("ReadFile error = %v, want the hangup", err)
	}
	if string(b) != "first chunk" {
		t.Errorf("ReadFile bytes = %q, want the chunk read before the error", b)
	}
	// A clean end of file is still no error.
	fs.WriteFile("whole", []byte("all of it"), 0664)
	if b, err := nsp.ReadFile("/whole"); err != nil || string(b) != "all of it" {
		t.Errorf("ReadFile at EOF = %q, %v", b, err)
	}
}
