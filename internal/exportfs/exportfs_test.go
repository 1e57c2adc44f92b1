package exportfs

import (
	"testing"

	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// exportedNS builds a remote machine's name space with some structure
// and serves root over a pipe; returns the local client end.
func exported(t *testing.T, remote *ns.Namespace, root string) ninep.MsgConn {
	t.Helper()
	a, b := ninep.NewPipe(nil)
	go Serve(b, remote, root, nil)
	t.Cleanup(func() { a.Close() })
	return a
}

func TestImportWholeTree(t *testing.T) {
	rfs := ramfs.New("helix")
	rfs.WriteFile("lib/ndb/local", []byte("sys=helix\n"), 0664)
	remote := ns.New("helix", rfs.Root())

	local := ns.New("glenda", ramfs.New("glenda").Root())
	cl, err := Import(local, exported(t, remote, "/"), "", "/n/helix", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	b, err := local.ReadFile("/n/helix/lib/ndb/local")
	if err != nil || string(b) != "sys=helix\n" {
		t.Fatalf("imported read %q, %v", b, err)
	}
}

func TestImportSubtreeViaAname(t *testing.T) {
	rfs := ramfs.New("helix")
	rfs.WriteFile("a/b/c", []byte("deep"), 0664)
	remote := ns.New("helix", rfs.Root())
	local := ns.New("glenda", ramfs.New("glenda").Root())
	cl, err := Import(local, exported(t, remote, "/a"), "b", "/mnt", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b, err := local.ReadFile("/mnt/c")
	if err != nil || string(b) != "deep" {
		t.Fatalf("aname import read %q, %v", b, err)
	}
}

func TestExportRefusesMissingRoot(t *testing.T) {
	remote := ns.New("helix", ramfs.New("helix").Root())
	local := ns.New("glenda", ramfs.New("glenda").Root())
	_, err := Import(local, exported(t, remote, "/"), "missing", "/mnt", ns.MREPL)
	if !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("import of missing subtree = %v", err)
	}
}

func TestWritesPropagateBack(t *testing.T) {
	rfs := ramfs.New("helix")
	rfs.MkdirAll("tmp", 0775)
	remote := ns.New("helix", rfs.Root())
	local := ns.New("glenda", ramfs.New("glenda").Root())
	cl, err := Import(local, exported(t, remote, "/tmp"), "", "/r", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := local.WriteFile("/r/out", []byte("written remotely"), 0664); err != nil {
		t.Fatal(err)
	}
	b, err := rfs.ReadFile("tmp/out")
	if err != nil || string(b) != "written remotely" {
		t.Errorf("remote side saw %q, %v", b, err)
	}
	// Remove propagates too.
	if err := local.Remove("/r/out"); err != nil {
		t.Fatal(err)
	}
	if _, err := rfs.ReadFile("tmp/out"); err == nil {
		t.Error("remote file survived local remove")
	}
}

func TestExportFollowsRemoteMounts(t *testing.T) {
	// The §6.1 gateway property: the exporter's *name space* is
	// exported, so trees mounted on the remote machine are visible
	// through the import.
	rfs := ramfs.New("helix")
	rfs.MkdirAll("net", 0775)
	remote := ns.New("helix", rfs.Root())
	dev := ramfs.New("helix")
	dev.WriteFile("clone", []byte("tcp-clone"), 0666)
	remote.MountNode(dev.Root(), "/net/tcp", ns.MREPL)

	local := ns.New("glenda", ramfs.New("glenda").Root())
	cl, err := Import(local, exported(t, remote, "/net"), "", "/net", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b, err := local.ReadFile("/net/tcp/clone")
	if err != nil || string(b) != "tcp-clone" {
		t.Errorf("remote mount not visible through export: %q, %v", b, err)
	}
}

func TestImportAfterUnionsLikeThePaper(t *testing.T) {
	// philw-gnot% import -a musca /net — the union lists both local
	// and remote entries, local first.
	lfs := ramfs.New("gnot")
	lfs.WriteFile("net/cs", []byte("local"), 0666)
	lfs.WriteFile("net/dk", []byte("local"), 0666)
	local := ns.New("gnot", lfs.Root())

	rfs := ramfs.New("musca")
	for _, name := range []string{"cs", "dk", "dns", "ether", "il", "tcp", "udp"} {
		rfs.WriteFile("net/"+name, []byte("remote"), 0666)
	}
	remote := ns.New("musca", rfs.Root())

	cl, err := Import(local, exported(t, remote, "/net"), "", "/net", ns.MAFTER)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ents, err := local.ReadDir("/net")
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range ents {
		count[e.Name]++
	}
	if count["cs"] != 2 || count["dk"] != 2 {
		t.Errorf("cs/dk should list twice, got %v", count)
	}
	for _, name := range []string{"dns", "ether", "il", "tcp", "udp"} {
		if count[name] != 1 {
			t.Errorf("remote-only %s listed %d times", name, count[name])
		}
	}
	// Local supersedes remote.
	if b, _ := local.ReadFile("/net/cs"); string(b) != "local" {
		t.Errorf("/net/cs = %q, want local", b)
	}
	// Remote-only entries reachable.
	if b, _ := local.ReadFile("/net/tcp"); string(b) != "remote" {
		t.Errorf("/net/tcp = %q, want remote", b)
	}
}

func TestNestedExport(t *testing.T) {
	// A imports from B; C imports from A and sees B's files relayed
	// through two 9P hops — exportfs as a relay file server.
	bfs := ramfs.New("b")
	bfs.WriteFile("data", []byte("origin"), 0664)
	nsB := ns.New("b", bfs.Root())

	nsA := ns.New("a", ramfs.New("a").Root())
	pAB, pBA := ninep.NewPipe(nil)
	go Serve(pBA, nsB, "/", nil)
	clAB, err := Import(nsA, pAB, "", "/b", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer clAB.Close()

	nsC := ns.New("c", ramfs.New("c").Root())
	pCA, pAC := ninep.NewPipe(nil)
	go Serve(pAC, nsA, "/", nil)
	clCA, err := Import(nsC, pCA, "", "/a", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer clCA.Close()

	got, err := nsC.ReadFile("/a/b/data")
	if err != nil || string(got) != "origin" {
		t.Errorf("two-hop read %q, %v", got, err)
	}
}

func TestMountDriverDirectoryReads(t *testing.T) {
	rfs := ramfs.New("helix")
	rfs.WriteFile("d/x", nil, 0664)
	rfs.WriteFile("d/y", nil, 0664)
	rfs.WriteFile("d/z", nil, 0664)
	remote := ns.New("helix", rfs.Root())
	local := ns.New("glenda", ramfs.New("glenda").Root())
	cl, err := Import(local, exported(t, remote, "/"), "", "/r", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ents, err := local.ReadDir("/r/d")
	if err != nil || len(ents) != 3 {
		t.Fatalf("remote dir entries %v, %v", ents, err)
	}
	if ents[0].Name != "x" || ents[2].Name != "z" {
		t.Errorf("entry names %v", ents)
	}
}

func TestMountNodeDirectly(t *testing.T) {
	// mnt.Mount is usable without the Import wrapper.
	rfs := ramfs.New("srv")
	rfs.WriteFile("f", []byte("1"), 0664)
	remote := ns.New("srv", rfs.Root())
	a, b := ninep.NewPipe(nil)
	go Serve(b, remote, "/", nil)
	root, cl, err := mnt.Mount(a, "me", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n, err := root.Walk("f")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := n.Stat()
	if d.Length != 1 {
		t.Errorf("stat through mnt %+v", d)
	}
	h, err := n.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	rn, _ := h.Read(buf, 0)
	if string(buf[:rn]) != "1" {
		t.Errorf("read through mnt %q", buf[:rn])
	}
	h.Close()
}

func TestMkdirAndRemoveThroughImport(t *testing.T) {
	rfs := ramfs.New("srv")
	rfs.MkdirAll("work", 0775)
	remote := ns.New("srv", rfs.Root())
	local := ns.New("me", ramfs.New("me").Root())
	cl, err := Import(local, exported(t, remote, "/work"), "", "/w", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fd, err := local.Create("/w/subdir", vfs.DMDIR|0775, vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	fd.Close()
	d, err := remote.Stat("/work/subdir")
	if err != nil || !d.IsDir() {
		t.Fatalf("remote mkdir: %+v, %v", d, err)
	}
	if err := local.WriteFile("/w/subdir/file", []byte("deep"), 0664); err != nil {
		t.Fatal(err)
	}
	if err := local.Remove("/w/subdir/file"); err != nil {
		t.Fatal(err)
	}
	if err := local.Remove("/w/subdir"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Stat("/work/subdir"); err == nil {
		t.Error("remote directory survived removal")
	}
}

func TestStatWstatThroughImport(t *testing.T) {
	rfs := ramfs.New("srv")
	rfs.WriteFile("f", []byte("xyz"), 0664)
	remote := ns.New("srv", rfs.Root())
	local := ns.New("me", ramfs.New("me").Root())
	cl, err := Import(local, exported(t, remote, "/"), "", "/r", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d, err := local.Stat("/r/f")
	if err != nil || d.Length != 3 {
		t.Fatalf("remote stat %+v, %v", d, err)
	}
	if err := local.Wstat("/r/f", vfs.Dir{Name: "g"}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Stat("/g"); err != nil {
		t.Error("remote rename via wstat missing")
	}
}
