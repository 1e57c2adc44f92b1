// Package ns implements the per-process name space at the heart of the
// paper (§2.1): a mount table mapping points in a file hierarchy to
// file trees served by kernel devices or remote servers, with Plan 9's
// union-directory semantics (MREPL/MBEFORE/MAFTER/MCREATE). "Each
// process assembles a view of the system by building a name space
// connecting its resources."
//
// Differences from the kernel: mount points are canonical lexical
// paths rather than (device,qid) channel identities — the plan9port
// simplification — and union directory listings preserve duplicates,
// exactly as the paper's "ls /net" transcript shows after an import.
package ns

import (
	"io"
	"path"
	"strings"
	"sync"

	"repro/internal/vfs"
)

// Mount/bind flags, as in Plan 9's mount(2).
const (
	MREPL   = 0 // replace the mount point
	MBEFORE = 1 // union: search before existing entries
	MAFTER  = 2 // union: search after existing entries
	MORDER  = 3
	MCREATE = 4 // creations happen in this entry
)

// Namespace is one process's view of the system. It is safe for
// concurrent use; Clone gives a copy-on-write-free snapshot for a
// child process.
type Namespace struct {
	mu   sync.RWMutex
	user string
	root vfs.Node
	mnt  map[string][]entry
}

type entry struct {
	node   vfs.Node
	create bool
}

// New returns a name space rooted at root for the given user.
func New(user string, root vfs.Node) *Namespace {
	return &Namespace{user: user, root: root, mnt: make(map[string][]entry)}
}

// User returns the name space owner's name.
func (ns *Namespace) User() string { return ns.user }

// Clone returns an independent copy of the name space, as rfork(RFNAMEG)
// gives a child its own copy of the parent's name space.
func (ns *Namespace) Clone() *Namespace {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	c := New(ns.user, ns.root)
	for p, es := range ns.mnt {
		c.mnt[p] = append([]entry(nil), es...)
	}
	return c
}

// Clean canonicalizes a path within the name space.
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	return path.Clean(p)
}

func split(p string) []string {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// MountNode attaches a served tree (a device root, or a mount-driver
// node speaking 9P to a remote server) at mount point old. A union
// mount (MBEFORE/MAFTER) on a point with no prior mounts seeds the
// union with the underlying directory, so `bind -a` unions with the
// existing contents as in the kernel.
func (ns *Namespace) MountNode(root vfs.Node, old string, flag int) error {
	if root == nil {
		return vfs.ErrBadArg
	}
	old = Clean(old)
	var under vfs.Node
	if flag&MORDER != MREPL {
		ns.mu.RLock()
		_, have := ns.mnt[old]
		ns.mu.RUnlock()
		if !have {
			under, _ = ns.Walk(old)
		}
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if under != nil {
		if _, have := ns.mnt[old]; !have {
			ns.mnt[old] = []entry{{node: under}}
		}
	}
	e := entry{node: root, create: flag&MCREATE != 0}
	switch flag & MORDER {
	case MREPL:
		ns.mnt[old] = []entry{e}
	case MBEFORE:
		ns.mnt[old] = append([]entry{e}, ns.mnt[old]...)
	case MAFTER:
		ns.mnt[old] = append(ns.mnt[old], e)
	default:
		return vfs.ErrBadArg
	}
	return nil
}

// MountDevice attaches dev's tree (per spec) at old.
func (ns *Namespace) MountDevice(dev vfs.Device, spec, old string, flag int) error {
	root, err := dev.Attach(spec)
	if err != nil {
		return err
	}
	return ns.MountNode(root, old, flag)
}

// Bind makes the tree visible at name also visible at old, with union
// semantics controlled by flag, as bind(2) does.
func (ns *Namespace) Bind(name, old string, flag int) error {
	n, err := ns.Walk(name)
	if err != nil {
		return err
	}
	return ns.MountNode(n, old, flag)
}

// Unmount removes all mounts at old. It cannot unmount the root tree.
func (ns *Namespace) Unmount(old string) error {
	old = Clean(old)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.mnt[old]; !ok {
		return vfs.ErrNotExist
	}
	delete(ns.mnt, old)
	return nil
}

// candidates returns the union list in effect at canonical path p given
// the node reached by walking, or just {n} when p is not a mount point.
func (ns *Namespace) candidatesLocked(p string, n vfs.Node) []entry {
	if es, ok := ns.mnt[p]; ok {
		return es
	}
	if n == nil {
		return nil
	}
	return []entry{{node: n}}
}

// resolve walks name and returns the union candidate list at the final
// element plus the canonical path.
func (ns *Namespace) resolve(name string) ([]entry, string, error) {
	cname := Clean(name)
	elems := split(cname)
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	cur := ns.candidatesLocked("/", ns.root)
	walked := ""
	var lastErr error
	for _, el := range elems {
		var next vfs.Node
		lastErr = vfs.ErrNotExist
		for _, c := range cur {
			n, err := c.node.Walk(el)
			if err == nil {
				next = n
				break
			}
			lastErr = err
		}
		walked = walked + "/" + el
		if es, ok := ns.mnt[walked]; ok {
			// A mount on this exact path overrides the walk.
			cur = es
			continue
		}
		if next == nil {
			// The path may still lead to a pure mount point
			// deeper down (a device mounted on a name that only
			// exists in the mount table); keep descending with
			// no underlying candidates.
			if ns.mountsUnderLocked(walked) {
				cur = nil
				continue
			}
			return nil, "", lastErr
		}
		cur = []entry{{node: next}}
	}
	if len(cur) == 0 {
		return nil, "", vfs.ErrNotExist
	}
	return cur, cname, nil
}

// mountsUnderLocked reports whether any mount point lies strictly below
// the canonical path p.
func (ns *Namespace) mountsUnderLocked(p string) bool {
	prefix := p + "/"
	for k := range ns.mnt {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// Walk resolves name to the first node in the union at that path.
func (ns *Namespace) Walk(name string) (vfs.Node, error) {
	cands, _, err := ns.resolve(name)
	if err != nil {
		return nil, err
	}
	return cands[0].node, nil
}

// Stat returns the directory entry for name.
func (ns *Namespace) Stat(name string) (vfs.Dir, error) {
	n, err := ns.Walk(name)
	if err != nil {
		return vfs.Dir{}, err
	}
	return n.Stat()
}

// Wstat rewrites the attributes of name.
func (ns *Namespace) Wstat(name string, d vfs.Dir) error {
	n, err := ns.Walk(name)
	if err != nil {
		return err
	}
	w, ok := n.(vfs.Wstater)
	if !ok {
		return vfs.ErrPerm
	}
	return w.Wstat(d)
}

// Remove removes the file at name.
func (ns *Namespace) Remove(name string) error {
	n, err := ns.Walk(name)
	if err != nil {
		return err
	}
	r, ok := n.(vfs.Remover)
	if !ok {
		return vfs.ErrPerm
	}
	return r.Remove()
}

// Open opens name with the given mode and returns an FD.
func (ns *Namespace) Open(name string, mode int) (*FD, error) {
	cands, cname, err := ns.resolve(name)
	if err != nil {
		return nil, err
	}
	// A directory that is a union point reads as the concatenation
	// of its members.
	first := cands[0].node
	d, err := first.Stat()
	if err != nil {
		return nil, err
	}
	if d.IsDir() && len(cands) > 1 {
		if vfs.AccessMode(mode) != vfs.OREAD {
			return nil, vfs.ErrIsDir
		}
		var hs []vfs.Handle
		for _, c := range cands {
			if cd, err := c.node.Stat(); err != nil || !cd.IsDir() {
				continue
			}
			h, err := c.node.Open(vfs.OREAD)
			if err != nil {
				continue
			}
			hs = append(hs, h)
		}
		return &FD{ns: ns, name: cname, h: &unionHandle{hs: hs}, dir: d, isDir: true}, nil
	}
	h, err := first.Open(mode)
	if err != nil {
		return nil, err
	}
	return &FD{ns: ns, name: cname, h: h, dir: d, isDir: d.IsDir()}, nil
}

// Create creates name (a file, or a directory if perm&DMDIR) and opens
// it with mode. In a union, creation goes to the first member mounted
// with MCREATE, as in the kernel.
func (ns *Namespace) Create(name string, perm uint32, mode int) (*FD, error) {
	cname := Clean(name)
	dir, base := path.Split(cname)
	if base == "" || base == "/" {
		return nil, vfs.ErrBadArg
	}
	cands, _, err := ns.resolve(dir)
	if err != nil {
		return nil, err
	}
	var target vfs.Node
	if len(cands) == 1 {
		target = cands[0].node
	} else {
		for _, c := range cands {
			if c.create {
				target = c.node
				break
			}
		}
		if target == nil {
			return nil, vfs.ErrNoCreate
		}
	}
	cr, ok := target.(vfs.Creator)
	if !ok {
		return nil, vfs.ErrPerm
	}
	_, h, err := cr.Create(base, perm, mode)
	if err != nil {
		return nil, err
	}
	d := vfs.Dir{Name: base, Mode: perm}
	return &FD{ns: ns, name: cname, h: h, dir: d, isDir: perm&vfs.DMDIR != 0}, nil
}

// OpenOrCreate opens name for writing, creating it if necessary.
func (ns *Namespace) OpenOrCreate(name string, perm uint32, mode int) (*FD, error) {
	fd, err := ns.Open(name, mode)
	if err == nil {
		return fd, nil
	}
	return ns.Create(name, perm, mode)
}

// maxPresize caps what ReadFile allocates up front from a stat length,
// which a remote server supplies and may overstate.
const maxPresize = 16 << 20

// ReadFile reads the whole file at name. A read that fails before end
// of file returns the bytes read so far with the error.
func (ns *Namespace) ReadFile(name string) ([]byte, error) {
	fd, err := ns.Open(name, vfs.OREAD)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	// Reads land directly in out's spare capacity: no staging buffer,
	// no second copy. out is sized once from the length Open statted,
	// plus a spare chunk for the read that meets end of file; a length
	// of 0 (a stream) or a file that grew doubles it instead. Every
	// Read asks for a whole chunk at the offset reached, as any
	// sequential reader does.
	const chunk = 8192
	d, _ := fd.Stat()
	out := make([]byte, 0, chunk+int(min(max(d.Length, 0), maxPresize)))
	for {
		if cap(out)-len(out) < chunk {
			out = append(make([]byte, 0, 2*cap(out)), out...)
		}
		n, err := fd.Read(out[len(out) : len(out)+chunk])
		out = out[:len(out)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return out, err
		}
	}
}

// WriteFile writes data to the file at name, creating or truncating.
func (ns *Namespace) WriteFile(name string, data []byte, perm uint32) error {
	fd, err := ns.Open(name, vfs.OWRITE|vfs.OTRUNC)
	if err != nil {
		fd, err = ns.Create(name, perm, vfs.OWRITE)
		if err != nil {
			return err
		}
	}
	defer fd.Close()
	_, err = fd.Write(data)
	return err
}

// ReadDir lists the directory at name (union members concatenated).
func (ns *Namespace) ReadDir(name string) ([]vfs.Dir, error) {
	fd, err := ns.Open(name, vfs.OREAD)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return fd.ReadDir()
}
