package repro

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blockstore"
)

// memFS is an in-memory blockstore.FS that records every operation that
// changes what a crash could leave, so that a test can rebuild each of those
// states (crashStates). It models durability as ALICE (Pillai et al., OSDI
// 2014) and CrashMonkey (Mohan et al., OSDI 2018) do: a file's bytes are
// durable only once the file is fsync'd or fdatasync'd, and a directory entry
// — a creation, a rename, a removal — only once its directory is. A rename is
// one operation, durable once either of its directories is synced. A
// directory is durable from its MkdirAll on: a store makes its directories at
// its first open, before anything goes into them.
type memFS struct {
	mu    sync.Mutex
	live  fsImage
	ino   int // the next inode number
	temps int // names CreateTemp has handed out

	record bool
	ops    []fsOp
	phase  string // what the scenario is doing; each op is tagged with it
}

// fsImage is a file system's content: inode → bytes, directory → name →
// inode. A content slice is never written in place, so images share them.
type fsImage struct {
	files map[int][]byte
	dirs  map[string]map[string]int
}

func newImage() fsImage {
	return fsImage{files: make(map[int][]byte), dirs: make(map[string]map[string]int)}
}

func (im fsImage) clone() fsImage {
	c := fsImage{files: make(map[int][]byte, len(im.files)), dirs: make(map[string]map[string]int, len(im.dirs))}
	for ino, b := range im.files {
		c.files[ino] = b
	}
	for d, ents := range im.dirs {
		m := make(map[string]int, len(ents))
		for name, ino := range ents {
			m[name] = ino
		}
		c.dirs[d] = m
	}
	return c
}

type opKind uint8

const (
	opWrite opKind = iota
	opTruncate
	opCreate
	opRename
	opRemove
	opFsync
	opFdatasync
	opDirSync
	opMkdir
	opCorrupt // the medium changes a file's bytes under the store: durable at once
)

var opNames = [...]string{"write", "truncate", "create", "rename", "remove", "fsync", "fdatasync", "dirsync", "mkdir", "corrupt"}

// fsOp is one recorded operation. dir/name is the entry a create, remove or
// rename source names, or the directory a dirsync or mkdir does; dir2/name2
// a rename's target.
type fsOp struct {
	kind       opKind
	ino        int
	off        int64  // a write's offset, a truncate's size
	data       []byte // a write's bytes; a corrupt's new content
	dir, name  string
	dir2, nam2 string
	phase      string
}

func (op fsOp) String() string {
	switch op.kind {
	case opWrite:
		return fmt.Sprintf("write ino %d [%d,+%d)", op.ino, op.off, len(op.data))
	case opTruncate:
		return fmt.Sprintf("truncate ino %d to %d", op.ino, op.off)
	case opFsync, opFdatasync, opCorrupt:
		return fmt.Sprintf("%s ino %d", opNames[op.kind], op.ino)
	case opRename:
		return fmt.Sprintf("rename %s -> %s", filepath.Join(op.dir, op.name), filepath.Join(op.dir2, op.nam2))
	case opDirSync, opMkdir:
		return fmt.Sprintf("%s %s", opNames[op.kind], op.dir)
	}
	return fmt.Sprintf("%s %s", opNames[op.kind], filepath.Join(op.dir, op.name))
}

func (op fsOp) dataOp() bool { return op.kind == opWrite || op.kind == opTruncate }
func (op fsOp) dirOp() bool  { return op.kind == opCreate || op.kind == opRename || op.kind == opRemove }

// apply makes op's change to im.
func (im fsImage) apply(op fsOp) {
	switch op.kind {
	case opWrite:
		old := im.files[op.ino]
		b := make([]byte, max(int64(len(old)), op.off+int64(len(op.data))))
		copy(b, old)
		copy(b[op.off:], op.data)
		im.files[op.ino] = b
	case opTruncate:
		b := make([]byte, op.off)
		copy(b, im.files[op.ino])
		im.files[op.ino] = b
	case opCorrupt:
		im.files[op.ino] = op.data
	case opCreate:
		im.dirs[op.dir][op.name] = op.ino
		if _, ok := im.files[op.ino]; !ok {
			im.files[op.ino] = nil
		}
	case opRename:
		if im.dirs[op.dir][op.name] == op.ino {
			delete(im.dirs[op.dir], op.name)
		}
		im.dirs[op.dir2][op.nam2] = op.ino
	case opRemove:
		delete(im.dirs[op.dir], op.name)
	case opMkdir:
		for d := op.dir; im.dirs[d] == nil; d = filepath.Dir(d) {
			im.dirs[d] = make(map[string]int)
		}
	}
}

// newMemFS returns a file system holding im, recording if record is set.
func newMemFS(im fsImage, record bool) *memFS {
	m := &memFS{live: im, record: record}
	for ino := range im.files {
		m.ino = max(m.ino, ino+1)
	}
	return m
}

// do applies op to the live image and records it. Caller holds m.mu.
func (m *memFS) do(op fsOp) {
	m.live.apply(op)
	if m.record {
		op.phase = m.phase
		m.ops = append(m.ops, op)
	}
}

// setPhase tags the operations that follow, and returns how many came before.
func (m *memFS) setPhase(phase string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phase = phase
	return len(m.ops)
}

// mark returns how many operations have been recorded.
func (m *memFS) mark() int { return m.setPhase(m.phase) }

func notExist(op, name string) error { return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist} }

// lookup returns the inode at name. Caller holds m.mu.
func (m *memFS) lookup(name string) (int, bool) {
	ino, ok := m.live.dirs[filepath.Dir(name)][filepath.Base(name)]
	return ino, ok
}

// create makes a new empty file at name. Caller holds m.mu.
func (m *memFS) create(name string) *memFile {
	ino := m.ino
	m.ino++
	m.do(fsOp{kind: opCreate, ino: ino, dir: filepath.Dir(name), name: filepath.Base(name)})
	return &memFile{m: m, ino: ino, name: name}
}

func (m *memFS) OpenFile(name string, flag int) (blockstore.FSFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live.dirs[filepath.Dir(name)] == nil {
		return nil, notExist("open", name)
	}
	ino, ok := m.lookup(name)
	switch {
	case ok && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case ok:
		return &memFile{m: m, ino: ino, name: name}, nil
	case flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	}
	return m.create(name), nil
}

func (m *memFS) CreateTemp(dir, pattern string) (blockstore.FSFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live.dirs[dir] == nil {
		return nil, notExist("createtemp", dir)
	}
	m.temps++
	return m.create(filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.temps), 1))), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(oldpath)
	if !ok {
		return notExist("rename", oldpath)
	}
	if m.live.dirs[filepath.Dir(newpath)] == nil || m.live.dirs[newpath] != nil {
		return &fs.PathError{Op: "rename", Path: newpath, Err: fs.ErrInvalid}
	}
	m.do(fsOp{kind: opRename, ino: ino, dir: filepath.Dir(oldpath), name: filepath.Base(oldpath),
		dir2: filepath.Dir(newpath), nam2: filepath.Base(newpath)})
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(name)
	if !ok {
		return notExist("remove", name)
	}
	m.do(fsOp{kind: opRemove, ino: ino, dir: filepath.Dir(name), name: filepath.Base(name)})
	return nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ents, ok := m.live.dirs[dir]
	if !ok {
		return nil, notExist("readdir", dir)
	}
	var out []fs.DirEntry
	for name, ino := range ents {
		out = append(out, fs.FileInfoToDirEntry(memInfo{name, int64(len(m.live.files[ino])), false}))
	}
	for d := range m.live.dirs {
		if d != dir && filepath.Dir(d) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(d), 0, true}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live.dirs[dir] == nil {
		m.do(fsOp{kind: opMkdir, dir: dir})
	}
	return nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live.dirs[name] != nil {
		return memInfo{filepath.Base(name), 0, true}, nil
	}
	ino, ok := m.lookup(name)
	if !ok {
		return nil, notExist("stat", name)
	}
	return memInfo{filepath.Base(name), int64(len(m.live.files[ino])), false}, nil
}

// memInfo is what Stat and ReadDir tell of a file or directory.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) Sys() any           { return nil }

func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live.dirs[dir] == nil {
		return notExist("fsync", dir)
	}
	m.do(fsOp{kind: opDirSync, dir: dir})
	return nil
}

type unlock struct{}

func (unlock) Close() error { return nil }

// Lock never refuses: a crash state is opened by one store at a time.
func (m *memFS) Lock(string) (io.Closer, error) { return unlock{}, nil }

// corrupt flips a byte in every 64 of the middle of the file at name, as a
// medium that lies would.
func (m *memFS) corrupt(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(name)
	if !ok {
		return notExist("corrupt", name)
	}
	b := bytes.Clone(m.live.files[ino])
	for i := len(b) / 4; i < len(b)*3/4; i += 64 {
		b[i] ^= 0xff
	}
	m.do(fsOp{kind: opCorrupt, ino: ino, data: b})
	return nil
}

// content returns the bytes at name, or nil.
func (m *memFS) content(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ino, ok := m.lookup(name); ok {
		return m.live.files[ino]
	}
	return nil
}

// memFile is an open file: an inode, whatever names it has since.
type memFile struct {
	m    *memFS
	ino  int
	name string
}

func (f *memFile) Name() string { return f.name }
func (f *memFile) Close() error { return nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	b := f.m.live.files[f.ino]
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Map is a plain read: the bytes are a copy, nothing to unmap.
func (f *memFile) Map(n int64) ([]byte, func() error, error) {
	data := make([]byte, n)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.do(fsOp{kind: opWrite, ino: f.ino, off: off, data: bytes.Clone(p)})
	return len(p), nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return memInfo{filepath.Base(f.name), int64(len(f.m.live.files[f.ino])), false}, nil
}

func (f *memFile) Truncate(size int64) error {
	return f.op(fsOp{kind: opTruncate, ino: f.ino, off: size})
}
func (f *memFile) Sync() error     { return f.op(fsOp{kind: opFsync, ino: f.ino}) }
func (f *memFile) Datasync() error { return f.op(fsOp{kind: opFdatasync, ino: f.ino}) }

func (f *memFile) op(op fsOp) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.do(op)
	return nil
}

// crashCut is what a crash after the first k recorded operations may leave:
// the durable image, and the operations that happened and are not yet
// durable, in order. Any subset of those may have reached the medium too.
type crashCut struct {
	k       int
	durable fsImage
	pending []fsOp
}

// crashCuts hands visit the cut after every prefix of ops, from the empty
// one to the whole log. The cut is only valid during the call.
func crashCuts(ops []fsOp, visit func(c *crashCut)) {
	c := &crashCut{durable: newImage()}
	visit(c)
	for _, op := range ops {
		c.k++
		switch op.kind {
		case opMkdir, opCorrupt:
			c.durable.apply(op)
		case opFsync, opFdatasync:
			c.settle(func(p fsOp) bool { return p.dataOp() && p.ino == op.ino })
		case opDirSync:
			c.settle(func(p fsOp) bool { return p.dirOp() && (p.dir == op.dir || p.dir2 == op.dir) })
		default:
			c.pending = append(c.pending, op)
		}
		visit(c)
	}
}

// settle makes the pending operations durable that a sync covers.
func (c *crashCut) settle(covered func(fsOp) bool) {
	kept := c.pending[:0]
	for _, p := range c.pending {
		if covered(p) {
			c.durable.apply(p)
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

// crashVariant selects which pending operations a crash state applies.
type crashVariant struct {
	name    string
	pending bool // apply the pending operations
	skip    int  // the pending operation left out, or -1
	tear    bool // tear the last pending write
}

func (v crashVariant) String() string { return v.name }

// variants lists the cut's crash states: the durable image alone, every
// pending operation applied, every one but one, and the last pending write
// torn at a 512-byte boundary.
func (c *crashCut) variants() []crashVariant {
	vs := []crashVariant{{name: "durable", skip: -1}}
	if len(c.pending) == 0 {
		return vs
	}
	vs = append(vs, crashVariant{name: "all", pending: true, skip: -1})
	for i, p := range c.pending {
		vs = append(vs, crashVariant{name: fmt.Sprintf("all but %d (%s)", i, p), pending: true, skip: i})
	}
	if i := c.lastWrite(); i >= 0 {
		vs = append(vs, crashVariant{name: "torn " + c.pending[i].String(), pending: true, skip: -1, tear: true})
	}
	return vs
}

func (c *crashCut) lastWrite() int {
	for i := len(c.pending) - 1; i >= 0; i-- {
		if c.pending[i].kind == opWrite {
			return i
		}
	}
	return -1
}

// image builds v's crash state. A torn write keeps a prefix of its bytes that
// ends on a 512-byte boundary of the file, chosen by rng.
func (c *crashCut) image(v crashVariant, rng *rand.Rand) fsImage {
	im := c.durable.clone()
	if !v.pending {
		return im
	}
	torn := -1
	if v.tear {
		torn = c.lastWrite()
	}
	for i, p := range c.pending {
		if i == v.skip {
			continue
		}
		if n := int64(len(p.data)); i == torn {
			// Keep a prefix that ends on a boundary inside the write; a
			// write that crosses none is lost whole.
			first, keep := (512-p.off%512)%512, int64(0)
			if first < n {
				keep = first + 512*rng.Int63n((n-1-first)/512+1)
			}
			p.data = p.data[:keep]
		}
		im.apply(p)
	}
	return im
}
