package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockstore"
)

// countingFS counts what a store asks of its file system: opens, creates,
// writes, fsyncs, fdatasyncs, maps, renames, removes and directory fsyncs,
// each by the file it touches (fileClass).
type countingFS struct {
	blockstore.FS
	mu sync.Mutex
	n  map[string]int
}

func (c *countingFS) add(op, path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[op+" "+fileClass(path)]++
}

// take returns the counts since the last take.
func (c *countingFS) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = make(map[string]int)
	return n
}

// fileClass names a store path by what it holds: a container's data file
// (sealed or staged), either log (or its checkpoint's temp file), a
// quarantine note, or a directory by its name.
func fileClass(path string) string {
	base := filepath.Base(path)
	for _, class := range []string{".data", "containers.log", "catalog.log", ".meta", ".reason"} {
		if strings.Contains(base, class) {
			return strings.TrimPrefix(class, ".")
		}
	}
	return base
}

func (c *countingFS) OpenFile(name string, flag int) (blockstore.FSFile, error) {
	c.add("open", name)
	f, err := c.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (blockstore.FSFile, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	c.add("create", f.Name())
	return countingFile{f, c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.add("rename", newpath)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error {
	c.add("remove", name)
	return c.FS.Remove(name)
}

func (c *countingFS) SyncDir(dir string) error {
	c.add("dirsync", dir)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	blockstore.FSFile
	c *countingFS
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.c.add("write", f.Name())
	return f.FSFile.WriteAt(p, off)
}

func (f countingFile) Map(n int64) ([]byte, func() error, error) {
	f.c.add("map", f.Name())
	return f.FSFile.Map(n)
}

func (f countingFile) Sync() error {
	f.c.add("fsync", f.Name())
	return f.FSFile.Sync()
}

func (f countingFile) Datasync() error {
	f.c.add("fdatasync", f.Name())
	return f.FSFile.Datasync()
}

func formatCounts(n map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(n) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, n[k]))
	}
	return strings.Join(parts, " ")
}

// TestFileOperationCounts pins what one seal and one backup commit, one
// forget, one merge drop and one restore's fetches ask of the file system,
// on the operating system's, through a counting wrapper over the seam. Every
// step's sequence is deterministic, so the counts are exact.
func TestFileOperationCounts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c := &countingFS{FS: blockstore.OS, n: map[string]int{}}
	s, err := Open(Options{Engine: DeFrag, StoreData: true, ExpectedBytes: 32 << 20,
		Backend: FileBackend, Dir: dir, fs: c,
		Maintenance: MaintenanceOptions{UtilThreshold: 0.5, FillThreshold: 0.01, SparseThreshold: 0.5, MaxBatch: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	c.take()
	step := func(name string, want map[string]int) {
		t.Helper()
		if got := c.take(); formatCounts(got) != formatCounts(want) {
			t.Errorf("%s:\n got %s\nwant %s", name, formatCounts(got), formatCounts(want))
		}
	}
	rng := rand.New(rand.NewSource(9))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b) //nolint:errcheck // never fails
		return b
	}
	backup := func(label string, data []byte) {
		t.Helper()
		if _, err := s.Backup(ctx, label, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}

	// A backup of new data that fills less than one container: its one
	// seal writes the data file whole (nothing was staged), syncs and renames
	// it in and syncs the directory, then appends the seal record; the commit
	// is one catalog record.
	x := random(300 << 10)
	backup("x", x)
	seal := map[string]int{
		"create data": 1, "write data": 1, "fsync data": 1, "rename data": 1, "dirsync containers": 1,
		"write containers.log": 1, "fdatasync containers.log": 1,
	}
	step("one seal and one backup commit", merged(seal, map[string]int{"write catalog.log": 1, "fdatasync catalog.log": 1}))

	backup("y", append(bytes.Clone(x[:32<<10]), random(300<<10)...))
	c.take()
	if !s.Forget("x").Found {
		t.Fatal("forget x: not retained")
	}
	step("one forget", map[string]int{"write catalog.log": 1, "fdatasync catalog.log": 1})

	// y, the latest backup, grazes x's container for a tenth of it: the
	// epoch reads that container, copies its live chunks into one new
	// container, remaps y's references and drops the victim with one merge
	// record and one remove.
	st, err := s.MaintenanceEpoch(ctx)
	if err != nil || st.ContainersMerged != 1 {
		t.Fatalf("epoch: %+v, %v; want one container merged", st, err)
	}
	step("one merge drop", merged(seal, map[string]int{
		"open data": 1, "map data": 1, "write catalog.log": 1, "fdatasync catalog.log": 1,
		"write containers.log": 1, "fdatasync containers.log": 1, "remove data": 1,
	}))

	// A restore opens and maps each container it fetches, whole — one mmap,
	// where a read of the ranges its refs lie in took a pread each — and
	// writes nothing.
	var buf bytes.Buffer
	rs, err := s.RestoreWith(ctx, s.FindBackup("y"), &buf, RestoreOptions{Policy: RestoreOPT, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	step("one restore's fetches", map[string]int{"open data": int(rs.ContainerReads), "map data": int(rs.ContainerReads)})
	if rs.ContainerReads != 2 {
		t.Errorf("the restore fetched %d containers, want 2", rs.ContainerReads)
	}

	// Seals that group commit may batch: a log fdatasync per seal at most.
	backup("z", random(9<<20))
	got := c.take()
	if got["fdatasync containers.log"] > got["rename data"] || got["rename data"] < 2 {
		t.Errorf("a backup of three containers: %s; want no more container log fdatasyncs than seals", formatCounts(got))
	}
}

// merged returns the sum of two count maps.
func merged(a, b map[string]int) map[string]int {
	n := make(map[string]int, len(a)+len(b))
	for k, v := range a {
		n[k] += v
	}
	for k, v := range b {
		n[k] += v
	}
	return n
}
