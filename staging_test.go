package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/telemetry"
)

// tempsUnder lists every temp file (WriteFileAtomic's, or a staged section's)
// under dir.
func tempsUnder(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".tmp") {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func stagedSeals() int64 {
	return telemetry.NewCounter("container_seals_staged_total", "").Value()
}

// sealHashes is a WrapBackend wrapper of the plainest kind: it looks at what
// Seal is handed and forwards it. Staging goes around it; what it is shown
// must not depend on that.
type sealHashes struct {
	blockstore.Backend
	mu  sync.Mutex
	sum map[uint32][sha256.Size]byte
}

func (h *sealHashes) Seal(ctx context.Context, info blockstore.ContainerInfo, data []byte) error {
	h.mu.Lock()
	h.sum[info.ID] = sha256.Sum256(data)
	h.mu.Unlock()
	return h.Backend.Seal(ctx, info, data)
}

func (h *sealHashes) Drop(ctx context.Context, ids []uint32, reason string) error {
	return h.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// TestStagingShowsWrappersTheSameSeals: the same ingest with staging (as every
// file-backend store has it) and without — a wrapper sees the same sections in
// Seal, and each container's file holds exactly the section Seal was shown:
// nothing reaches the file that Seal was not.
func TestStagingShowsWrappersTheSameSeals(t *testing.T) {
	run := func(stage bool) (map[uint32][sha256.Size]byte, int64) {
		spy := &sealHashes{sum: map[uint32][sha256.Size]byte{}}
		dir := t.TempDir()
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
			Backend: FileBackend, Dir: dir,
			WrapBackend: func(be blockstore.Backend) blockstore.Backend {
				spy.Backend = be
				return spy
			}})
		if err != nil {
			t.Fatal(err)
		}
		if !stage {
			s.eng.Containers().StageTo(nil)
		}
		staged0 := stagedSeals()
		datas := ingestGens(t, s, 55, 3)
		staged := stagedSeals() - staged0
		restoreVerifyAll(t, s, datas)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for id, want := range spy.sum {
			raw, err := os.ReadFile(filepath.Join(dir, "containers", fmt.Sprintf("%06d.data", id)))
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(raw) != want {
				t.Errorf("staging=%v: container %d's file is not the section Seal was handed", stage, id)
			}
		}
		if left := tempsUnder(t, dir); len(left) != 0 {
			t.Errorf("staging=%v: temp files left after Close: %v", stage, left)
		}
		return spy.sum, staged
	}
	with, staged := run(true)
	without, unstaged := run(false)
	if staged < 2 || unstaged != 0 {
		t.Fatalf("%d seals used a staged prefix with staging on, %d with it off: the two runs do not differ", staged, unstaged)
	}
	if len(with) != len(without) {
		t.Fatalf("%d containers sealed with staging, %d without", len(with), len(without))
	}
	for id, sum := range without {
		if with[id] != sum {
			t.Errorf("container %d: Seal was shown different bytes with staging", id)
		}
	}
}

// sealFaults is a WrapBackend wrapper that makes a disk's faults at seal. The
// seals it is handed are counted from 1; fail(n) makes the n-th fail before it
// reaches the backend below (an EIO), tear(n) acknowledges it with half its
// section written (a lying disk, found out later as ErrCorrupt). A nil func
// makes no such fault. Quarantine passes through, so Repair runs over it.
type sealFaults struct {
	blockstore.Backend
	fail, tear func(n int) bool
	mu         sync.Mutex
	n          int
}

func (w *sealFaults) Seal(ctx context.Context, info blockstore.ContainerInfo, data []byte) error {
	w.mu.Lock()
	w.n++
	n := w.n
	w.mu.Unlock()
	switch {
	case w.fail != nil && w.fail(n):
		return syscall.EIO
	case w.tear != nil && w.tear(n):
		data = data[:len(data)/2]
	}
	return w.Backend.Seal(ctx, info, data)
}

func (w *sealFaults) Quarantine(ctx context.Context, id uint32, reason string) error {
	return w.Backend.(blockstore.Quarantiner).Quarantine(ctx, id, reason)
}

// TestFaultsOverStagedStreams: four concurrent streams onto the file backend
// through a wrapper that fails some seals before they reach the file (the
// staged prefix is never used) and hands the file half a section for others
// (the staged prefix is longer than the data). A backup that needed a failed
// seal fails and leaves no temp file; every backup that was acknowledged
// restores bit-identical, or Repair names exactly the containers whose files
// are short and the backups that needed them. Run under -race in CI.
func TestFaultsOverStagedStreams(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 128 << 20,
		Backend: FileBackend, Dir: dir,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend {
			return &sealFaults{Backend: be, fail: func(n int) bool { return n%7 == 3 }, tear: func(n int) bool { return n%5 == 0 }}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	staged0 := stagedSeals()
	want := map[string][]byte{}
	failed := 0
	for round := 0; round < 2; round++ {
		var inputs []StreamInput
		for k := 0; k < 4; k++ {
			label := fmt.Sprintf("r%d-s%d", round, k)
			// Each stream is its own bytes plus a third of its neighbour's, so
			// streams also depend on containers another stream sealed.
			data := append(randStream(5<<20, int64(10*round+k)), randStream(5<<20, int64(10*round+(k+1)%4))[:2<<20]...)
			want[label] = data
			inputs = append(inputs, StreamInput{Label: label, Stream: bytes.NewReader(data)})
		}
		backups, _, err := s.BackupStreams(ctx, inputs, 4)
		if (err == nil) != (len(backups) == 4) {
			t.Fatalf("round %d: %d of 4 streams acknowledged, error %v", round, len(backups), err)
		}
		failed += 4 - len(backups)
	}
	if failed == 0 || failed == 8 {
		t.Fatalf("%d of 8 backups failed: the failed seals test nothing", failed)
	}
	if left := tempsUnder(t, dir); len(left) != 0 {
		t.Fatalf("temp files left after the streams returned: %v", left)
	}
	if stagedSeals() == staged0 {
		t.Fatal("no seal used a staged prefix: staging was not on")
	}

	// The torn containers, from the disk: a data file shorter than its fill.
	cs := s.eng.Containers()
	var torn []uint32
	for id := uint32(0); int(id) < cs.Slots(); id++ {
		if !cs.Sealed(id) {
			continue
		}
		st, err := os.Stat(filepath.Join(dir, "containers", fmt.Sprintf("%06d.data", id)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != cs.DataFill(id) {
			torn = append(torn, id)
		}
	}
	if len(torn) == 0 || len(torn) == cs.NumContainers() {
		t.Fatalf("%d of %d containers torn: the torn seals test nothing", len(torn), cs.NumContainers())
	}
	needsTorn := map[string]bool{}
	for _, b := range s.Backups() {
		for _, ref := range b.recipe().Refs {
			if slices.Contains(torn, ref.Loc.Container) {
				needsTorn[b.Label] = true
				break
			}
		}
	}
	for _, b := range s.Backups() {
		var out bytes.Buffer
		_, err := s.Restore(ctx, b, &out, true)
		switch {
		case needsTorn[b.Label] && !errors.Is(err, blockstore.ErrCorrupt):
			t.Errorf("%s needs a torn container and restored with %v", b.Label, err)
		case !needsTorn[b.Label] && (err != nil || !bytes.Equal(out.Bytes(), want[b.Label])):
			t.Errorf("%s needs no torn container and did not restore bit-identical (%v)", b.Label, err)
		}
	}
	rr, err := s.Repair(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rr.Quarantined, torn) {
		t.Fatalf("Repair quarantined %v, the torn containers are %v", rr.Quarantined, torn)
	}
	if len(rr.LostBackups) != len(needsTorn) {
		t.Fatalf("Repair lost %v, the backups over torn containers are %v", rr.LostBackups, needsTorn)
	}
	if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
		t.Fatalf("check after repair: %v %v", err, rep.Problems)
	}
	for _, b := range s.Backups() {
		var out bytes.Buffer
		if _, err := s.Restore(ctx, b, &out, true); err != nil || !bytes.Equal(out.Bytes(), want[b.Label]) {
			t.Errorf("%s after repair: %v", b.Label, err)
		}
	}
}

// copyStore copies a live store directory: what a kill at this moment leaves
// on disk.
func copyStore(t *testing.T, dir string) string {
	image := t.TempDir()
	if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
		t.Error(err)
	}
	return image
}

// stagedTemps counts the non-empty temp files of staged data sections.
func stagedTemps(t *testing.T, dir string) (n int) {
	for _, p := range tempsUnder(t, filepath.Join(dir, "containers")) {
		if st, err := os.Stat(p); err == nil && st.Size() > 0 && strings.Contains(p, ".data.tmp") {
			n++
		}
	}
	return n
}

// imageMidFill is a backup's reader that, once `after` bytes have gone by,
// copies the store directory at the first Read that finds a container
// half-staged. The store hashes inline (GOMAXPROCS 1), so while Read runs
// nothing fills a container, and settled waits out the persist in flight: no
// file is renamed under the copy. With one P the pieces staged in flight only
// land while Read yields, so it yields before it looks.
type imageMidFill struct {
	t       *testing.T
	r       io.Reader
	after   int
	dir     string
	settled func()
	image   string
}

func (c *imageMidFill) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.after -= n; c.after <= 0 && c.image == "" {
		c.settled()
		runtime.Gosched()
		if stagedTemps(c.t, c.dir) > 0 {
			c.image = copyStore(c.t, c.dir)
		}
	}
	return n, err
}

// imageAtSeal is a wrapper that, when armed, copies the store directory as
// the next Seal is called: every piece of that container is in its temp file
// (the persist waits for them) and nothing of Seal has happened.
type imageAtSeal struct {
	blockstore.Backend
	t     *testing.T
	dir   string
	armed atomic.Bool
	image string // read after the backup has returned
}

func (g *imageAtSeal) Seal(ctx context.Context, info blockstore.ContainerInfo, data []byte) error {
	if g.armed.CompareAndSwap(true, false) {
		g.image = copyStore(g.t, g.dir)
	}
	return g.Backend.Seal(ctx, info, data)
}

// TestReopenAfterCrashWhileStaging: a process killed with a container
// half-staged, and one killed after a container's last stage call and before
// its Seal — each beside temp files that torn WriteFileAtomic calls left in
// every directory that has them — reopens with no temp file anywhere,
// fsck-clean, every committed backup bit-identical and the backup in flight
// absent.
func TestReopenAfterCrashWhileStaging(t *testing.T) {
	ctx := context.Background()
	for _, moment := range []string{"a container half-staged", "staged and not yet sealed"} {
		t.Run(moment, func(t *testing.T) {
			setProcs(t, 1)
			dir := t.TempDir()
			atSeal := &imageAtSeal{t: t, dir: dir}
			opts := Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
				Backend: FileBackend, Dir: dir}
			live := opts
			live.WrapBackend = func(be blockstore.Backend) blockstore.Backend {
				atSeal.Backend = be
				return atSeal
			}
			s, err := Open(live)
			if err != nil {
				t.Fatal(err)
			}
			datas := ingestGens(t, s, 77, 3)

			midFill := &imageMidFill{t: t, r: bytes.NewReader(randStream(12<<20, 3)), after: 5 << 20, dir: dir,
				settled: s.eng.Containers().WaitSeals}
			if moment == "staged and not yet sealed" {
				midFill.after = 1 << 30
				atSeal.armed.Store(true)
			}
			if _, err := s.Backup(ctx, "doomed", midFill); err != nil {
				t.Fatal(err)
			}
			s.Close() //nolint:errcheck // the live store is done with
			image := midFill.image + atSeal.image
			if image == "" {
				t.Fatal("the moment never came: no image taken")
			}
			if stagedTemps(t, image) == 0 {
				t.Fatal("the image holds no staged section")
			}

			for _, torn := range []string{".catalog.log.tmp5", ".containers.log.tmp6", "containers/.000002.data.tmp8"} {
				if err := os.WriteFile(filepath.Join(image, torn), []byte("half a fi"), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			opts.Dir = image
			s2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close() //nolint:errcheck // test teardown
			if left := tempsUnder(t, image); len(left) != 0 {
				t.Fatalf("temp files survived the reopen: %v", left)
			}
			if rep, err := s2.Check(ctx, true); err != nil || !rep.OK() {
				t.Fatalf("check: %v %v", err, rep.Problems)
			}
			if s2.FindBackup("doomed") != nil {
				t.Fatal("the backup in flight at the crash is in the catalog")
			}
			restoreVerifyAll(t, s2, datas)
			// ...and the store ingests on, over the ids of the containers the
			// crash abandoned.
			more := ingestGens(t, s2, 78, 1)
			restoreVerifyAll(t, s2, append(datas, more...))
		})
	}
}

// TestCancelledBackupLeavesNothingStaged: a backup cancelled mid-stream on
// the file backend seals what it placed (outside the cancelled ctx) and
// leaves no temp file; the store stays fsck-clean and takes the next backup.
func TestCancelledBackupLeavesNothingStaged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
		Backend: FileBackend, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	ctx, cancel := context.WithCancel(context.Background())
	data := randStream(9<<20, 78)
	r := &cancellingReader{r: bytes.NewReader(data), cancel: cancel, after: 2 * len(data) / 3}
	if _, err := s.Backup(ctx, "doomed", r); err == nil {
		t.Fatal("cancelled backup must return an error")
	}
	if left := tempsUnder(t, dir); len(left) != 0 {
		t.Fatalf("temp files left by the cancelled backup: %v", left)
	}
	if rep, err := s.Check(context.Background(), true); err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	datas := ingestGens(t, s, 79, 1)
	restoreVerifyAll(t, s, datas)
}
