package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// ingestGens runs n workload generations into s and returns each
// generation's full stream bytes for later content verification. Labels carry
// the seed, so a second call into the same store takes new ones.
func ingestGens(t *testing.T, s *Store, seed int64, n int) [][]byte {
	t.Helper()
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumFiles = 8
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var datas [][]byte
	for g := 0; g < n; g++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Backup(context.Background(), fmt.Sprintf("s%d/%s", seed, b.Label), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		datas = append(datas, data)
	}
	return datas
}

// restoreVerifyAll restores every retained backup with verification and
// checks the content against want (indexed by backup order).
func restoreVerifyAll(t *testing.T, s *Store, want [][]byte) {
	t.Helper()
	backups := s.Backups()
	if len(backups) != len(want) {
		t.Fatalf("retained %d backups, want %d", len(backups), len(want))
	}
	for i, b := range backups {
		var out bytes.Buffer
		if _, err := s.Restore(context.Background(), b, &out, true); err != nil {
			t.Fatalf("restoring %s: %v", b.Label, err)
		}
		if !bytes.Equal(out.Bytes(), want[i]) {
			t.Fatalf("backup %s content changed across reopen", b.Label)
		}
	}
}

func TestFileBackendRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Engine:        DeFrag,
		Alpha:         0.1,
		StoreData:     true,
		ExpectedBytes: 64 << 20,
		Backend:       FileBackend,
		Dir:           dir,
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	datas := ingestGens(t, s, 11, 3)
	wantStats := make([]BackupStats, 0, 3)
	for _, b := range s.Backups() {
		wantStats = append(wantStats, b.Stats)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything — containers, index, recipes, stats — must survive the
	// process boundary that Close/Open simulates.
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if got := s2.BackendName(); got != "file" {
		t.Fatalf("BackendName = %q", got)
	}
	backups := s2.Backups()
	if len(backups) != 3 {
		t.Fatalf("reopened store retains %d backups, want 3", len(backups))
	}
	for i, b := range backups {
		if b.Stats != wantStats[i] {
			t.Errorf("backup %d stats drifted across reopen:\n  want %+v\n  got  %+v", i, wantStats[i], b.Stats)
		}
	}
	restoreVerifyAll(t, s2, datas)
	rep, err := s2.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("reopened store fails fsck: %v", rep.Problems)
	}

	// The reopened store keeps deduplicating: re-ingesting generation 0's
	// content must dedupe against the adopted index.
	b4, err := s2.Backup(context.Background(), "again", bytes.NewReader(datas[0]))
	if err != nil {
		t.Fatal(err)
	}
	if b4.Stats.DedupedBytes == 0 {
		t.Fatal("adopted index found no duplicates in previously-stored content")
	}
	var out bytes.Buffer
	if _, err := s2.Restore(context.Background(), b4, &out, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), datas[0]) {
		t.Fatal("post-reopen backup corrupted")
	}
}

// TestOpenRefusesAStoreDirectoryInUse: while one Store holds a directory, a
// second Open of it is refused by name and leaves the first one whole; after
// Close the directory opens again.
func TestOpenRefusesAStoreDirectoryInUse(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20, Backend: FileBackend, Dir: dir}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	datas := ingestGens(t, s, 5, 2)
	if s2, err := Open(opts); err == nil {
		s2.Close() //nolint:errcheck // already failing
		t.Fatal("a second Open of a store directory in use succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("refusal %q does not name the directory", err)
	}
	restoreVerifyAll(t, s, datas)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer s.Close() //nolint:errcheck
	restoreVerifyAll(t, s, datas)
}

// TestFileBackendReopenRequiresAdoptingEngine: an engine that could not
// reopen a store directory does not get to write one. The refusal comes on the
// first Open, before anything is in the directory, and names the way that
// works: Export from a sim store.
func TestFileBackendReopenRequiresAdoptingEngine(t *testing.T) {
	for _, ek := range []EngineKind{SiLoLike, SparseIndex, IDedup} {
		dir := filepath.Join(t.TempDir(), "store")
		_, err := Open(Options{Engine: ek, StoreData: true, ExpectedBytes: 32 << 20, Backend: FileBackend, Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "Export") {
			t.Fatalf("%s on the file backend: %v, want a refusal that names Export", ek, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s: the refused Open made %s", ek, dir)
		}
	}
}

// TestBackupCancellationLeavesStoreConsistent holds every engine to the
// abort path of the one backup body: a backup cancelled mid-stream is not
// retained, leaves the store fsck-clean, and the store keeps working.
func TestBackupCancellationLeavesStoreConsistent(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind EngineKind) {
		s, err := Open(Options{Engine: kind, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		data := randStream(4<<20, 77)
		// The reader cancels the context a third of the way through the
		// stream, so the backup dies mid-flight with chunks already placed.
		r := &cancellingReader{r: bytes.NewReader(data), cancel: cancel, after: len(data) / 3}
		if _, err := s.Backup(ctx, "doomed", r); err == nil {
			t.Fatal("cancelled backup must return an error")
		}
		if len(s.Backups()) != 0 {
			t.Fatal("cancelled backup must not be retained")
		}
		rep, err := s.Check(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("store inconsistent after cancelled backup: %v", rep.Problems)
		}
		// The store keeps working afterwards.
		b, err := s.Backup(context.Background(), "after", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := s.Restore(context.Background(), b, &out, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("post-cancellation backup corrupted")
		}
	})
}

// cancellingReader cancels its context after delivering roughly `after`
// bytes, then keeps serving the rest of the stream (the pipeline, not the
// reader, must notice the cancellation).
type cancellingReader struct {
	r      *bytes.Reader
	cancel context.CancelFunc
	after  int
	read   int
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	if c.read >= c.after && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

func TestForgetCompactCheckOnDataStore(t *testing.T) {
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.2, StoreData: true, ExpectedBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	datas := ingestGens(t, s, 55, 5)
	if !s.Forget("gen00").Found && !s.Forget(s.Backups()[0].Label).Found {
		t.Fatal("Forget failed")
	}
	want := datas[1:]
	if _, err := s.Compact(context.Background(), 0.95); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store inconsistent after Forget+Compact: %v", rep.Problems)
	}
	restoreVerifyAll(t, s, want)
}

func TestRepairQuarantinesCorruptContainer(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20, Backend: FileBackend, Dir: dir}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestGens(t, s, 31, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip bytes in the middle of one sealed container's data file — the
	// lying-disk scenario fsck -repair exists for.
	victim := filepath.Join(dir, "containers", "000000.data")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+64 && i < len(raw); i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	rep, err := s2.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed the corrupted container")
	}
	rr, err := s2.Repair(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Quarantined) == 0 {
		t.Fatal("repair quarantined nothing")
	}
	// Post-repair the store must be internally consistent again; backups
	// referencing the quarantined container are reported lost and dropped.
	rep2, err := s2.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.OK() {
		t.Fatalf("store still inconsistent after repair: %v", rep2.Problems)
	}
	if qdir, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(qdir) == 0 {
		t.Fatalf("quarantine directory empty (err=%v)", err)
	}
}

// fileSizes maps every regular file under dir with the given suffix ("" for
// all) to its size.
func fileSizes(t *testing.T, dir, suffix string) map[string]int64 {
	t.Helper()
	sizes := make(map[string]int64)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, suffix) {
			return err
		}
		info, err := d.Info()
		sizes[path] = info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sizes
}

func sum(sizes map[string]int64) (n int64) {
	for _, v := range sizes {
		n += v
	}
	return n
}

func TestCompactDurableAcrossReopen(t *testing.T) {
	// Compact on the durable backend must really give the space back, say
	// truthfully how much, and leave nothing behind that a later epoch or a
	// reopen trips over: its drops and its recipe remaps are as durable as
	// the maintenance epoch's, because they are the same code.
	for _, row := range []struct {
		name       string
		epochAfter bool
	}{{"then an epoch", true}, {"straight to reopen", false}} {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			opts := Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
				ExpectedBytes: 64 << 20, Backend: FileBackend, Dir: dir}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			datas := ingestGens(t, s, 5, 6)
			for _, b := range s.Backups()[:2] {
				if !s.Forget(b.Label).Found {
					t.Fatalf("forget %s: not found", b.Label)
				}
			}
			want := datas[2:]

			dataBefore, dirBefore := fileSizes(t, dir, ".data"), sum(fileSizes(t, dir, ""))
			cs, err := s.Compact(ctx, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if cs.ContainersCollected == 0 {
				t.Fatal("two forgotten generations left nothing to compact: nothing was tested")
			}
			dataAfter := fileSizes(t, dir, ".data")
			var dropped int64
			for path, n := range dataBefore {
				if _, still := dataAfter[path]; !still {
					dropped += n
				}
			}
			if dropped != cs.BytesReclaimed {
				t.Fatalf("BytesReclaimed = %d, but the data files that left the directory held %d", cs.BytesReclaimed, dropped)
			}
			if dirAfter := sum(fileSizes(t, dir, "")); dirAfter >= dirBefore {
				t.Fatalf("store directory did not shrink: %d -> %d bytes", dirBefore, dirAfter)
			}

			if row.epochAfter {
				if _, err := s.MaintenanceEpoch(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close() //nolint:errcheck
			rep, err := re.Check(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("reopened store not fsck-clean after Compact: %v", rep.Problems)
			}
			restoreVerifyAll(t, re, want)
		})
	}
}
