package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/catalog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// replayCatalogFile replays dir's catalog.log as it is on disk at this
// instant, the way a fresh process would.
func replayCatalogFile(t testing.TB, dir string) []catalog.Entry {
	t.Helper()
	img, err := os.ReadFile(filepath.Join(dir, catalog.FileName))
	if err != nil {
		t.Fatal(err)
	}
	entries, valid, err := catalog.Replay(img)
	if err != nil || valid != int64(len(img)) {
		t.Fatalf("replay of %s: %d of %d bytes valid, %v", dir, valid, len(img), err)
	}
	return entries
}

// catalogHoldsTheRetainedSet: a fresh replay of the file is the store's
// in-memory state — labels in order, statistics, every ref.
func catalogHoldsTheRetainedSet(t *testing.T, when string, dir string, s *Store) {
	t.Helper()
	entries, backups := replayCatalogFile(t, dir), s.Backups()
	if len(entries) != len(backups) {
		t.Fatalf("%s: the catalog holds %d backups, the store %d", when, len(entries), len(backups))
	}
	for i, b := range backups {
		var st BackupStats
		if err := json.Unmarshal(entries[i].Stats, &st); err != nil {
			t.Fatal(err)
		}
		if entries[i].Label != b.Label || st != b.Stats {
			t.Fatalf("%s: catalog entry %d is %s %+v, the store's %s %+v", when, i, entries[i].Label, st, b.Label, b.Stats)
		}
		if !slices.Equal(entries[i].Recipe.Refs, b.recipe().Refs) {
			t.Fatalf("%s: the catalog's recipe of %s is not the store's", when, b.Label)
		}
	}
}

func fileStoreOptions(dir string) Options {
	return Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20,
		Backend: FileBackend, Dir: dir, Maintenance: maintOptions()}
}

func mustOpenStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReopenKeepsBackupsWithoutContainers: the catalog is replayed whatever
// the backend lists. A store whose only backups are empty streams has no
// container; before the catalog log its reopen returned early and came up
// with no backups, and the next commit wrote the catalog over without them.
func TestReopenKeepsBackupsWithoutContainers(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustOpenStore(t, fileStoreOptions(dir))
	for _, label := range []string{"empty", "also empty"} {
		if _, err := s.Backup(ctx, label, bytes.NewReader(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Stats().Containers; n != 0 {
		t.Fatalf("two empty streams sealed %d containers: the test needs none", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenStore(t, fileStoreOptions(dir))
	defer re.Close() //nolint:errcheck // test teardown
	if got := len(re.Backups()); got != 2 || re.FindBackup("empty") == nil {
		t.Fatalf("reopen of a store with no containers retained %d backups, want 2", got)
	}
	datas := ingestGens(t, re, 31, 1)
	catalogHoldsTheRetainedSet(t, "after the next commit", dir, re)
	restoreVerifyAll(t, re, [][]byte{nil, nil, datas[0]})
}

// TestForgetReportsItsDurabilityFailure: the forget record goes first. With
// the catalog file made unwritable under the running store, Forget says so,
// the backup stays retained, and a restart finds it — where the old layout
// removed the recipe file, swallowed the manifest error and then failed to
// reopen.
func TestForgetReportsItsDurabilityFailure(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, fileStoreOptions(dir))
	datas := ingestGens(t, s, 32, 2)
	victim := s.Backups()[0].Label
	if err := s.cat.Close(); err != nil { // the descriptor goes away under the store
		t.Fatal(err)
	}
	res := s.Forget(victim)
	if !res.Found || res.Error == "" {
		t.Fatalf("forget with the catalog unwritable: %+v", res)
	}
	if s.FindBackup(victim) == nil || len(s.Backups()) != 2 {
		t.Fatal("the backup left the retained set though its forget is not durable")
	}
	if _, err := s.Backup(context.Background(), "late", bytes.NewReader(randStream(1<<20, 9))); err == nil {
		t.Fatal("a commit with the catalog unwritable was acknowledged")
	} else if s.FindBackup("late") != nil {
		t.Fatal("a backup whose commit failed is retained")
	}
	s.Close() //nolint:errcheck // the catalog is closed twice; the containers still flush
	re := mustOpenStore(t, fileStoreOptions(dir))
	defer re.Close() //nolint:errcheck // test teardown
	restoreVerifyAll(t, re, datas)
	if res := re.Forget(victim); !res.Found || res.Error != "" {
		t.Fatalf("forget on the reopened store: %+v", res)
	}
	if res := re.Forget(victim); res.Found || res.Error != "" {
		t.Fatalf("second forget: %+v", res)
	}
	catalogHoldsTheRetainedSet(t, "after the forget", dir, re)
}

// TestCatalogReplayEquivalenceThroughTheStore drives a seeded random sequence
// of the operations that write the catalog — backup, forget, maintenance
// epoch, Compact, close-reopen — through a file-backend store; after every
// one, a fresh replay of catalog.log is the store's retained set, ref for
// ref, and at the end everything retained restores bit-identically.
func TestCatalogReplayEquivalenceThroughTheStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustOpenStore(t, fileStoreOptions(dir))
	defer func() { s.Close() }() //nolint:errcheck // test teardown
	wcfg := workload.DefaultConfig(33)
	wcfg.NumFiles = 6
	wcfg.MeanFileSize = 256 << 10
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	rnd := workload.NewDetRand(33, "catalog-store-ops")
	draw := func(step, n int) int {
		var b [4]byte
		rnd.FillAt(b[:], int64(step)*4)
		return int(binary.LittleEndian.Uint32(b[:]) % uint32(n))
	}
	remaps := telemetry.NewCounter(telemetry.Name("catalog_appends_total", "kind", "remap"), "").Value()
	steps := 36
	if testing.Short() {
		steps = 16
	}
	for step := 0; step < steps; step++ {
		what := ""
		switch op := draw(step, 10); {
		case op < 4 || len(want) < 2:
			bk := sched.Next()
			data := new(bytes.Buffer)
			if _, err := data.ReadFrom(bk.Stream); err != nil {
				t.Fatal(err)
			}
			what = "backup " + bk.Label
			if _, err := s.Backup(ctx, bk.Label, bytes.NewReader(data.Bytes())); err != nil {
				t.Fatal(err)
			}
			want[bk.Label] = data.Bytes()
		case op < 6:
			oldest := s.Backups()[0].Label
			what = "forget " + oldest
			if res := s.Forget(oldest); !res.Found || res.Error != "" {
				t.Fatalf("%s: %+v", what, res)
			}
			delete(want, oldest)
		case op < 8:
			what = "epoch"
			if _, err := s.MaintenanceEpoch(ctx); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			what = "compact"
			if _, err := s.Compact(ctx, 0.9); err != nil {
				t.Fatal(err)
			}
		default:
			what = "close and reopen"
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = mustOpenStore(t, fileStoreOptions(dir))
		}
		catalogHoldsTheRetainedSet(t, fmt.Sprintf("step %d (%s)", step, what), dir, s)
	}
	if telemetry.NewCounter(telemetry.Name("catalog_appends_total", "kind", "remap"), "").Value() == remaps {
		t.Fatal("no epoch or Compact remapped a recipe: the sequence tested no remap record")
	}
	if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	for _, b := range s.Backups() {
		var out bytes.Buffer
		if _, err := s.Restore(ctx, b, &out, true); err != nil || !bytes.Equal(out.Bytes(), want[b.Label]) {
			t.Fatalf("restore of %s: %v", b.Label, err)
		}
	}
	storeDirHoldsOnlyTheLogs(t, dir)
}

// storeDirHoldsOnlyTheLogs: a store directory is its two record logs, its
// lock file, one data file per container and quarantine/ — no manifest, WAL
// or .meta file.
func storeDirHoldsOnlyTheLogs(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(dir, p)
		data, _ := filepath.Match("containers/[0-9][0-9][0-9][0-9][0-9][0-9].data", rel)
		if err == nil && !data && !slices.Contains([]string{".", "containers", "quarantine", "containers.log", "LOCK", catalog.FileName}, rel) {
			t.Errorf("the store directory holds %s", rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCatalogTornTailReopens cuts catalog.log inside its last record — a
// commit, then a forget — as a kill during the append would: the store
// reopens with exactly what had been acknowledged before it, Check is clean,
// and the next commit's record lands where the torn one began.
func TestCatalogTornTailReopens(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustOpenStore(t, fileStoreOptions(dir))
	datas := ingestGens(t, s, 34, 3)
	path := filepath.Join(dir, catalog.FileName)
	sizeNow := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	beforeCommit := sizeNow()
	last := randStream(2<<20, 35)
	if _, err := s.Backup(ctx, "last", bytes.NewReader(last)); err != nil {
		t.Fatal(err)
	}
	beforeForget := sizeNow()
	if res := s.Forget(s.Backups()[0].Label); res.Error != "" {
		t.Fatal(res.Error)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		start int64 // of the torn record
		end   int64
		want  [][]byte // what was acknowledged before it
	}{
		{"forget", beforeForget, int64(len(image)), append(slices.Clone(datas), last)},
		{"commit", beforeCommit, beforeForget, datas},
	} {
		for _, cut := range []int64{row.start, row.start + 1, row.start + 12, (row.start + row.end) / 2, row.end - 1} {
			if err := os.WriteFile(path, image[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re := mustOpenStore(t, fileStoreOptions(dir))
			if sizeNow() != row.start {
				t.Fatalf("%s cut at %d: reopened log is %d bytes, want %d", row.name, cut, sizeNow(), row.start)
			}
			if rep, err := re.Check(ctx, true); err != nil || !rep.OK() {
				t.Fatalf("%s cut at %d: check: %v %v", row.name, cut, err, rep.Problems)
			}
			restoreVerifyAll(t, re, row.want)
			if cut == row.end-1 {
				// The next append lands at the truncation point.
				if _, err := re.Backup(ctx, "next", bytes.NewReader(nil)); err != nil {
					t.Fatal(err)
				}
				entries := replayCatalogFile(t, dir)
				if got := entries[len(entries)-1].Label; got != "next" || len(entries) != len(row.want)+1 {
					t.Fatalf("%s: after the next commit the catalog ends in %q, %d entries", row.name, got, len(entries))
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCatalogBitFlipRefusesOpen: a flipped byte in an acknowledged record is
// not a store with fewer backups. Open refuses, names the offset and what it
// replayed before it, and touches nothing.
func TestCatalogBitFlipRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, fileStoreOptions(dir))
	ingestGens(t, s, 36, 1)
	path := filepath.Join(dir, catalog.FileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	second := fi.Size() // where the second backup's record starts
	ingestGens(t, s, 37, 2)
	first := s.Backups()[0].Label
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	image[second+200] ^= 0x08
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(fileStoreOptions(dir))
	var ce *catalog.CorruptError
	if !errors.As(err, &ce) || ce.Offset != second || !slices.Equal(ce.Labels, []string{first}) {
		t.Fatalf("Open over a flipped catalog byte: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint("offset ", second)) || !strings.Contains(err.Error(), first) {
		t.Fatalf("the error does not say where and what: %v", err)
	}
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, image) {
		t.Fatalf("the refused Open changed the catalog (%v)", rerr)
	}
}

// dropAuditor stands where the PR 15 bug was: inside every backend Drop it
// replays the catalog file as it is on disk at that instant, and no retained
// recipe in it may still name a container of the drop set.
type dropAuditor struct {
	blockstore.Backend
	t       *testing.T
	dir     string
	drops   int
	dropped int
}

func (d *dropAuditor) Drop(ctx context.Context, ids []uint32, reason string) error {
	for _, e := range replayCatalogFile(d.t, d.dir) {
		for i := range e.Recipe.Refs {
			if c := e.Recipe.Refs[i].Loc.Container; slices.Contains(ids, c) {
				d.t.Errorf("drop of %v (%s): on disk, ref %d of %s still names container %d", ids, reason, i, e.Label, c)
				break
			}
		}
	}
	d.drops++
	d.dropped += len(ids)
	return d.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// TestRemapDurableBeforeDrop runs epochs and Compact over a churning
// file-backend store with the auditor in place: every container that leaves
// does so after the remap away from it is in the catalog file.
func TestRemapDurableBeforeDrop(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	audit := &dropAuditor{t: t, dir: dir}
	opts := fileStoreOptions(dir)
	opts.WrapBackend = func(be blockstore.Backend) blockstore.Backend {
		audit.Backend = be
		return audit
	}
	s := mustOpenStore(t, opts)
	wcfg := workload.DefaultConfig(38)
	wcfg.NumFiles = 8
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for g := 0; g < 9; g++ {
		bk := sched.Next()
		data := new(bytes.Buffer)
		if _, err := data.ReadFrom(bk.Stream); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Backup(ctx, bk.Label, bytes.NewReader(data.Bytes())); err != nil {
			t.Fatal(err)
		}
		want = append(want, data.Bytes())
		if len(want) > 4 {
			if res := s.Forget(s.Backups()[0].Label); res.Error != "" {
				t.Fatal(res.Error)
			}
			want = want[1:]
		}
		if g%2 == 0 {
			_, err = s.MaintenanceEpoch(ctx)
		} else {
			_, err = s.Compact(ctx, 0.9)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if audit.drops == 0 {
		t.Fatal("no epoch or Compact dropped a container: nothing was audited")
	}
	t.Logf("%d drops of %d containers audited", audit.drops, audit.dropped)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts.WrapBackend = nil
	re := mustOpenStore(t, opts)
	defer re.Close() //nolint:errcheck // test teardown
	if rep, err := re.Check(ctx, true); err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	restoreVerifyAll(t, re, want)
}

// TestOldLayoutIsRefused: a directory written before the catalog log —
// backups.json, no catalog.log — is refused by name and left untouched; it is
// not a store with no backups, whose next epoch would reclaim their chunks.
func TestOldLayoutIsRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "backups.json"), []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(fileStoreOptions(dir))
	if err == nil || !strings.Contains(err.Error(), "backups.json") || !strings.Contains(err.Error(), catalog.FileName) {
		t.Fatalf("Open of an old-layout directory: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("the refused Open left %d entries in the directory", len(ents))
	}
}

// TestCatalogCheckpointsByRule: a store under retention never lets its log
// past twice its live bytes plus the slack — the checkpoint happens where the
// garbage is made — and what a checkpoint leaves reopens as the same store.
func TestCatalogCheckpointsByRule(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := fileStoreOptions(dir)
	opts.StoreData = false // the catalog is the subject; spare the data writes
	s := mustOpenStore(t, opts)
	checkpoints := telemetry.NewCounter("catalog_checkpoints_total", "")
	before := checkpoints.Value()
	for g := 0; checkpoints.Value() == before; g++ {
		if g > 200 {
			t.Fatal("two hundred commits and forgets never checkpointed the log")
		}
		if _, err := s.Backup(ctx, fmt.Sprint("g", g), bytes.NewReader(randStream(6<<20, int64(100+g)))); err != nil {
			t.Fatal(err)
		}
		if len(s.Backups()) > 2 {
			if res := s.Forget(s.Backups()[0].Label); res.Error != "" {
				t.Fatal(res.Error)
			}
		}
		if log, live := s.cat.Sizes(); log > 2*live+2<<20 {
			t.Fatalf("generation %d: the log is %d bytes over %d live", g, log, live)
		}
	}
	if log, live := s.cat.Sizes(); log != live {
		t.Fatalf("right after a checkpoint the log is %d bytes, its live bytes %d", log, live)
	}
	catalogHoldsTheRetainedSet(t, "after the checkpoint", dir, s)
	if left := tempsUnder(t, dir); len(left) != 0 {
		t.Fatalf("the checkpoint left temp files: %v", left)
	}
	labels := []string{s.Backups()[0].Label, s.Backups()[1].Label}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenStore(t, opts)
	defer re.Close() //nolint:errcheck // test teardown
	if got := re.Backups(); len(got) != 2 || got[0].Label != labels[0] || got[1].Label != labels[1] {
		t.Fatalf("reopen after a checkpoint retained %d backups", len(got))
	}
	if rep, err := re.Check(ctx, false); err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
}
