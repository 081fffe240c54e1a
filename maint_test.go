package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// maintOptions returns aggressive maintenance thresholds that fire on the
// small stores these tests build.
func maintOptions() MaintenanceOptions {
	return MaintenanceOptions{
		UtilThreshold:   0.9,
		FillThreshold:   0.9,
		SparseThreshold: 0.5,
		MaxBatch:        64,
	}
}

func TestMaintenanceEpochKeepsBackupsRestorable(t *testing.T) {
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
		ExpectedBytes: 64 << 20, Maintenance: maintOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	datas := ingestGens(t, s, 71, 8)

	var total MaintenanceStats
	for i := 0; i < 3; i++ {
		st, err := s.MaintenanceEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		total.RefsRemapped += st.RefsRemapped
		total.ContainersMerged += st.ContainersMerged
	}
	if total.RefsRemapped == 0 && total.ContainersMerged == 0 {
		t.Fatalf("aggressive epochs over a churning workload did no work: %+v", total)
	}
	restoreVerifyAll(t, s, datas)
	rep, err := s.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store not fsck-clean after maintenance: %v", rep.Problems)
	}
	// The engine must keep working after merges: one more backup+restore.
	more := ingestGens(t, s, 72, 1)
	restoreVerifyAll(t, s, append(datas, more...))
	mr := s.MaintenanceReport()
	if !mr.Supported || mr.Epochs != 3 {
		t.Fatalf("maintenance report: %+v", mr)
	}
}

// parkedWriter accepts its first write, signals started, and blocks every
// later write until release is closed: a restore streaming into it holds
// the foreground gate for as long as the test wants.
type parkedWriter struct {
	bytes.Buffer
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	parked := true
	w.once.Do(func() { parked = false; close(w.started) })
	if parked {
		<-w.release
	}
	return w.Buffer.Write(p)
}

func TestMaintenanceConcurrentWithRestores(t *testing.T) {
	// Foreground traffic running while a maintenance operation remaps
	// recipes and drops containers must stay byte-identical: each restore
	// works from the recipe snapshot it started with, and only the drop
	// commit waits the streams out. Run under -race in CI, this also pins
	// the atomic recipe swap as race-clean.
	for _, row := range []struct {
		name string
		// prepare readies the store (after 6 generations are in) so the
		// operation has work; it returns the generations still retained.
		prepare func(t *testing.T, s *Store, datas [][]byte) [][]byte
		// run performs the operation and reports whether it did any work.
		run func(s *Store) (bool, error)
	}{
		{"epochs",
			func(_ *testing.T, _ *Store, datas [][]byte) [][]byte { return datas },
			func(s *Store) (worked bool, err error) {
				for i := 0; i < 4; i++ {
					st, err := s.MaintenanceEpoch(context.Background())
					if err != nil {
						return worked, err
					}
					worked = worked || st.RefsRemapped > 0 || st.ContainersMerged > 0
					time.Sleep(10 * time.Millisecond) // let restores interleave
				}
				return worked, nil
			}},
		{"compact",
			func(t *testing.T, s *Store, datas [][]byte) [][]byte {
				for _, b := range s.Backups()[:2] {
					if !s.Forget(b.Label).Found {
						t.Fatalf("forget %s: not found", b.Label)
					}
				}
				return datas[2:]
			},
			func(s *Store) (bool, error) {
				cs, err := s.Compact(context.Background(), 0.95)
				return cs.ContainersCollected > 0, err
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
				ExpectedBytes: 64 << 20, Maintenance: maintOptions()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			datas := row.prepare(t, s, ingestGens(t, s, 73, 6))
			backups := s.Backups()

			// One restore is already streaming, and stays parked mid-stream,
			// when the operation starts: whatever the operation does before
			// its first drop commit, it does beside this restore.
			parked := &parkedWriter{started: make(chan struct{}), release: make(chan struct{})}
			parkedErr := make(chan error, 1)
			go func() {
				_, err := s.Restore(context.Background(), backups[0], parked, true)
				parkedErr <- err
			}()
			<-parked.started
			containersBefore := s.Stats().Containers

			type result struct {
				worked bool
				err    error
			}
			done := make(chan result, 1)
			go func() {
				worked, err := row.run(s)
				done <- result{worked, err}
			}()

			// The copy phase seals fresh containers; seeing one while the
			// parked restore still holds the gate shows the operation is not
			// waiting for exclusivity before it starts moving data.
			deadline := time.After(20 * time.Second)
			for s.Stats().Containers <= containersBefore {
				select {
				case r := <-done:
					t.Fatalf("operation finished before the parked restore was released: %+v", r)
				case <-deadline:
					t.Fatal("operation sealed nothing while a restore was streaming: it is waiting for the gate")
				case <-time.After(time.Millisecond):
				}
			}

			// Now pile on: looping restores and one ingest in flight until
			// the operation is through.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						g := (w + i) % len(backups)
						var buf bytes.Buffer
						if _, err := s.Restore(context.Background(), backups[g], &buf, true); err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(buf.Bytes(), datas[g]) {
							errs <- fmt.Errorf("generation %d restored %d bytes not matching ingest", g, buf.Len())
							return
						}
					}
				}(w)
			}
			fresh := randStream(2<<20, 173)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.IngestStream(context.Background(), "fresh", bytes.NewReader(fresh)); err != nil {
					errs <- err
				}
			}()
			close(parked.release)

			r := <-done
			close(stop)
			wg.Wait()
			if r.err != nil {
				t.Fatal(r.err)
			}
			if err := <-parkedErr; err != nil || !bytes.Equal(parked.Bytes(), datas[0]) {
				t.Fatalf("the restore that was streaming throughout failed or returned wrong bytes: %v", err)
			}
			select {
			case err := <-errs:
				t.Fatalf("concurrent restore or ingest failed or returned wrong bytes: %v", err)
			default:
			}
			if !r.worked {
				t.Fatal("the operation did no work; the concurrency test exercised nothing")
			}
			restoreVerifyAll(t, s, append(datas, fresh))
		})
	}
}

// TestMaintenanceSpeedsUpRestoreOfLatest is the out-of-line half of the
// paper's claim, as a paired comparison on the simulated clock: two DeFrag
// stores ingest the same ten seeded generations and one of them runs a
// maintenance epoch after each. Restoring the newest backup through the
// serial LRU cache — the shape most sensitive to placement — never costs the
// maintained store more container reads or more simulated time than its
// twin, costs it strictly less by the last generation, and no generation's
// bytes change for it. (The retired maintenance curve, EXPERIMENTS.md
// "Retired harnesses", at test scale.)
func TestMaintenanceSpeedsUpRestoreOfLatest(t *testing.T) {
	ctx := context.Background()
	open := func() *Store {
		t.Helper()
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
			Maintenance: MaintenanceOptions{UtilThreshold: 0.6, SparseThreshold: 0.5, MaxBatch: 16}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
		return s
	}
	twin, maintained := open(), open()
	wcfg := workload.DefaultConfig(42)
	wcfg.NumFiles = 8
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	restoreLatest := func(s *Store, b *Backup) RestoreStats {
		t.Helper()
		rs, err := s.RestoreWith(ctx, b, nil, RestoreOptions{Policy: RestoreLRU, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	const gens = 10
	var datas [][]byte
	for g := 1; g <= gens; g++ {
		bk := sched.Next()
		data, err := io.ReadAll(bk.Stream)
		if err != nil {
			t.Fatal(err)
		}
		datas = append(datas, data)
		tb, err := twin.Backup(ctx, bk.Label, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		mb, err := maintained.Backup(ctx, bk.Label, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := maintained.MaintenanceEpoch(ctx); err != nil {
			t.Fatal(err)
		}

		left, kept := restoreLatest(twin, tb), restoreLatest(maintained, mb)
		if kept.ContainerReads > left.ContainerReads || kept.Duration > left.Duration {
			t.Errorf("generation %d: maintained store restores the latest backup in %d reads / %v, its twin in %d / %v",
				g, kept.ContainerReads, kept.Duration, left.ContainerReads, left.Duration)
		}
		if g == gens && (kept.ContainerReads >= left.ContainerReads || kept.Duration >= left.Duration) {
			t.Errorf("after %d generations maintenance bought nothing: %d reads / %v against %d / %v",
				gens, kept.ContainerReads, kept.Duration, left.ContainerReads, left.Duration)
		}
	}
	restoreVerifyAll(t, maintained, datas)
	rep, err := maintained.Check(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("maintained store not fsck-clean: %v", rep.Problems)
	}
}

func TestMaintenanceSchedulerRunsEpochs(t *testing.T) {
	mo := maintOptions()
	mo.Enabled = true
	mo.Interval = 20 * time.Millisecond
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
		ExpectedBytes: 64 << 20, Maintenance: mo})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	datas := ingestGens(t, s, 74, 5)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.MaintenanceReport().Epochs > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.MaintenanceReport().Epochs == 0 {
		t.Fatal("background scheduler never ran an epoch")
	}
	restoreVerifyAll(t, s, datas)
}

func TestMaintenanceUnsupportedEngine(t *testing.T) {
	s, err := Open(Options{Engine: SiLoLike, ExpectedBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.MaintenanceEpoch(context.Background()); err == nil {
		t.Fatal("index-less engine must refuse maintenance")
	}
	if s.MaintenanceReport().Supported {
		t.Fatal("index-less engine reported maintenance support")
	}
	// Opening with the layer enabled must fail loudly, not silently no-op.
	mo := maintOptions()
	mo.Enabled = true
	if _, err := Open(Options{Engine: SiLoLike, ExpectedBytes: 16 << 20, Maintenance: mo}); err == nil {
		t.Fatal("Open with maintenance enabled on an index-less engine must fail")
	}
}

func TestForgetReportsDeadBytes(t *testing.T) {
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestGens(t, s, 75, 5)

	if res := s.Forget("nope"); res.Found {
		t.Fatal("Forget of unknown label reported Found")
	}
	res := s.Forget(s.Backups()[0].Label)
	if !res.Found {
		t.Fatal("Forget failed")
	}
	if res.StoredBytes <= 0 {
		t.Fatalf("no stored-byte accounting: %+v", res)
	}
	if res.DeadBytes < 0 || res.DeadFraction < 0 || res.DeadFraction > 1 {
		t.Fatalf("implausible dead-byte accounting: %+v", res)
	}
	if res.CompactRecommended != (res.DeadFraction >= 0.2) {
		t.Fatalf("recommendation inconsistent with fraction: %+v", res)
	}
	// Forgetting every generation leaves only index-authoritative copies:
	// the dead fraction must not shrink as pins disappear.
	before := res.DeadFraction
	for _, b := range s.Backups() {
		res = s.Forget(b.Label)
	}
	if res.DeadFraction < before {
		t.Fatalf("dead fraction shrank as retention dropped: %v -> %v", before, res.DeadFraction)
	}
}

func TestMaintenanceDurableAcrossReopen(t *testing.T) {
	// Epochs on a durable store: remapped recipes and the logged container
	// drops must survive Close and reopen with every backup bit-identical.
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
			ExpectedBytes: 64 << 20, Backend: FileBackend, Dir: dir, Maintenance: maintOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	datas := ingestGens(t, s, 76, 6)
	var merged int
	for i := 0; i < 3; i++ {
		st, err := s.MaintenanceEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		merged += st.ContainersMerged
	}
	restoreVerifyAll(t, s, datas)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := open()
	defer re.Close()
	if got := len(re.Backups()); got != len(datas) {
		t.Fatalf("reopen lost backups: %d, want %d", got, len(datas))
	}
	restoreVerifyAll(t, re, datas)
	rep, err := re.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("reopened store not fsck-clean after maintenance: %v", rep.Problems)
	}
	if merged == 0 {
		t.Log("note: no containers merged this run; durability still verified")
	}
}
