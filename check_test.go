package repro

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestCheckCleanStoreAllEngines(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind EngineKind) {
		s, err := Open(Options{Engine: kind, StoreData: true, ExpectedBytes: 32 << 20, Alpha: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		data := randStream(2<<20, int64(kind)*3+1)
		s.Backup(context.Background(), "a", bytes.NewReader(data))
		s.Backup(context.Background(), "b", bytes.NewReader(data))
		rep, err := s.Check(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("clean %s store flagged: %v", kind, rep.Problems)
		}
		if rep.RecipeRefs == 0 || rep.MetaEntries == 0 || rep.HashedChunks == 0 {
			t.Fatalf("report counts: %+v", rep)
		}
	})
}

func TestCheckAfterCompact(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20})
	data1 := randStream(3<<20, 51)
	// Build overlapping streams so rewrites (and thus garbage) occur.
	data2 := append(append([]byte{}, data1[:1<<20]...), randStream(2<<20, 52)...)
	s.Backup(context.Background(), "a", bytes.NewReader(data1))
	s.Backup(context.Background(), "b", bytes.NewReader(data2))
	if _, err := s.Compact(context.Background(), 0.9); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-compact store flagged: %v", rep.Problems)
	}
}

func TestCheckVerifyRequiresStoreData(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 16 << 20})
	s.Backup(context.Background(), "a", bytes.NewReader(randStream(1<<20, 53)))
	if _, err := s.Check(context.Background(), true); err == nil {
		t.Fatal("verifyData without StoreData must error")
	}
	rep, err := s.Check(context.Background(), false)
	if err != nil || !rep.OK() {
		t.Fatalf("metadata-only check: %v %v", err, rep.Problems)
	}
}

// TestCheckReadsEachContainerOnce: Check(verifyData) fetches each sealed
// container the retained recipes reference exactly once, however often their
// refs cross between containers, and no other.
func TestCheckReadsEachContainerOnce(t *testing.T) {
	var counts *blockstore.Counting
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend { counts = blockstore.NewCounting(be); return counts }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestGens(t, s, 7, 6)
	referenced := map[uint32]bool{}
	switches := 0
	for _, b := range s.Backups() {
		refs := b.recipe().Refs
		for i, ref := range refs {
			referenced[ref.Loc.Container] = true
			if i > 0 && ref.Loc.Container != refs[i-1].Loc.Container {
				switches++
			}
		}
	}
	if switches <= len(referenced) {
		t.Fatalf("%d container switches over %d containers: the store does not interleave, nothing is tested", switches, len(referenced))
	}
	counts.ResetCounts()
	rep, err := s.Check(context.Background(), true)
	if err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	if got := counts.DataSectionReads(); got != int64(len(referenced)) {
		t.Fatalf("Check read %d sections for %d referenced containers", got, len(referenced))
	}
}

// churnStore builds the rig's churn-maint shape in a file store at dir:
// gens generations of a files-file workload backed up by DeFrag α 0.1, and
// past the sixth a Forget of the oldest and a MaintenanceEpoch after each
// ingest. containerCap > 0 sets the container data capacity. It returns the
// open store and the logical bytes of the retained backups.
func churnStore(tb testing.TB, dir string, gens, files int, containerCap int64) (*Store, int64) {
	tb.Helper()
	ctx := context.Background()
	opts := Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 256 << 20, Backend: FileBackend, Dir: dir}
	if containerCap > 0 {
		opts.tune.defrag = func(c *core.Config) { c.ContainerCfg.DataCap = containerCap }
	}
	s, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
	wcfg := workload.DefaultConfig(24)
	wcfg.NumFiles = files
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		tb.Fatal(err)
	}
	var labels []string
	for g := 0; g < gens; g++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Backup(ctx, b.Label, bytes.NewReader(data)); err != nil {
			tb.Fatal(err)
		}
		labels = append(labels, b.Label)
		if len(labels) > 6 {
			if !s.Forget(labels[0]).Found {
				tb.Fatalf("forget %s: not retained", labels[0])
			}
			labels = labels[1:]
			if _, err := s.MaintenanceEpoch(ctx); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var logical int64
	for _, b := range s.Backups() {
		logical += b.Stats.LogicalBytes
	}
	return s, logical
}

// TestCheckAllocatesLessThanASectionPerContainer: Check(verifyData) reads
// sections through the restore executor, which maps them, so re-hashing a file store of dozens of containers allocates less than one
// data section per referenced container, which a reader that makes a fresh
// buffer for each fetch spends on the sections alone.
func TestCheckAllocatesLessThanASectionPerContainer(t *testing.T) {
	s, _ := churnStore(t, t.TempDir(), 10, 16, 576<<10)
	cs := s.eng.Containers()
	referenced := map[uint32]bool{}
	var sections uint64
	for _, b := range s.Backups() {
		for _, ref := range b.recipe().Refs {
			if id := ref.Loc.Container; !referenced[id] {
				referenced[id] = true
				sections += uint64(cs.DataFill(id))
			}
		}
	}
	if len(referenced) < 24 {
		t.Fatalf("the backups reference %d containers; the test needs dozens", len(referenced))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := s.Check(context.Background(), true)
	runtime.ReadMemStats(&after)
	if err != nil || !rep.OK() || rep.HashedChunks == 0 {
		t.Fatalf("check: %v %v, %d chunks hashed", err, rep.Problems, rep.HashedChunks)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Check allocated %d bytes re-hashing %d containers of %d section bytes", got, len(referenced), sections)
	if got >= sections {
		t.Fatal("Check allocated a data section per referenced container, or more")
	}
}

// BenchmarkCheckVerify times Check(verifyData) on a churn-maint-shaped file
// store (20 generations of 32 files, retention 6 with an epoch after each
// ingest). MB/s is the retained backups' logical bytes over wall time.
func BenchmarkCheckVerify(b *testing.B) {
	s, logical := churnStore(b, b.TempDir(), 20, 32, 0)
	ctx := context.Background()
	b.SetBytes(logical)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
			b.Fatalf("check: %v %v", err, rep.Problems)
		}
	}
}
