package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cindex"
	"repro/internal/engine/ddfs"
	"repro/internal/enginetest"
)

func testConfig(alpha float64, storeData bool) Config {
	cfg := DefaultConfig(64 << 20)
	cfg.Alpha = alpha
	cfg.StoreData = storeData
	return cfg
}

func randStream(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestAlphaValidation(t *testing.T) {
	for _, a := range []float64{-0.1, 1.5} {
		cfg := testConfig(a, false)
		if _, err := New(cfg); err == nil {
			t.Errorf("α=%v should be rejected", a)
		}
	}
	for _, a := range []float64{0, 0.1, 1} {
		if _, err := New(testConfig(a, false)); err != nil {
			t.Errorf("α=%v should be accepted: %v", a, err)
		}
	}
}

func TestAlphaZeroNeverRewrites(t *testing.T) {
	// α = 0 means SPL < 0 never holds: DeFrag degenerates to exact DDFS.
	e, _ := New(testConfig(0, false))
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(3), 5)
	for g, gr := range gens {
		if gr.Stats.RewrittenBytes != 0 {
			t.Fatalf("gen %d: α=0 rewrote %d bytes", g, gr.Stats.RewrittenBytes)
		}
	}
}

func TestAlphaZeroMatchesDDFSDedup(t *testing.T) {
	de, _ := New(testConfig(0, false))
	dd, _ := ddfs.New(ddfs.DefaultConfig(64 << 20))
	gd := enginetest.RunGenerations(t, de, enginetest.SmallConfig(5), 4)
	gf := enginetest.RunGenerations(t, dd, enginetest.SmallConfig(5), 4)
	for g := range gd {
		if gd[g].Stats.DedupedBytes != gf[g].Stats.DedupedBytes ||
			gd[g].Stats.UniqueBytes != gf[g].Stats.UniqueBytes {
			t.Fatalf("gen %d: α=0 DeFrag diverged from DDFS: %+v vs %+v",
				g, gd[g].Stats, gf[g].Stats)
		}
	}
}

func TestRewritesHappenUnderFragmentation(t *testing.T) {
	e, _ := New(testConfig(0.1, false))
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(7), 8)
	var rewritten int64
	for _, gr := range gens {
		rewritten += gr.Stats.RewrittenBytes
	}
	if rewritten == 0 {
		t.Fatal("α=0.1 over churning generations should rewrite something")
	}
}

func TestRestoreCorrectness(t *testing.T) {
	e, _ := New(testConfig(0.1, true))
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(9), 6)
	enginetest.VerifyRestores(t, e, gens)
}

func TestIdenticalSecondBackupFullyDedupes(t *testing.T) {
	// A fully duplicate stream has SPL 1 against its own segments: nothing
	// should be rewritten, everything removed.
	e, _ := New(testConfig(0.1, false))
	data := randStream(6<<20, 11)
	e.Backup(context.Background(), "g0", bytes.NewReader(data))
	_, st, err := e.Backup(context.Background(), "g1", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.RewrittenBytes != 0 {
		t.Fatalf("identical stream rewrote %d bytes (SPL should be ~1)", st.RewrittenBytes)
	}
	if st.DedupedBytes != st.LogicalBytes {
		t.Fatalf("identical stream deduped %d of %d", st.DedupedBytes, st.LogicalBytes)
	}
}

func TestHighAlphaRewritesMore(t *testing.T) {
	run := func(alpha float64) int64 {
		e, _ := New(testConfig(alpha, false))
		gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(13), 6)
		var rw int64
		for _, gr := range gens {
			rw += gr.Stats.RewrittenBytes
		}
		return rw
	}
	low, high := run(0.05), run(0.5)
	if high <= low {
		t.Fatalf("α=0.5 should rewrite more than α=0.05: %d vs %d", high, low)
	}
}

func TestIndexRepointedToRewrittenCopy(t *testing.T) {
	e, _ := New(testConfig(0.1, false))
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(15), 8)
	// Find a rewritten generation, then check that at least one recipe ref
	// of the latest generation points at a container written after gen 0.
	var sawRewrite bool
	for _, gr := range gens {
		if gr.Stats.RewrittenChunks > 0 {
			sawRewrite = true
		}
	}
	if !sawRewrite {
		t.Skip("workload produced no rewrites at this scale")
	}
	last := gens[len(gens)-1].Recipe
	// Every referenced location must be indexed at least as new as itself:
	// the index never points at an older copy than the recipe references.
	for _, ref := range last.Refs {
		loc, ok := e.Index().Peek(ref.FP)
		if !ok {
			t.Fatalf("recipe fp %s missing from index", ref.FP.Short())
		}
		if loc.Container < ref.Loc.Container {
			t.Fatalf("index points at older container (%d) than recipe (%d)", loc.Container, ref.Loc.Container)
		}
	}
}

func TestLessFragmentationThanDDFS(t *testing.T) {
	// The headline Fig. 6 mechanism: after several generations DeFrag's
	// recipes are less fragmented than DDFS's.
	wcfg := enginetest.SmallConfig(17)
	de, _ := New(DefaultConfig(enginetest.ExpectedBytes(wcfg, 10)))
	dd, _ := ddfs.New(ddfs.DefaultConfig(enginetest.ExpectedBytes(wcfg, 10)))
	gd := enginetest.RunGenerations(t, de, wcfg, 10)
	gf := enginetest.RunGenerations(t, dd, wcfg, 10)
	deFrags := gd[9].Recipe.Fragments()
	ddFrags := gf[9].Recipe.Fragments()
	if deFrags >= ddFrags {
		t.Fatalf("DeFrag fragments %d should be below DDFS %d at gen 9", deFrags, ddFrags)
	}
}

func TestCompressionSacrificeIsBounded(t *testing.T) {
	// "at the cost of little compression ratios": rewritten bytes stay a
	// small fraction of the redundancy removed.
	e, _ := New(testConfig(0.1, false))
	e.SetOracle(cindex.NewOracle())
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(19), 10)
	var rewritten, redundant int64
	for _, gr := range gens {
		rewritten += gr.Stats.RewrittenBytes
		redundant += gr.Stats.OracleRedundantBytes
	}
	if redundant == 0 {
		t.Fatal("no redundancy generated")
	}
	if frac := float64(rewritten) / float64(redundant); frac > 0.25 {
		t.Fatalf("rewrites consumed %.1f%% of redundancy; 'little compression cost' violated", frac*100)
	}
}

func TestUtilizationReflectsRewrites(t *testing.T) {
	e, _ := New(testConfig(0.2, false))
	enginetest.RunGenerations(t, e, enginetest.SmallConfig(21), 8)
	if u := e.Containers().Utilization(); u >= 1.0 || u <= 0 {
		t.Fatalf("utilization should be in (0,1) after rewrites, got %v", u)
	}
}

func TestNameAndAccessors(t *testing.T) {
	e, _ := New(testConfig(0.1, false))
	if e.Name() != "defrag" {
		t.Fatal("name")
	}
	if e.cfg.Alpha != 0.1 {
		t.Fatal("alpha accessor")
	}
	if e.Containers() == nil || e.Clock() == nil || e.Index() == nil {
		t.Fatal("nil accessors")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		e, _ := New(testConfig(0.1, false))
		gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(23), 3)
		return gens[2].Stats.UniqueBytes, gens[2].Stats.RewrittenBytes
	}
	u1, r1 := run()
	u2, r2 := run()
	if u1 != u2 || r1 != r2 {
		t.Fatal("engine not deterministic")
	}
}

// TestParallelWorkersDeterminism pins the dual-clock contract at the engine
// level: wall-clock parallelism in the chunk/hash pipeline (a pool of
// GOMAXPROCS hash workers, inline at one) must not change what the engine
// does — recipes bit-identical, every BackupStats field and with it the
// simulated time the same — only how fast the wall clock gets there.
func TestParallelWorkersDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	run := func(procs int, storeData bool) []enginetest.Generation {
		runtime.GOMAXPROCS(procs)
		e, err := New(testConfig(0.1, storeData))
		if err != nil {
			t.Fatal(err)
		}
		return enginetest.RunGenerations(t, e, enginetest.SmallConfig(29), 3)
	}
	for _, storeData := range []bool{true, false} {
		want := run(1, storeData)
		for _, procs := range []int{2, 4} {
			got := run(procs, storeData)
			for g := range want {
				if got[g].Stats != want[g].Stats {
					t.Fatalf("storeData=%v procs=%d gen %d: stats differ:\n%+v\n%+v",
						storeData, procs, g, got[g].Stats, want[g].Stats)
				}
				if got[g].Recipe.Label != want[g].Recipe.Label || !slices.Equal(got[g].Recipe.Refs, want[g].Recipe.Refs) {
					t.Fatalf("storeData=%v procs=%d gen %d: recipes not bit-identical", storeData, procs, g)
				}
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicySPL.String() != "spl" || PolicyContainer.String() != "container" ||
		RewritePolicy(9).String() != "unknown" {
		t.Fatal("policy names")
	}
}

func TestContainerPolicyRewrites(t *testing.T) {
	cfg := testConfig(0.1, false)
	cfg.Policy = PolicyContainer
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Policy != PolicyContainer {
		t.Fatal("policy accessor")
	}
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(25), 8)
	var rewritten int64
	for _, gr := range gens {
		rewritten += gr.Stats.RewrittenBytes
	}
	if rewritten == 0 {
		t.Fatal("container policy should rewrite under churn")
	}
}

func TestContainerPolicyRestoresCorrectly(t *testing.T) {
	cfg := testConfig(0.1, true)
	cfg.Policy = PolicyContainer
	e, _ := New(cfg)
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(27), 5)
	enginetest.VerifyRestores(t, e, gens)
}

func TestPoliciesDivergeButBothHelp(t *testing.T) {
	// The two grouping granularities must make different decisions on a
	// churning workload, and both must keep fragmentation below plain DDFS.
	run := func(p RewritePolicy) (int64, int) {
		cfg := testConfig(0.1, false)
		cfg.Policy = p
		e, _ := New(cfg)
		gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(29), 8)
		var rw int64
		for _, gr := range gens {
			rw += gr.Stats.RewrittenBytes
		}
		return rw, gens[7].Recipe.Fragments()
	}
	rwSPL, fragSPL := run(PolicySPL)
	rwCTR, fragCTR := run(PolicyContainer)
	if rwSPL == rwCTR {
		t.Fatalf("policies made identical rewrite volumes (%d); granularities not distinct", rwSPL)
	}
	dd, _ := ddfs.New(ddfs.DefaultConfig(64 << 20))
	gd := enginetest.RunGenerations(t, dd, enginetest.SmallConfig(29), 8)
	ddFrag := gd[7].Recipe.Fragments()
	if fragSPL >= ddFrag && fragCTR >= ddFrag {
		t.Fatalf("neither policy reduced fragmentation: spl=%d ctr=%d ddfs=%d", fragSPL, fragCTR, ddFrag)
	}
}

// TestIngestAllocBytesPerByte pins what ingest allocates per byte it takes
// in. The stream's bytes live in pooled hash-job buffers and in two container
// fill buffers, one of them the store's own and the other allocated once per
// stream at full size, so on a warmed store a backup allocates little more
// than what it leaves behind: the sections Sim.Seal clones (every byte of an
// all-unique stream), the recipe, index entries and container metadata.
// Before, each backup regrew two 4 MiB fill buffers by doubling, ≈ 16 MiB or
// 0.5 B per byte of this stream, and 0.84 B in all.
func TestIngestAllocBytesPerByte(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops job buffers at random under the race detector")
	}
	// One P: the pipeline runs inline, so the number of jobs in flight does
	// not depend on scheduling, and sync.Pool (per-P) never misses a job that
	// another P put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig(0.1, true)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := e.Backup(ctx, "warm", bytes.NewReader(randStream(32<<20, 31))); err != nil {
		t.Fatal(err)
	}
	data := randStream(32<<20, 32)
	// No collection while measuring: one would empty the job pool part-way
	// and charge this backup for buffers the first one already paid for.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, stats, err := e.Backup(ctx, "second", bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UniqueBytes != int64(len(data)) {
		t.Fatalf("stream meant to be all unique: %d of %d bytes", stats.UniqueBytes, len(data))
	}
	fixed := stats.WrittenBytes() + cfg.ContainerCfg.DataCap // Sim's clones, and the stream's own fill buffer
	perByte := (float64(after.TotalAlloc-before.TotalAlloc) - float64(fixed)) / float64(len(data))
	t.Logf("allocated %.3f B per ingested byte beyond the %d MiB the backend retains and one fill buffer", perByte, stats.WrittenBytes()>>20)
	if perByte > 0.15 {
		t.Fatalf("ingest allocates %.3f B per byte beyond what Sim.Seal retains and one fill buffer, want <= 0.15", perByte)
	}
}
