package idedup

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/cindex"
	"repro/internal/enginetest"
)

func testConfig(minRun int, storeData bool) Config {
	cfg := DefaultConfig(64 << 20)
	cfg.MinRun = minRun
	cfg.StoreData = storeData
	return cfg
}

func randStream(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestAllUniqueBackup(t *testing.T) {
	e, err := New(testConfig(8, false))
	if err != nil {
		t.Fatal(err)
	}
	data := randStream(4<<20, 1)
	_, st, err := e.Backup(context.Background(), "g0", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	enginetest.CheckConservation(t, st)
	if st.DedupedBytes != 0 || st.UniqueBytes != int64(len(data)) {
		t.Fatalf("random stream stats wrong: %+v", st)
	}
}

func TestIdenticalSecondBackupDedupesLongRuns(t *testing.T) {
	e, _ := New(testConfig(8, false))
	data := randStream(6<<20, 2)
	e.Backup(context.Background(), "g0", bytes.NewReader(data))
	_, st, err := e.Backup(context.Background(), "g1", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// An identical stream is one giant physically-contiguous duplicate run
	// per container: nearly everything passes the filter.
	if frac := float64(st.DedupedBytes) / float64(st.LogicalBytes); frac < 0.9 {
		t.Fatalf("identical re-backup deduped only %.1f%%", frac*100)
	}
	if st.IndexLookups != 0 {
		t.Fatal("iDedup uses a RAM index; no charged lookups")
	}
}

func TestMinRunOneIsExact(t *testing.T) {
	e, _ := New(testConfig(1, false))
	e.SetOracle(cindex.NewOracle())
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(3), 4)
	for g, gr := range gens {
		if gr.Stats.DedupedBytes != gr.Stats.OracleRedundantBytes {
			t.Fatalf("gen %d: MinRun=1 should be exact: %d != %d",
				g, gr.Stats.DedupedBytes, gr.Stats.OracleRedundantBytes)
		}
	}
}

func TestHigherMinRunRewritesMore(t *testing.T) {
	run := func(minRun int) int64 {
		e, _ := New(testConfig(minRun, false))
		gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(5), 6)
		var rw int64
		for _, gr := range gens {
			rw += gr.Stats.RewrittenBytes
		}
		return rw
	}
	low, high := run(2), run(32)
	if high <= low {
		t.Fatalf("MinRun=32 should rewrite more than MinRun=2: %d vs %d", high, low)
	}
}

func TestFragmentationBoundedByRunFilter(t *testing.T) {
	// With MinRun=8 every deduped run spans ≥8 chunks, so the recipe's
	// bytes-per-fragment must be at least ~8 small chunks' worth.
	e, _ := New(testConfig(8, false))
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(7), 8)
	last := gens[7]
	meanRun := float64(last.Recipe.Bytes()) / float64(last.Recipe.Fragments())
	minChunk := 2048.0 // chunker minimum
	if meanRun < 4*minChunk {
		t.Fatalf("mean fragment %.0f bytes; run filter should keep fragments coarse", meanRun)
	}
}

func TestRestoreCorrectness(t *testing.T) {
	e, _ := New(testConfig(8, true))
	gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(9), 5)
	enginetest.VerifyRestores(t, e, gens)
}

func TestNameAndAccessors(t *testing.T) {
	e, _ := New(testConfig(8, false))
	if e.Name() != "idedup" {
		t.Fatal("name")
	}
	if e.cfg.MinRun != 8 || e.Containers() == nil || e.Clock() == nil {
		t.Fatal("accessors")
	}
}

func TestMinRunClamped(t *testing.T) {
	e, _ := New(testConfig(0, false))
	if e.cfg.MinRun != 1 {
		t.Fatal("MinRun must clamp to 1")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		e, _ := New(testConfig(8, false))
		gens := enginetest.RunGenerations(t, e, enginetest.SmallConfig(13), 3)
		return gens[2].Stats.UniqueBytes, gens[2].Stats.RewrittenBytes
	}
	u1, r1 := run()
	u2, r2 := run()
	if u1 != u2 || r1 != r2 {
		t.Fatal("engine not deterministic")
	}
}
