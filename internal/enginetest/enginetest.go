// Package enginetest provides shared scenario helpers for testing the five
// deduplication engines against common invariants: byte conservation,
// restore correctness, dedup effectiveness across generations, and
// simulated-time sanity.
package enginetest

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/chunk"
	"repro/internal/engine"
	"repro/internal/restore"
	"repro/internal/workload"
)

// SmallConfig returns a workload small enough for unit tests (~6 MB/gen).
func SmallConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig(seed)
	cfg.NumFiles = 8
	cfg.MeanFileSize = 640 << 10
	return cfg
}

// ExpectedBytes estimates total ingest for engine sizing.
func ExpectedBytes(cfg workload.Config, gens int) int64 {
	return int64(gens) * int64(cfg.NumFiles) * cfg.MeanFileSize * 2
}

// CheckConservation asserts the fundamental backup invariant: every logical
// byte is unique, deduped, or rewritten.
func CheckConservation(t *testing.T, st engine.BackupStats) {
	t.Helper()
	got := st.UniqueBytes + st.DedupedBytes + st.RewrittenBytes
	if got != st.LogicalBytes {
		t.Fatalf("%s: conservation violated: unique %d + deduped %d + rewritten %d = %d != logical %d",
			st.Label, st.UniqueBytes, st.DedupedBytes, st.RewrittenBytes, got, st.LogicalBytes)
	}
	if st.Duration <= 0 {
		t.Fatalf("%s: non-positive duration %v", st.Label, st.Duration)
	}
}

// Generation captures one ingested generation.
type Generation struct {
	Data   []byte
	Recipe *chunk.Recipe
	Stats  engine.BackupStats
}

// RunGenerations ingests gens generations of a single-user workload through
// eng, asserting conservation on each, and returns the per-generation
// record (original bytes, recipe, stats).
func RunGenerations(t *testing.T, eng engine.Engine, cfg workload.Config, gens int) []Generation {
	t.Helper()
	sched, err := workload.NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Generation, 0, gens)
	for g := 0; g < gens; g++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		rec, st, err := eng.Backup(context.Background(), b.Label, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		CheckConservation(t, st)
		if st.LogicalBytes != int64(len(data)) {
			t.Fatalf("gen %d: logical bytes %d != stream %d", g, st.LogicalBytes, len(data))
		}
		out = append(out, Generation{Data: data, Recipe: rec, Stats: st})
	}
	return out
}

// VerifyRestores restores every recorded generation with content
// verification and compares against the original stream bytes. Requires the
// engine's containers to store data (StoreData: true).
func VerifyRestores(t *testing.T, eng engine.Engine, gens []Generation) {
	t.Helper()
	rcfg := restore.DefaultConfig()
	rcfg.Verify = true
	for g, gr := range gens {
		if err := restore.VerifyAgainst(context.Background(), eng.Containers(), gr.Recipe, rcfg, gr.Data); err != nil {
			t.Fatalf("generation %d restore: %v", g, err)
		}
	}
}
