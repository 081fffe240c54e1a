package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/ddfs"
	"repro/internal/workload"
)

// streamSet produces nstreams deterministic multi-user backup streams.
// Calling it twice with the same arguments yields byte-identical streams.
func streamSet(t *testing.T, nstreams, round int, seed int64) []engine.Stream {
	t.Helper()
	cfg := workload.DefaultConfig(seed)
	cfg.NumFiles = 6
	cfg.MeanFileSize = 96 << 10
	m, err := workload.NewMultiUser(nstreams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streams []engine.Stream
	for r := 0; r <= round; r++ {
		streams = streams[:0]
		for _, b := range m.NextRound() {
			streams = append(streams, engine.Stream{Label: b.Label, R: b.Stream})
		}
	}
	return streams
}

func newDDFS(t *testing.T) *ddfs.Engine {
	t.Helper()
	e, err := ddfs.New(ddfs.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newDeFrag(t *testing.T) *core.Engine {
	t.Helper()
	cfg := core.DefaultConfig(64 << 20)
	cfg.Alpha = 0.1
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunStreamsSerialEquivalence pins the concurrency<=1 contract:
// RunStreams with concurrency 1 must be bit-identical — stats and recipes —
// to calling Backup on each stream in order.
func TestRunStreamsSerialEquivalence(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func(t *testing.T) engine.Engine
	}{
		{"ddfs", func(t *testing.T) engine.Engine { return newDDFS(t) }},
		{"defrag", func(t *testing.T) engine.Engine { return newDeFrag(t) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			const nstreams = 3
			e1 := mk.make(t)
			var wantStats []engine.BackupStats
			var wantRefs []int
			for _, s := range streamSet(t, nstreams, 1, 7) {
				rec, st, err := e1.Backup(context.Background(), s.Label, s.R)
				if err != nil {
					t.Fatal(err)
				}
				wantStats = append(wantStats, st)
				wantRefs = append(wantRefs, rec.Len())
			}

			e2 := mk.make(t)
			results, merged, err := engine.RunStreams(context.Background(), e2, streamSet(t, nstreams, 1, 7), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(wantStats) {
				t.Fatalf("got %d results, want %d", len(results), len(wantStats))
			}
			var sumLogical int64
			for i, res := range results {
				if !reflect.DeepEqual(res.Stats, wantStats[i]) {
					t.Errorf("stream %d: stats diverge from serial Backup:\ngot  %+v\nwant %+v",
						i, res.Stats, wantStats[i])
				}
				if res.Recipe.Len() != wantRefs[i] {
					t.Errorf("stream %d: %d recipe refs, want %d", i, res.Recipe.Len(), wantRefs[i])
				}
				sumLogical += res.Stats.LogicalBytes
			}
			if merged.LogicalBytes != sumLogical {
				t.Errorf("merged.LogicalBytes = %d, want %d", merged.LogicalBytes, sumLogical)
			}
			if e1.Clock().Now() != e2.Clock().Now() {
				t.Errorf("simulated time diverges: serial %v, RunStreams(context.Background(), 1) %v",
					e1.Clock().Now(), e2.Clock().Now())
			}
		})
	}
}

// TestRunStreamsLanesCostTheSlowest is the timing model's claim (and the
// retired multi-stream scaling table's, EXPERIMENTS.md "Retired harnesses"):
// K concurrent backups cost the slowest of K lanes, not the sum. The same two
// seeded rounds of four users go through a fresh engine at concurrency 1, 2
// and 4; the simulated time of the whole run strictly falls with each level
// while what was written, and what was deduplicated, does not move.
func TestRunStreamsLanesCostTheSlowest(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func(t *testing.T) engine.Engine
	}{
		{"ddfs", func(t *testing.T) engine.Engine { return newDDFS(t) }},
		{"defrag", func(t *testing.T) engine.Engine { return newDeFrag(t) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			const nstreams = 4
			var below engine.BackupStats
			for _, level := range []int{1, 2, 4} {
				e := mk.make(t)
				var total engine.BackupStats
				for round := 0; round < 2; round++ {
					streams := streamSet(t, nstreams, round, 31)
					_, merged, err := engine.RunStreams(context.Background(), e, streams, level)
					if err != nil {
						t.Fatal(err)
					}
					total.LogicalBytes += merged.LogicalBytes
					total.UniqueBytes += merged.UniqueBytes
					total.DedupedBytes += merged.DedupedBytes
					total.Duration += merged.Duration
				}
				if level == 1 {
					if total.DedupedBytes == 0 || total.UniqueBytes == 0 {
						t.Fatalf("the rounds do not exercise both paths: %+v", total)
					}
				} else {
					if total.Duration >= below.Duration {
						t.Errorf("concurrency %d took %v simulated, no less than %v one level down", level, total.Duration, below.Duration)
					}
					if total.LogicalBytes != below.LogicalBytes || total.UniqueBytes != below.UniqueBytes || total.DedupedBytes != below.DedupedBytes {
						t.Errorf("concurrency %d changed the dedup outcome: logical/unique/deduped %d/%d/%d, one level down %d/%d/%d",
							level, total.LogicalBytes, total.UniqueBytes, total.DedupedBytes,
							below.LogicalBytes, below.UniqueBytes, below.DedupedBytes)
					}
				}
				t.Logf("concurrency %d: %v", level, total.Duration)
				below = total
			}
		})
	}
}

// TestRunStreamsConcurrentStress runs ≥4 concurrent streams against one
// shared store (run under -race in CI). It checks the accounting invariants
// that must hold regardless of interleaving.
func TestRunStreamsConcurrentStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, mk := range []struct {
		name string
		make func(t *testing.T) engine.Engine
	}{
		{"ddfs", func(t *testing.T) engine.Engine { return newDDFS(t) }},
		{"defrag", func(t *testing.T) engine.Engine { return newDeFrag(t) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			const nstreams = 4
			e := mk.make(t)
			for round := 0; round < 3; round++ {
				streams := streamSet(t, nstreams, round, 11)
				results, merged, err := engine.RunStreams(context.Background(), e, streams, nstreams)
				if err != nil {
					t.Fatal(err)
				}
				var sumLogical, sumPlaced int64
				for i, res := range results {
					if res.Recipe == nil {
						t.Fatalf("round %d stream %d: nil recipe", round, i)
					}
					st := res.Stats
					if st.LogicalBytes != res.Recipe.Bytes() {
						t.Errorf("round %d stream %d: stats say %d logical bytes, recipe says %d",
							round, i, st.LogicalBytes, res.Recipe.Bytes())
					}
					placed := st.UniqueBytes + st.DedupedBytes + st.RewrittenBytes
					if placed != st.LogicalBytes {
						t.Errorf("round %d stream %d: unique+deduped+rewritten = %d, logical = %d",
							round, i, placed, st.LogicalBytes)
					}
					sumLogical += st.LogicalBytes
					sumPlaced += placed
				}
				if merged.LogicalBytes != sumLogical {
					t.Errorf("round %d: merged.LogicalBytes = %d, want %d", round, merged.LogicalBytes, sumLogical)
				}
				if merged.Duration <= 0 {
					t.Errorf("round %d: merged.Duration = %v, want > 0", round, merged.Duration)
				}
			}
			// The shared store must still be internally consistent: every
			// sealed container's accounting survives the interleavings.
			if got := e.Containers().NumContainers(); got == 0 {
				t.Error("no sealed containers after 3 concurrent rounds")
			}
		})
	}
}

// TestRunStreamsDuplicateConvergence backs up the same content from two
// rounds concurrently and checks the second round actually deduplicates
// against the first — the shared index and Bloom filter are visible across
// rounds whichever lane wrote the chunks.
func TestRunStreamsDuplicateConvergence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	e := newDDFS(t)
	if _, merged, err := engine.RunStreams(context.Background(), e, streamSet(t, 4, 0, 23), 4); err != nil {
		t.Fatal(err)
	} else if merged.DedupedBytes != 0 && merged.UniqueBytes == 0 {
		t.Fatalf("first round wrote nothing unique: %+v", merged)
	}
	// Second round: each user's stream mutates ~22% of files, so the bulk
	// of every stream duplicates round one.
	_, merged2, err := engine.RunStreams(context.Background(), e, streamSet(t, 4, 1, 23), 4)
	if err != nil {
		t.Fatal(err)
	}
	if merged2.DedupedBytes < merged2.LogicalBytes/2 {
		t.Errorf("second round deduplicated only %d of %d logical bytes — cross-round dedup broken",
			merged2.DedupedBytes, merged2.LogicalBytes)
	}
}
