package restore

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chunk"
)

// TestOPTNeverWorseThanLRUProperty is the Belady-optimality property test:
// across randomized fragmented recipes and cache capacities, the OPT plan
// never schedules more container fetches than the LRU plan at the same
// capacity.
func TestOPTNeverWorseThanLRUProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := rig(t, false)
	base := ingest(t, s, "base", mkDatas(120, 300))

	for trial := 0; trial < 50; trial++ {
		// Random recipe: a random-length walk over the base refs, biased
		// toward revisiting earlier regions (what fragmented dedup recipes
		// look like: long runs with backward jumps into shared history).
		n := 50 + rng.Intn(200)
		refs := make([]chunk.Ref, 0, n)
		pos := rng.Intn(len(base.Refs))
		for len(refs) < n {
			run := 1 + rng.Intn(8)
			for k := 0; k < run && len(refs) < n; k++ {
				refs = append(refs, base.Refs[pos])
				pos = (pos + 1) % len(base.Refs)
			}
			pos = rng.Intn(len(base.Refs))
		}
		capacity := 1 + rng.Intn(6)

		lruPlan, err := buildPlan(s, refs, capacity, PolicyLRU, false)
		if err != nil {
			t.Fatal(err)
		}
		optPlan, err := buildPlan(s, refs, capacity, PolicyOPT, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(optPlan.fetches) > len(lruPlan.fetches) {
			t.Fatalf("trial %d (cap %d, %d refs): OPT %d fetches > LRU %d",
				trial, capacity, n, len(optPlan.fetches), len(lruPlan.fetches))
		}
	}
}

// TestOPTBeatsLRUOnLoopingRecipe pins a case where OPT is strictly better:
// a cyclic scan one container larger than the cache, LRU's classic
// worst case (it evicts exactly the container needed next, missing every
// time, while OPT misses only once per capacity-sized stride).
func TestOPTBeatsLRUOnLoopingRecipe(t *testing.T) {
	s := rig(t, false)
	base := ingest(t, s, "base", mkDatas(60, 300))

	// One ref per distinct container, cycled several times.
	seen := make(map[uint32]bool)
	var perContainer []chunk.Ref
	for _, r := range base.Refs {
		if !seen[r.Loc.Container] {
			seen[r.Loc.Container] = true
			perContainer = append(perContainer, r)
		}
	}
	if len(perContainer) < 4 {
		t.Fatalf("need several containers, got %d", len(perContainer))
	}
	loop := &chunk.Recipe{Label: "loop"}
	for cycle := 0; cycle < 6; cycle++ {
		loop.Refs = append(loop.Refs, perContainer...)
	}
	capacity := len(perContainer) - 1

	lruSt, err := RunPipelined(context.Background(), s, loop, PipelineConfig{CacheContainers: capacity, Policy: PolicyLRU}, nil)
	if err != nil {
		t.Fatal(err)
	}
	optSt, err := RunPipelined(context.Background(), s, loop, PipelineConfig{CacheContainers: capacity, Policy: PolicyOPT}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lruSt.ContainerReads != int64(len(loop.Refs)) {
		t.Fatalf("LRU should miss every ref of the loop: %d reads, %d refs",
			lruSt.ContainerReads, len(loop.Refs))
	}
	if optSt.ContainerReads >= lruSt.ContainerReads {
		t.Fatalf("OPT should beat LRU on the loop: %d >= %d",
			optSt.ContainerReads, lruSt.ContainerReads)
	}
	if optSt.Duration >= lruSt.Duration {
		t.Fatal("fewer reads must mean less simulated time")
	}
}
