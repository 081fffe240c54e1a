package restore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chunk"
)

// TestResidenciesCoverEveryServedRef replays plans as the executor runs
// them: whatever the policy, the capacity and the coalescing, a residency
// opens at its fetch and closes after its last ref, every ref finds its
// container open as the fetch that serves it, and under a cache of so many
// containers no more than that many residencies are ever open at a fetch.
func TestResidenciesCoverEveryServedRef(t *testing.T) {
	s := rigCap(t, false, 128<<10)
	base := ingest(t, s, "base", mkDatas(192, 6000))
	rng := rand.New(rand.NewSource(20))
	var recipes [][]chunk.Ref
	for trial := 0; trial < 12; trial++ {
		// Runs of one to five chunks with jumps in between; every third recipe
		// stays inside four containers, so that residencies are long.
		span := len(base.Refs)
		if trial%3 == 0 {
			span = 64
		}
		n := 100 + rng.Intn(300)
		refs := make([]chunk.Ref, 0, n)
		for len(refs) < n {
			pos := rng.Intn(span)
			for run := 1 + rng.Intn(5); run > 0 && len(refs) < n; run-- {
				refs = append(refs, base.Refs[pos])
				pos = (pos + 1) % span
			}
		}
		recipes = append(recipes, refs)
	}

	for _, policy := range []CachePolicy{PolicyLRU, PolicyOPT, PolicyFAA} {
		for _, coalesce := range []bool{false, true} {
			for _, capacity := range []int{1, 2, 8} {
				for trial, refs := range recipes {
					name := fmt.Sprintf("%v coalesce %v capacity %d recipe %d", policy, coalesce, capacity, trial)
					p, err := buildPlan(s, refs, capacity, policy, coalesce)
					if err != nil {
						t.Fatal(err)
					}
					open := make(map[uint32]*fetchOp)
					for i := range refs {
						loc := refs[i].Loc
						f := &p.fetches[p.servedBy[i]]
						if f.needAt == i {
							if open[loc.Container] != nil {
								t.Fatalf("%s: ref %d fetches container %d, which is still open", name, i, loc.Container)
							}
							open[loc.Container] = f
							if policy != PolicyFAA && len(open) > capacity {
								t.Fatalf("%s: %d residencies open at the fetch for ref %d, capacity %d", name, len(open), i, capacity)
							}
						}
						if h := open[loc.Container]; h != f {
							t.Fatalf("%s: ref %d is served by the fetch at ref %d but finds container %d open as %v", name, i, f.needAt, loc.Container, h)
						}
						if f.last == i {
							delete(open, loc.Container)
						}
					}
					if len(open) > 0 {
						t.Fatalf("%s: %d residencies still open after the last ref", name, len(open))
					}
				}
			}
		}
	}
}
