package restore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
)

// TestRangesCoverEveryServedRef is the planner's half of the ranged-loan
// contract: whatever the policy, the capacity and the coalescing, every ref's
// bytes lie inside the wanted ranges of the fetch whose section the executor
// will cut it from, and the ranges are what a backend may be handed — sorted,
// disjoint, inside the section. The replay is the executor's: a residency
// opens at its fetch and closes after its last ref, every ref must find its
// container open, and under a cache of so many containers no more than that
// many residencies are ever open at a fetch.
func TestRangesCoverEveryServedRef(t *testing.T) {
	// 96 KB of sixteen 6000-byte chunks per container: chunks two apart are
	// further than wantHole from each other, so a fetch can want several ranges.
	s := rigCap(t, false, 128<<10)
	base := ingest(t, s, "base", mkDatas(192, 6000))
	rng := rand.New(rand.NewSource(20))
	var recipes [][]chunk.Ref
	for trial := 0; trial < 12; trial++ {
		// Runs of one to five chunks with jumps in between; every third recipe
		// stays inside four containers, so that some fetches want nearly all
		// of their section.
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

	ranged, whole := 0, 0
	scratch := make([]byte, 128<<10)
	for _, policy := range []CachePolicy{PolicyLRU, PolicyOPT, PolicyFAA} {
		for _, coalesce := range []bool{false, true} {
			for _, capacity := range []int{1, 2, 8} {
				for trial, refs := range recipes {
					name := fmt.Sprintf("%v coalesce %v capacity %d recipe %d", policy, coalesce, capacity, trial)
					p, err := buildPlan(s, refs, capacity, policy, coalesce)
					if err != nil {
						t.Fatal(err)
					}
					p.buildWants(s, refs)
					for fx := range p.fetches {
						f := &p.fetches[fx]
						if f.want == nil {
							whole++
							continue
						}
						ranged++
						end, at := int64(0), int64(0)
						for k, r := range f.want {
							if r.Off < end || r.Len <= 0 || r.Off+r.Len > s.DataFill(f.container) {
								t.Fatalf("%s: fetch %d of container %d (%d bytes) wants %v", name, fx, f.container, s.DataFill(f.container), f.want)
							}
							if f.at[k] != at {
								t.Fatalf("%s: fetch %d packs range %d at %d, after %d bytes of the ones before", name, fx, k, f.at[k], at)
							}
							end, at = r.Off+r.Len, at+r.Len
						}
						if f.packed != at || len(f.at) != len(f.want) {
							t.Fatalf("%s: fetch %d packs %d bytes in %d ranges, its ranges are %d bytes in %d", name, fx, f.packed, len(f.at), at, len(f.want))
						}
						if e := &p.extents[f.extent]; p.fetchOf(e, f.container) != f {
							t.Fatalf("%s: the extent of fetch %d lends for another fetch of its container", name, fx)
						}
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
						if f.want == nil {
							continue
						}
						off, packedAt := loc.Offset-s.DataStart(loc.Container), int64(-1)
						for k, r := range f.want {
							if r.Off <= off && off+int64(loc.Size) <= r.Off+r.Len {
								packedAt = f.at[k] + off - r.Off
							}
						}
						if packedAt < 0 {
							t.Fatalf("%s: ref %d is bytes [%d,+%d) of container %d, outside the ranges %v of the fetch (at ref %d) that serves it",
								name, i, off, loc.Size, loc.Container, f.want, f.needAt)
						}
						packed := scratch[:f.packed]
						if got := f.cut(packed, off, loc.Size); &got[0] != &packed[packedAt] || len(got) != int(loc.Size) {
							t.Fatalf("%s: ref %d is cut from the wrong bytes of its packed section", name, i)
						}
					}
					if len(open) > 0 {
						t.Fatalf("%s: %d residencies still open after the last ref", name, len(open))
					}
				}
			}
		}
	}
	if ranged == 0 || whole == 0 {
		t.Fatalf("%d ranged fetches and %d of whole sections: the recipes must make both", ranged, whole)
	}
}

func TestMergeRanges(t *testing.T) {
	r := func(off, n int64) blockstore.Range { return blockstore.Range{Off: off, Len: n} }
	const fill = 1 << 20
	for _, tc := range []struct {
		name string
		in   []blockstore.Range
		want []blockstore.Range
	}{
		{"sorted and kept apart", []blockstore.Range{r(500000, 100), r(0, 100)}, []blockstore.Range{r(0, 100), r(500000, 100)}},
		{"a small hole is read through", []blockstore.Range{r(0, 100), r(100+wantHole, 50)}, []blockstore.Range{r(0, 150+wantHole)}},
		{"a larger one is not", []blockstore.Range{r(0, 100), r(101+wantHole, 50)}, []blockstore.Range{r(0, 100), r(101+wantHole, 50)}},
		{"the same chunk twice, and one inside another", []blockstore.Range{r(40000, 10), r(0, 30000), r(40000, 10), r(10, 10)}, []blockstore.Range{r(0, 30000), r(40000, 10)}},
		{"nearly everything is everything", []blockstore.Range{r(0, fill/2), r(fill/2+fill/wholeReadCut, fill/2-fill/wholeReadCut)}, nil},
		{"a little less is not", []blockstore.Range{r(0, fill/2), r(fill/2+fill/wholeReadCut+1, 100)}, []blockstore.Range{r(0, fill/2), r(fill/2+fill/wholeReadCut+1, 100)}},
	} {
		if got := mergeRanges(tc.in, fill); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
