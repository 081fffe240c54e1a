package restore

import (
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/lru"
)

// CachePolicy selects the schedule RunPipelined executes: which refs fetch
// their container and what each fetch evicts.
type CachePolicy int

const (
	// PolicyLRU evicts the least-recently-used container — the classic
	// restore cache, and the schedule behind the paper's figures.
	PolicyLRU CachePolicy = iota
	// PolicyOPT evicts the container whose next use lies farthest ahead in
	// the recipe (Belady's offline-optimal replacement). The full recipe is
	// known before a restore starts, so — uniquely among the system's cache
	// consumers — the restore path can run the offline-optimal policy
	// online. At equal capacity OPT never performs more container reads
	// than LRU (Belady's optimality), which the property tests pin.
	PolicyOPT
	// PolicyFAA is forward assembly (the restore-side counterpart of
	// Lillibridge et al.'s FAST'13 analysis): the stream is cut into windows
	// of CacheContainers × DataCap logical bytes, a container is fetched at
	// its first reference in a window and stays until the window ends, so
	// each is read exactly once per window however badly the recipe
	// interleaves. The budget bounds the stream bytes assembled at once, not
	// the containers held. Which of FAA and a cache wins depends on the
	// fragmentation structure; RunRestoreAblation compares them.
	PolicyFAA
)

func (p CachePolicy) String() string {
	switch p {
	case PolicyOPT:
		return "opt"
	case PolicyFAA:
		return "faa"
	}
	return "lru"
}

// maxCoalesce caps the containers merged into one extent read.
const maxCoalesce = 8

// fetchOp is one planned cache miss: container must be fetched just before
// recipe ref needAt is assembled. Its residency is the refs it serves, from
// needAt until the container's next fetch; the executor lets go of the section
// right after the last of them, ref last.
type fetchOp struct {
	container uint32
	needAt    int
	last      int
	extent    int // index of the physical extent read that carries this fetch
}

// extent is one physical read: the containers of fetch ops [lo,hi) are
// adjacent on device and read as a single sequential span (one seek).
type extent struct {
	lo, hi int
	ids    []uint32
}

// restorePlan is the precomputed fetch schedule of one recipe at one cache
// configuration: which fetch serves each ref, which refs trigger a fetch, and
// how fetches group into coalesced extent reads. The plan is pure metadata —
// building it performs no simulated I/O.
type restorePlan struct {
	servedBy  []int32 // per ref: index into fetches of the fetch whose section it is cut from
	fetches   []fetchOp
	extents   []extent
	evictions int64 // containers the policy evicts, over the whole schedule
}

// buildPlan simulates the chosen policy over the recipe and returns the
// fetch schedule. All referenced containers must be sealed.
func buildPlan(store *container.Store, refs []chunk.Ref, capacity int, policy CachePolicy, coalesce bool) (*restorePlan, error) {
	seen := make(map[uint32]bool)
	for i := range refs {
		id := refs[i].Loc.Container
		if seen[id] {
			continue
		}
		seen[id] = true
		if !store.Sealed(id) {
			return nil, fmt.Errorf("restore: recipe references unsealed container %d", id)
		}
	}
	p := &restorePlan{servedBy: make([]int32, len(refs))}
	switch policy {
	case PolicyOPT:
		p.simulateOPT(refs, capacity)
	case PolicyFAA:
		p.simulateFAA(refs, int64(capacity)*store.Config().DataCap)
	default:
		p.simulateLRU(refs, capacity)
	}
	p.buildExtents(store, coalesce)
	return p, nil
}

// fetch schedules a fetch of container id at ref i and returns its index.
func (p *restorePlan) fetch(i int, id uint32) int32 {
	fx := int32(len(p.fetches))
	p.fetches = append(p.fetches, fetchOp{container: id, needAt: i})
	p.serve(i, fx)
	return fx
}

// serve records that ref i is cut from the section fetch fx read: the latest
// fetch of its container at or before it, a container never being resident
// twice.
func (p *restorePlan) serve(i int, fx int32) {
	p.servedBy[i] = fx
	p.fetches[fx].last = i
}

// simulateLRU replays the Get/Put sequence of a restore reading through the
// shared lru package (the reference Run of the tests), so the planned miss
// schedule is bit-identical to that cache's.
func (p *restorePlan) simulateLRU(refs []chunk.Ref, capacity int) {
	c := lru.New[uint32, int32](capacity)
	for i := range refs {
		id := refs[i].Loc.Container
		if fx, ok := c.Get(id); ok {
			p.serve(i, fx)
		} else if c.Put(id, p.fetch(i, id)) {
			p.evictions++
		}
	}
}

// simulateOPT runs Belady's algorithm: on a miss with a full cache, evict
// the resident container whose next reference is farthest ahead (never
// referenced again beats everything). Ties break to the smallest container
// ID so the plan is deterministic.
func (p *restorePlan) simulateOPT(refs []chunk.Ref, capacity int) {
	occ := make(map[uint32][]int)
	for i := range refs {
		id := refs[i].Loc.Container
		occ[id] = append(occ[id], i)
	}
	ptr := make(map[uint32]int, len(occ))
	cached := make(map[uint32]int32, capacity) // resident containers, by the fetch that read them
	// nextUse returns the first reference index of id strictly after i. The
	// per-container cursor only moves forward, so the amortized cost across
	// the whole simulation is O(len(refs)).
	nextUse := func(id uint32, i int) int {
		list := occ[id]
		j := ptr[id]
		for j < len(list) && list[j] <= i {
			j++
		}
		ptr[id] = j
		if j == len(list) {
			return math.MaxInt
		}
		return list[j]
	}
	for i := range refs {
		id := refs[i].Loc.Container
		if fx, ok := cached[id]; ok {
			p.serve(i, fx)
			continue
		}
		if len(cached) >= capacity {
			victim, victimNext := uint32(0), -1
			for cid := range cached {
				n := nextUse(cid, i)
				if n > victimNext || (n == victimNext && cid < victim) {
					victim, victimNext = cid, n
				}
			}
			delete(cached, victim)
			p.evictions++
		}
		cached[id] = p.fetch(i, id)
	}
}

// simulateFAA cuts the recipe into windows of at most window logical bytes
// (always at least one chunk, so an oversized chunk still restores) and
// fetches each container at its first reference in a window.
func (p *restorePlan) simulateFAA(refs []chunk.Ref, window int64) {
	resident := make(map[uint32]int32)
	start, filled := 0, int64(0)
	for i := range refs {
		size := int64(refs[i].Size)
		if i > start && filled+size > window {
			start, filled = i, 0
			p.evictions += int64(len(resident))
			clear(resident)
		}
		filled += size
		id := refs[i].Loc.Container
		if fx, ok := resident[id]; ok {
			p.serve(i, fx)
			continue
		}
		resident[id] = p.fetch(i, id)
	}
}

// buildExtents groups schedule-consecutive fetches of disk-adjacent
// containers into single sequential extent reads. Containers fetched early
// by a coalesced extent wait in a small staging buffer (bounded by
// maxCoalesce) until their scheduled install, so cache occupancy — and
// therefore the miss schedule — is unchanged by coalescing; only the seek
// count drops.
func (p *restorePlan) buildExtents(store *container.Store, coalesce bool) {
	for fi := range p.fetches {
		f := &p.fetches[fi]
		if coalesce && len(p.extents) > 0 {
			e := &p.extents[len(p.extents)-1]
			if e.hi == fi && len(e.ids) < maxCoalesce && store.Adjacent(e.ids[len(e.ids)-1], f.container) {
				e.hi = fi + 1
				e.ids = append(e.ids, f.container)
				f.extent = len(p.extents) - 1
				continue
			}
		}
		f.extent = len(p.extents)
		p.extents = append(p.extents, extent{lo: fi, hi: fi + 1, ids: []uint32{f.container}})
	}
}
