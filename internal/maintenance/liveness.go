package maintenance

import (
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
)

// The liveness rule, stated once: a chunk copy is live when a retained
// recipe pins its exact location or the chunk index names it as the chunk's
// current (authoritative) copy. Everything else in a sealed container is
// garbage a merge may leave behind.

// copyKey identifies one physical chunk copy.
type copyKey struct {
	container uint32
	offset    int64
}

// pinnedCopies collects the exact locations the recipes reference.
func pinnedCopies(recipes []*chunk.Recipe) map[copyKey]struct{} {
	pinned := make(map[copyKey]struct{}, 1024)
	for _, r := range recipes {
		for i := range r.Refs {
			loc := r.Refs[i].Loc
			pinned[copyKey{loc.Container, loc.Offset}] = struct{}{}
		}
	}
	return pinned
}

// eachLive visits every live copy of sealed container id in container order
// (visit may be nil) and returns their total data bytes.
func eachLive(cs *container.Store, ix *cindex.Index, pinned map[copyKey]struct{}, id uint32, visit func(m container.Meta, authoritative bool)) (live int64) {
	for _, m := range cs.PeekMeta(id) {
		_, isPinned := pinned[copyKey{id, m.Offset}]
		loc, ok := ix.Peek(m.FP)
		authoritative := ok && loc.Container == id && loc.Offset == m.Offset
		if !isPinned && !authoritative {
			continue
		}
		live += int64(m.Size)
		if visit != nil {
			visit(m, authoritative)
		}
	}
	return live
}

// DeadScan reports the sealed containers' total data bytes and the subset
// still live. total-live is the garbage a merge or compaction pass could
// reclaim. The scan is in-memory metadata only — no simulated time is
// charged.
func DeadScan(cs *container.Store, ix *cindex.Index, recipes []*chunk.Recipe) (total, live int64) {
	pinned := pinnedCopies(recipes)
	n := uint32(cs.Slots())
	for id := uint32(0); id < n; id++ {
		if !cs.Sealed(id) {
			continue
		}
		total += cs.DataFill(id)
		live += eachLive(cs, ix, pinned, id, nil)
	}
	return total, live
}
