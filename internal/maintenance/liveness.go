package maintenance

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/container"
)

// The liveness rule, stated once: a chunk copy is live while its count in
// the store's live table is above zero, that is, while a retained recipe
// references its exact location. An ingest in flight holds the containers it
// references (container.Store.Pinned) until its recipe is counted or it
// aborts, and a pinned container is never a merge victim. Everything else in a
// sealed container is garbage: a chunk that only forgotten backups held is
// dead however the index names it, and the merge purges the index entries
// that name a victim's copies before it drops the victim.

// Live is a store's live table: per chunk copy (container, offset) the number
// of retained-recipe references, and per container the bytes of its copies
// whose count is above zero. A commit adds its recipe (Add), a forget
// subtracts it (Sub), a remap moves the references it changes (Swap), and an
// open rebuilds the table by adding every retained recipe. All methods are
// safe for concurrent use.
type Live struct {
	cs    *container.Store
	mu    sync.Mutex
	byID  []*liveContainer // dense by container ID; nil until first counted
	total int64            // Σ bytes over byID
}

// liveContainer is one container's row: counts[i] is the reference count of
// metas[i], the container's entries in offset order.
type liveContainer struct {
	metas  []container.Meta
	counts []int32
	bytes  int64
}

// NewLive returns an empty live table over cs.
func NewLive(cs *container.Store) *Live { return &Live{cs: cs} }

// Add counts every reference of r.
func (l *Live) Add(r *chunk.Recipe) { l.apply(r.Refs, 1) }

// Sub uncounts every reference of r.
func (l *Live) Sub(r *chunk.Recipe) { l.apply(r.Refs, -1) }

// Swap moves the count of every reference whose location differs between
// old and updated, two versions of one recipe, from the old location to the
// new one.
func (l *Live) Swap(old, updated *chunk.Recipe) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var from, to rowCursor
	for i := range min(len(old.Refs), len(updated.Refs)) {
		if o, u := old.Refs[i].Loc, updated.Refs[i].Loc; o != u {
			l.step(&from, o, -1)
			l.step(&to, u, 1)
		}
	}
}

// apply adds delta to the count of every location refs name, under one hold
// of the table's lock.
func (l *Live) apply(refs []chunk.Ref, delta int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cur rowCursor
	for i := range refs {
		l.step(&cur, refs[i].Loc, delta)
	}
}

// rowCursor remembers the last row and entry a run of references touched:
// a recipe names a container's copies mostly in offset order, so the next
// reference is usually the next entry of the same row.
type rowCursor struct {
	id  uint32
	row *liveContainer
	at  int
}

// step adds delta to loc's count. A location no sealed container holds is
// not counted, and so neither is its subtraction: the oracle (eachLive)
// ignores it alike, and fsck reports it.
func (l *Live) step(cur *rowCursor, loc chunk.Location, delta int32) {
	if cur.row == nil || cur.id != loc.Container {
		cur.id, cur.row, cur.at = loc.Container, l.row(loc.Container, delta > 0), 0
	}
	c := cur.row
	if c == nil {
		return
	}
	i := cur.at
	if i >= len(c.metas) || c.metas[i].Offset != loc.Offset {
		i = sort.Search(len(c.metas), func(k int) bool { return c.metas[k].Offset >= loc.Offset })
		if i == len(c.metas) || c.metas[i].Offset != loc.Offset {
			return
		}
	}
	cur.at = i + 1
	before := c.counts[i]
	c.counts[i] += delta
	switch size := int64(c.metas[i].Size); {
	case before == 0 && c.counts[i] > 0:
		c.bytes += size
		l.total += size
	case before > 0 && c.counts[i] == 0:
		c.bytes -= size
		l.total -= size
	}
}

// row returns container id's row, creating it when create is set and the
// container is sealed, else nil. Caller holds l.mu.
func (l *Live) row(id uint32, create bool) *liveContainer {
	if int(id) < len(l.byID) && l.byID[id] != nil {
		return l.byID[id]
	}
	if !create || !l.cs.Sealed(id) {
		return nil
	}
	for int(id) >= len(l.byID) {
		l.byID = append(l.byID, nil)
	}
	metas := l.cs.PeekMeta(id)
	c := &liveContainer{metas: metas, counts: make([]int32, len(metas))}
	l.byID[id] = c
	return c
}

// Bytes returns container id's live bytes.
func (l *Live) Bytes(id uint32) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(id) < len(l.byID) && l.byID[id] != nil {
		return l.byID[id].bytes
	}
	return 0
}

// Total returns the live bytes of the whole store.
func (l *Live) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// PerContainer returns every container's live bytes, indexed by container
// ID (IDs past the end have none).
func (l *Live) PerContainer() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int64, len(l.byID))
	for id, c := range l.byID {
		if c != nil {
			out[id] = c.bytes
		}
	}
	return out
}

// Copies returns the entries of container id whose count is above zero, in
// offset order: what a merge must move before it drops the container.
func (l *Live) Copies(id uint32) []container.Meta {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(id) >= len(l.byID) || l.byID[id] == nil {
		return nil
	}
	c := l.byID[id]
	var out []container.Meta
	for i, n := range c.counts {
		if n > 0 {
			out = append(out, c.metas[i])
		}
	}
	return out
}

// Drop forgets the rows of containers that left the store (merged away or
// quarantined). A row that still counts a reference stays, so that Check
// reports the recipe that names a container the store no longer has.
func (l *Live) Drop(ids []uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range ids {
		if int(id) < len(l.byID) && l.byID[id] != nil && l.byID[id].bytes == 0 {
			l.byID[id] = nil
		}
	}
}

// copyKey identifies one physical chunk copy.
type copyKey struct {
	container uint32
	offset    int64
}

// pinnedCopies collects the exact locations the recipes reference: the walk
// the live table's counts must agree with.
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

// eachLive returns the bytes of the copies of sealed container id that
// pinned names.
func eachLive(cs *container.Store, pinned map[copyKey]struct{}, id uint32) (live int64) {
	for _, m := range cs.PeekMeta(id) {
		if _, ok := pinned[copyKey{id, m.Offset}]; ok {
			live += int64(m.Size)
		}
	}
	return live
}

// CountProblems is the oracle behind a store's Check: it recomputes every
// container's live bytes by walking recipes and describes each container
// whose counted bytes (Live.PerContainer, taken together with recipes)
// differ, and each container no longer sealed that still counts some.
func CountProblems(cs *container.Store, counted []int64, recipes []*chunk.Recipe) []string {
	pinned := pinnedCopies(recipes)
	var problems []string
	n := max(cs.Slots(), len(counted))
	for id := range uint32(n) {
		var have int64
		if int(id) < len(counted) {
			have = counted[id]
		}
		if !cs.Sealed(id) {
			if have != 0 {
				problems = append(problems, fmt.Sprintf("live table: container %d is not sealed but counts %d live bytes", id, have))
			}
			continue
		}
		if want := eachLive(cs, pinned, id); have != want {
			problems = append(problems, fmt.Sprintf("live table: container %d counts %d live bytes, the retained recipes reference %d", id, have, want))
		}
	}
	return problems
}
