// Package fsck checks the internal consistency of a deduplicating store:
// the invariants that tie container metadata, the chunk index, and backup
// recipes together. A production dedup system ships exactly this kind of
// offline checker; here it doubles as a harness-level assertion that the
// engines and the garbage collector never corrupt shared state.
//
// Invariants checked:
//
//  1. Container metadata is well-formed: entries sized > 0, offsets
//     strictly increasing and inside the container's data section.
//  2. Every index entry points into a sealed container, at an offset where
//     the container's metadata records exactly that fingerprint and size.
//  3. Every recipe reference resolves to a sealed container entry with a
//     matching fingerprint and size.
//  4. On data-storing backends, every chunk referenced by a recipe hashes to
//     its fingerprint, and every container's data section is readable at its
//     recorded length (torn writes surface here as blockstore.ErrCorrupt).
//
// All reads go through the shadow metadata (PeekMeta) and uncharged data
// fetches (container.Store.Fetch): fsck is measurement apparatus and charges
// no simulated time.
//
// Repair is the destructive companion: containers that fail invariants are
// quarantined out of the store (the durable file backend moves their files
// into quarantine/), their fingerprints are dropped from the chunk index so
// future backups re-store the data, and every recipe that referenced them is
// reported as a lost backup.
package fsck

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
)

// Report summarizes one check.
type Report struct {
	Containers   int
	MetaEntries  int64
	IndexEntries int // index entries validated (0 if no index given)
	RecipeRefs   int64
	HashedChunks int64 // content-verified chunks (data-storing backend only)
	Problems     []string
}

// OK reports whether no problems were found.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

func (r *Report) addf(format string, args ...any) {
	// Cap the problem list: a badly corrupted store should not OOM the
	// checker's report.
	if len(r.Problems) < 100 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *Report) String() string {
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("%d problems", len(r.Problems))
	}
	return fmt.Sprintf("fsck: %s (%d containers, %d meta entries, %d index entries, %d recipe refs, %d chunks hashed)",
		status, r.Containers, r.MetaEntries, r.IndexEntries, r.RecipeRefs, r.HashedChunks)
}

// entryKey locates one metadata entry.
type entryKey struct {
	container uint32
	offset    int64
}

type entryVal struct {
	fp   chunk.Fingerprint
	size uint32
}

// Check validates the store, optionally an index (nil to skip), and a set
// of recipes. verifyData additionally re-hashes every recipe-referenced
// chunk and validates every container's data-section length (requires a
// data-storing backend).
func Check(ctx context.Context, store *container.Store, index *cindex.Index, recipes []*chunk.Recipe, verifyData bool) (*Report, error) {
	if verifyData && !store.StoresData() {
		return nil, fmt.Errorf("fsck: verifyData requires a data-storing backend")
	}
	rep := &Report{Containers: store.NumContainers()}

	// Pass 1: container metadata well-formedness; build the entry table.
	entries := make(map[entryKey]entryVal, 4096)
	cfg := store.Config()
	for id := 0; id < store.Slots(); id++ {
		cid := uint32(id)
		if !store.Sealed(cid) {
			continue // quarantined or never sealed
		}
		metas := store.PeekMeta(cid)
		// Meta offsets are absolute device offsets; the container's data
		// section spans [dataStart, dataStart+fill).
		dataStart := store.DataStart(cid)
		dataEnd := dataStart + store.DataFill(cid)
		var prevEnd int64 = -1
		for i, m := range metas {
			rep.MetaEntries++
			if m.Size == 0 {
				rep.addf("container %d entry %d: zero size", cid, i)
				continue
			}
			if int64(i) >= int64(cfg.MaxChunks) {
				rep.addf("container %d: more entries than MaxChunks", cid)
			}
			if m.Offset < dataStart || m.Offset+int64(m.Size) > dataEnd {
				rep.addf("container %d entry %d: [%d,%d) outside data section [%d,%d)",
					cid, i, m.Offset, m.Offset+int64(m.Size), dataStart, dataEnd)
			}
			if prevEnd >= 0 && m.Offset < prevEnd {
				rep.addf("container %d entry %d: offset %d overlaps previous end %d", cid, i, m.Offset, prevEnd)
			}
			prevEnd = m.Offset + int64(m.Size)
			entries[entryKey{cid, m.Offset}] = entryVal{fp: m.FP, size: m.Size}
		}
	}

	// Pass 2: index entries resolve to real copies.
	if index != nil {
		index.Range(func(fp chunk.Fingerprint, loc chunk.Location) bool {
			rep.IndexEntries++
			if !store.Sealed(loc.Container) {
				rep.addf("index %s: unsealed container %d", fp.Short(), loc.Container)
				return true
			}
			ev, ok := entries[entryKey{loc.Container, loc.Offset}]
			if !ok {
				rep.addf("index %s: no metadata entry at c%d@%d", fp.Short(), loc.Container, loc.Offset)
				return true
			}
			if ev.fp != fp {
				rep.addf("index %s: metadata records %s at c%d@%d", fp.Short(), ev.fp.Short(), loc.Container, loc.Offset)
			}
			if ev.size != loc.Size {
				rep.addf("index %s: size %d != metadata %d", fp.Short(), loc.Size, ev.size)
			}
			return true
		})
	}

	// Pass 3: recipe references resolve; optionally re-hash content. Each
	// referenced container is fetched once, at its first reference, and all
	// its entries re-hashed as one chunk.OfEach batch (hashSection); every
	// ref then reads its verdict, so problems keep ref order. A container
	// whose data section fails to read (torn write, backend fault) is one
	// problem, at its first reference.
	type sectionCheck struct {
		err error
		bad map[int64]bool // offsets of the entries that do not hash to their fingerprints
	}
	sections := make(map[uint32]sectionCheck)
	var h hashBatch
	for _, rec := range recipes {
		for i := range rec.Refs {
			ref := &rec.Refs[i]
			cid := ref.Loc.Container
			rep.RecipeRefs++
			if !store.Sealed(cid) {
				rep.addf("recipe %s ref %d: unsealed container %d", rec.Label, i, cid)
				continue
			}
			ev, ok := entries[entryKey{cid, ref.Loc.Offset}]
			if !ok {
				rep.addf("recipe %s ref %d: no metadata entry at %v", rec.Label, i, ref.Loc)
				continue
			}
			if ev.fp != ref.FP || ev.size != ref.Size {
				rep.addf("recipe %s ref %d: metadata mismatch at %v", rec.Label, i, ref.Loc)
				continue
			}
			if !verifyData {
				continue
			}
			sc, seen := sections[cid]
			if !seen {
				bad, err := hashSection(ctx, store, cid, &h)
				sc = sectionCheck{err: err, bad: make(map[int64]bool, len(bad))}
				for _, j := range bad {
					sc.bad[store.PeekMeta(cid)[j].Offset] = true
				}
				sections[cid] = sc
				if err != nil {
					rep.addf("container %d: data section unreadable: %v", cid, err)
				}
			}
			if sc.err != nil {
				continue
			}
			rep.HashedChunks++
			if sc.bad[ref.Loc.Offset] {
				rep.addf("recipe %s ref %d: content hash mismatch", rec.Label, i)
			}
		}
	}
	return rep, nil
}

// hashSection fetches container cid's data section and re-hashes its
// entries as one chunk.OfEach batch. It returns the indexes of the entries
// that do not hash to their fingerprints, ascending, in a slice the next
// run of h reuses. Entries that lie outside the section are left out: they
// are a metadata problem, not a content one.
func hashSection(ctx context.Context, store *container.Store, cid uint32, h *hashBatch) ([]int, error) {
	datas, err := store.Fetch(ctx, []uint32{cid})
	if err != nil {
		return nil, err
	}
	start := store.DataStart(cid)
	for i, m := range store.PeekMeta(cid) {
		if m.Offset >= start && m.Offset+int64(m.Size) <= start+int64(len(datas[0])) {
			h.add(i, store.Extract(datas[0], chunk.Location{Container: cid, Offset: m.Offset, Size: m.Size}), m.FP)
		}
	}
	return h.run(), nil
}

// hashBatch collects chunks to re-hash in one chunk.OfEach call.
type hashBatch struct {
	ids    []int // the caller's name for each chunk
	pieces [][]byte
	want   []chunk.Fingerprint
	got    []chunk.Fingerprint
	bad    []int
}

func (h *hashBatch) add(id int, piece []byte, fp chunk.Fingerprint) {
	h.ids = append(h.ids, id)
	h.pieces = append(h.pieces, piece)
	h.want = append(h.want, fp)
}

// run hashes the collected chunks, returns the ids of those that do not
// match their fingerprints, in the order they were added, and empties the
// batch.
func (h *hashBatch) run() []int {
	h.got = slices.Grow(h.got[:0], len(h.pieces))[:len(h.pieces)]
	chunk.OfEach(h.pieces, h.got)
	h.bad = h.bad[:0]
	for k := range h.pieces {
		if h.got[k] != h.want[k] {
			h.bad = append(h.bad, h.ids[k])
		}
	}
	clear(h.pieces)
	h.ids, h.pieces, h.want = h.ids[:0], h.pieces[:0], h.want[:0]
	return h.bad
}

// IndexDropper purges all index state derived from one container — the
// chunk-index entries, sampled/current tables, and metadata caches that
// would otherwise keep routing dedup hits into a quarantined container.
// Engine resolvers implement it.
type IndexDropper interface {
	DropFromIndex(cid uint32) int
}

// RepairResult summarizes one repair pass.
type RepairResult struct {
	Quarantined  []uint32          // containers removed from the store, ascending
	Reasons      map[uint32]string // why each was quarantined
	IndexDropped int               // index entries purged
	LostBackups  []string          // labels of recipes that referenced a quarantined container
}

func (r *RepairResult) String() string {
	return fmt.Sprintf("fsck repair: quarantined %d containers, dropped %d index entries, %d backups lost",
		len(r.Quarantined), r.IndexDropped, len(r.LostBackups))
}

// Repair scans every sealed container and quarantines the ones that fail
// invariants: malformed metadata (zero-size, overlapping, or out-of-section
// entries) and — on data-storing backends, when verifyData is set —
// unreadable or torn data sections and content-hash mismatches. For each
// quarantined container the dropper (pass nil if no index is attached)
// purges derived index state BEFORE the container leaves the store, and any
// recipe referencing it is reported in LostBackups.
//
// Repair is deliberately container-granular: one bad chunk condemns its
// container, the unit of placement and of durability in this store.
func Repair(ctx context.Context, store *container.Store, drop IndexDropper, recipes []*chunk.Recipe, verifyData bool) (*RepairResult, error) {
	if verifyData && !store.StoresData() {
		return nil, fmt.Errorf("fsck: verifyData requires a data-storing backend")
	}
	res := &RepairResult{Reasons: make(map[uint32]string)}
	var h hashBatch

	condemn := func(cid uint32, reason string) {
		if _, dup := res.Reasons[cid]; !dup {
			res.Reasons[cid] = reason
		}
	}
	for id := 0; id < store.Slots(); id++ {
		cid := uint32(id)
		if !store.Sealed(cid) {
			continue
		}
		metas := store.PeekMeta(cid)
		dataStart := store.DataStart(cid)
		dataEnd := dataStart + store.DataFill(cid)
		var prevEnd int64 = -1
		for i, m := range metas {
			if m.Size == 0 {
				condemn(cid, fmt.Sprintf("entry %d: zero size", i))
			}
			if m.Offset < dataStart || m.Offset+int64(m.Size) > dataEnd {
				condemn(cid, fmt.Sprintf("entry %d outside data section", i))
			}
			if prevEnd >= 0 && m.Offset < prevEnd {
				condemn(cid, fmt.Sprintf("entry %d overlaps previous", i))
			}
			prevEnd = m.Offset + int64(m.Size)
		}
		if _, bad := res.Reasons[cid]; bad || !verifyData {
			continue
		}
		bad, err := hashSection(ctx, store, cid, &h)
		if err != nil {
			condemn(cid, fmt.Sprintf("data section unreadable: %v", err))
		} else if len(bad) > 0 {
			condemn(cid, fmt.Sprintf("entry %d: content hash mismatch", bad[0]))
		}
	}

	for cid := range res.Reasons {
		res.Quarantined = append(res.Quarantined, cid)
	}
	sort.Slice(res.Quarantined, func(i, j int) bool { return res.Quarantined[i] < res.Quarantined[j] })

	// Purge derived index state while the container's metadata is still
	// readable, then quarantine.
	for _, cid := range res.Quarantined {
		if drop != nil {
			res.IndexDropped += drop.DropFromIndex(cid)
		}
		if err := store.Quarantine(ctx, cid, res.Reasons[cid]); err != nil {
			return res, fmt.Errorf("fsck: quarantining container %d: %w", cid, err)
		}
	}

	// Report every retained backup whose recipe crosses a quarantined
	// container: those streams are no longer fully restorable.
	if len(res.Quarantined) > 0 {
		gone := make(map[uint32]bool, len(res.Quarantined))
		for _, cid := range res.Quarantined {
			gone[cid] = true
		}
		for _, rec := range recipes {
			for i := range rec.Refs {
				if gone[rec.Refs[i].Loc.Container] {
					res.LostBackups = append(res.LostBackups, rec.Label)
					break
				}
			}
		}
	}
	return res, nil
}
