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
//     its fingerprint, and the data section of every container it reads is
//     readable at its recorded length (torn writes surface here as
//     blockstore.ErrCorrupt). A container none of whose entries lies inside
//     its section is not read; any entry it has already fails 1.
//
// Metadata is read through the shadow copy (PeekMeta), and data sections
// through the restore executor (restore.Emit), uncharged: fsck is
// measurement apparatus and charges no simulated time.
//
// Repair is the destructive companion: containers that fail invariants are
// quarantined out of the store (the durable file backend moves their files
// into quarantine/), their fingerprints are dropped from the chunk index so
// future backups re-store the data, and every recipe that referenced them is
// reported as a lost backup.
package fsck

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"slices"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/restore"
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
// chunk and validates the data-section length of every container it reads
// (requires a data-storing backend).
func Check(ctx context.Context, store *container.Store, index *cindex.Index, recipes []*chunk.Recipe, verifyData bool) (*Report, error) {
	if verifyData && !store.StoresData() {
		return nil, fmt.Errorf("fsck: verifyData requires a data-storing backend")
	}
	rep := &Report{Containers: store.NumContainers()}

	// Pass 1: container metadata well-formedness; build the entry table.
	entries := make(map[entryKey]entryVal, 4096)
	for cid := range uint32(store.Slots()) {
		if !store.Sealed(cid) {
			continue // quarantined or never sealed
		}
		metas := store.PeekMeta(cid)
		rep.MetaEntries += int64(len(metas))
		if len(metas) > store.Config().MaxChunks {
			rep.addf("container %d: more entries than MaxChunks", cid)
		}
		entryProblems(store, cid, func(problem string) { rep.addf("container %d %s", cid, problem) })
		for _, m := range metas {
			if m.Size > 0 {
				entries[entryKey{cid, m.Offset}] = entryVal{fp: m.FP, size: m.Size}
			}
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

	// Pass 3: recipe references resolve; optionally re-hash content. The
	// sealed containers the recipes name are re-hashed first, each read once
	// (verifySections); every ref then reads its verdict, so problems keep
	// ref order. A container whose data section fails to read (torn write,
	// backend fault) is one problem, at its first reference; a cancelled ctx
	// ends the check.
	bad := make(map[entryKey]bool)
	unreadable := make(map[uint32]error) // nil once reported
	if verifyData {
		referenced := make(map[uint32]bool)
		for _, rec := range recipes {
			for i := range rec.Refs {
				referenced[rec.Refs[i].Loc.Container] = true
			}
		}
		ids := slices.DeleteFunc(slices.Sorted(maps.Keys(referenced)), func(cid uint32) bool { return !store.Sealed(cid) })
		err := verifySections(ctx, store, ids,
			func(key entryKey, _ int) { bad[key] = true },
			func(cid uint32, err error) error { unreadable[cid] = err; return nil })
		if err != nil {
			return nil, err
		}
	}
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
			if err, ok := unreadable[cid]; ok {
				if err != nil {
					rep.addf("container %d: data section unreadable: %v", cid, err)
					unreadable[cid] = nil
				}
				continue
			}
			rep.HashedChunks++
			if bad[entryKey{cid, ref.Loc.Offset}] {
				rep.addf("recipe %s ref %d: content hash mismatch", rec.Label, i)
			}
		}
	}
	return rep, nil
}

// entryProblems reports each malformed metadata entry of container cid: of
// no size, outside the data section or overlapping the entry before it.
// Meta offsets are absolute device offsets; the data section spans
// [DataStart, DataStart+DataFill).
func entryProblems(store *container.Store, cid uint32, report func(problem string)) {
	start := store.DataStart(cid)
	end := start + store.DataFill(cid)
	var prevEnd int64 = -1
	for i, m := range store.PeekMeta(cid) {
		switch {
		case m.Size == 0:
			report(fmt.Sprintf("entry %d: zero size", i))
			continue
		case m.Offset < start || m.Offset+int64(m.Size) > end:
			report(fmt.Sprintf("entry %d outside data section [%d,%d): [%d,%d)", i, start, end, m.Offset, m.Offset+int64(m.Size)))
		case prevEnd >= 0 && m.Offset < prevEnd:
			report(fmt.Sprintf("entry %d overlaps previous: offset %d, previous end %d", i, m.Offset, prevEnd))
		}
		prevEnd = m.Offset + int64(m.Size)
	}
}

const verifyGroup = 64 // containers per verifySections stream, whatever the store's size

// verifySections re-hashes the entries of the sealed containers ids as
// uncharged streams through the restore executor (restore.Emit), verifyGroup
// containers each: their entries in offset order, grouped by container, read
// through a cache of one container. Entries of no size, or outside their
// section, are left out: they are a metadata problem, not a content one. It
// calls bad for each entry that does not hash to its fingerprint, and
// unreadable for each container whose section fails to read, then goes on
// past it; an error from unreadable, or a cancelled ctx, ends the walk.
func verifySections(ctx context.Context, store *container.Store, ids []uint32,
	bad func(key entryKey, entry int), unreadable func(cid uint32, err error) error) error {
	cfg := restore.PipelineConfig{CacheContainers: 1, Policy: restore.PolicyLRU, Verify: true}
	for len(ids) > 0 {
		var refs []chunk.Ref
		var entry []int // refs[k] is entry entry[k] of its container
		for _, cid := range ids[:min(len(ids), verifyGroup)] {
			start, end := store.DataStart(cid), store.DataStart(cid)+store.DataFill(cid)
			for i, m := range store.PeekMeta(cid) {
				if m.Size > 0 && m.Offset >= start && m.Offset+int64(m.Size) <= end {
					loc := chunk.Location{Container: cid, Segment: m.Segment, Offset: m.Offset, Size: m.Size}
					refs = append(refs, chunk.Ref{FP: m.FP, Size: m.Size, Loc: loc})
					entry = append(entry, i)
				}
			}
		}
		ids = ids[min(len(ids), verifyGroup):]
		for len(refs) > 0 {
			done := 0 // the refs emitted: a read that fails stops the stream at refs[done]
			err := restore.Emit(ctx, store, refs, cfg, restore.Emission{
				Sink: func(k int, _ []byte) error { done = k + 1; return nil },
				Mismatch: func(k int) {
					bad(entryKey{refs[k].Loc.Container, refs[k].Loc.Offset}, entry[k])
					done = k + 1
				},
			})
			if ctx.Err() != nil || (err != nil && done == len(refs)) {
				return cmp.Or(ctx.Err(), err)
			} else if err == nil {
				break
			}
			cid := refs[done].Loc.Container
			if err := unreadable(cid, err); err != nil {
				return err
			}
			for done < len(refs) && refs[done].Loc.Container == cid {
				done++
			}
			refs, entry = refs[done:], entry[done:]
		}
	}
	return nil
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
// container, the unit of placement and of durability in this store. Only a
// read that proves damage condemns (ErrCorrupt, or fs.ErrNotExist: the file is
// gone); any other read error stops the pass, nothing quarantined. A failed
// quarantine returns with the containers quarantined before it and their
// lost backups.
func Repair(ctx context.Context, store *container.Store, drop IndexDropper, recipes []*chunk.Recipe, verifyData bool) (*RepairResult, error) {
	if verifyData && !store.StoresData() {
		return nil, fmt.Errorf("fsck: verifyData requires a data-storing backend")
	}
	res := &RepairResult{Reasons: make(map[uint32]string)}

	condemn := func(cid uint32, reason string) {
		if _, dup := res.Reasons[cid]; !dup {
			res.Reasons[cid] = reason
		}
	}
	var verify []uint32
	for cid := range uint32(store.Slots()) {
		if !store.Sealed(cid) {
			continue
		}
		entryProblems(store, cid, func(problem string) { condemn(cid, problem) })
		if _, bad := res.Reasons[cid]; !bad && verifyData {
			verify = append(verify, cid)
		}
	}
	err := verifySections(ctx, store, verify,
		func(key entryKey, entry int) {
			condemn(key.container, fmt.Sprintf("entry %d: content hash mismatch", entry))
		},
		func(cid uint32, err error) error {
			if !errors.Is(err, blockstore.ErrCorrupt) && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("fsck: reading container %d: %w", cid, err)
			}
			condemn(cid, fmt.Sprintf("data section unreadable: %v", err))
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Purge derived index state while the container's metadata is still
	// readable, then quarantine.
	for _, cid := range slices.Sorted(maps.Keys(res.Reasons)) {
		if drop != nil {
			res.IndexDropped += drop.DropFromIndex(cid)
		}
		if err = store.Quarantine(ctx, cid, res.Reasons[cid]); err != nil {
			err = fmt.Errorf("fsck: quarantining container %d: %w", cid, err)
			break
		}
		res.Quarantined = append(res.Quarantined, cid)
	}
	gone := func(cid uint32) bool { _, ok := slices.BinarySearch(res.Quarantined, cid); return ok }
	maps.DeleteFunc(res.Reasons, func(cid uint32, _ string) bool { return !gone(cid) })

	// Report every retained backup whose recipe crosses a quarantined
	// container: those streams are no longer fully restorable.
	if len(res.Quarantined) > 0 {
		for _, rec := range recipes {
			for i := range rec.Refs {
				if gone(rec.Refs[i].Loc.Container) {
					res.LostBackups = append(res.LostBackups, rec.Label)
					break
				}
			}
		}
	}
	return res, err
}
