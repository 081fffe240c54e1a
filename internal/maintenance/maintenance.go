// Package maintenance is the online maintenance layer of the store: the one
// copy-forward path that moves live chunks out of old containers and drops
// what is left, under live traffic, in the spirit of RevDedup (Ng & Lee,
// arXiv:1302.0621) and the hybrid inline/out-of-line designs surveyed in
// arXiv:1405.5661.
//
// The inline engines (DeFrag et al.) keep ingest fast and the newest backup
// reasonably sequential; what they cannot do inline is claw back the
// fragmentation and garbage that accumulates in *old* containers as
// generations pile up. A Pass does that out of line. Two policies drive the
// same merge body:
//
//   - RunEpoch, one bounded epoch of background maintenance:
//     (1) reverse remap ("reverse rewriting") — scan retained recipes oldest
//     first; references into low-fill or low-utilization sealed containers
//     whose chunks also exist in newer containers are rewritten to the newer
//     copy, so old generations absorb the delinearization (RevDedup's shift
//     of fragmentation onto the backups least likely to be restored); then
//     (2) one merge batch whose victims are containers whose live fraction is
//     below UtilThreshold or that the latest generation touches only
//     sparsely.
//   - Compact, operator-initiated garbage collection: merge batches repeat
//     until no sealed container's live fraction is below the caller's
//     threshold. No remap phase, no sparse rule.
//
// A merge batch copies the victims' live chunks into fresh dense containers
// (ordered by the latest recipe, so the newest backup's read path becomes
// more sequential), repoints the index, remaps every retained recipe
// copy-on-write and durably, and drops the emptied victims through the
// crash-safe blockstore merge intent (blockstore.Dropper).
//
// All scanning, copying and remap preparation runs concurrently with
// foreground ingest and restore traffic; only a batch's final victim-drop
// commit runs under the store's exclusive gate, and the commit re-validates
// victim liveness there, so foreground streams that raced the scan are never
// broken. Data movement is paced by a wall-clock token-bucket throttle and
// charged to the simulated clock as a maintenance lane, mirroring how
// concurrent ingest lanes are priced.
package maintenance

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/restore"
	"repro/internal/telemetry"
)

// Telemetry: the maintenance_* surface on /metrics.
var (
	telEpochs = telemetry.NewCounter("maintenance_epochs_total",
		"maintenance runs completed (epochs and compactions)")
	telRemapped = telemetry.NewCounter("maintenance_refs_remapped_total",
		"recipe references rewritten to newer chunk copies (reverse remap)")
	telMerged = telemetry.NewCounter("maintenance_containers_merged_total",
		"containers merged away and dropped")
	telMoved = telemetry.NewCounter("maintenance_chunks_moved_total",
		"live chunks copied into fresh containers by merges")
	telMovedBytes = telemetry.NewCounter("maintenance_bytes_moved_total",
		"chunk bytes copied into fresh containers by merges")
	telReclaimed = telemetry.NewCounter("maintenance_bytes_reclaimed_total",
		"container data bytes reclaimed by merges")
	telSkipped = telemetry.NewCounter("maintenance_victims_skipped_total",
		"merge victims abandoned at commit because foreground traffic re-pinned them")
	telRededuped = telemetry.NewCounter("maintenance_refs_rededuped_total",
		"spilled write-through recipe references remapped back onto index-authoritative copies")
)

// RecipeStore is the pass's window onto the retained backups. Snapshot
// returns the current recipes oldest-first; the pass treats them as
// immutable. Replace installs remapped copies (matched by Label) atomically
// and durably — concurrent restores keep whatever snapshot they started
// with (both the old and new references resolve until the epoch's drop
// commit, which the Gate serializes against them).
type RecipeStore interface {
	Snapshot() []*chunk.Recipe
	Replace(ctx context.Context, updated []*chunk.Recipe) error
}

// Gate serializes a merge batch's drop commit against foreground streams: fn
// runs while no ingest or restore is in flight, and new ones wait until it
// returns. Everything else the pass does runs outside the gate.
type Gate interface {
	Exclusive(fn func() error) error
}

// IndexDropper purges engine state derived from one container — leftover
// chunk-index entries and locality-preserved cache metadata — before the
// container is dropped. It matches the engines' fsck repair hook.
type IndexDropper interface {
	DropFromIndex(cid uint32) int
}

// Config wires a Pass to one store's subsystems and sets its policy knobs.
type Config struct {
	Containers *container.Store
	Index      *cindex.Index
	Recipes    RecipeStore
	Gate       Gate
	// Live is the store's live table (see liveness.go): victim selection
	// and the merge read it, and a drop forgets the victims' rows.
	Live *Live
	// Dropper, when set, purges a victim's index entries and per-container
	// engine caches at commit; without one the pass purges Index itself.
	Dropper IndexDropper
	// Clock is the store's master simulated clock. Each run charges its I/O
	// to a private lane starting at the master reading and advances the
	// master on completion, like a concurrent ingest lane.
	Clock *disk.Clock

	// UtilThreshold: sealed containers whose live fraction (the live
	// table's bytes: copies a retained recipe references) is below this are
	// merge victims, and containers below it by the store's superseded-bytes
	// accounting are reverse-remap candidates. Default 0.5.
	UtilThreshold float64
	// FillThreshold: containers whose data section is filled below this
	// fraction of capacity (stream tails) are reverse-remap candidates too.
	// Default 0.5.
	FillThreshold float64
	// SparseThreshold: containers the latest generation references for less
	// than this fraction of their data are merged so the newest backup's
	// reads consolidate, even if older generations keep them mostly live.
	// Default 0.25.
	SparseThreshold float64
	// MaxBatch bounds the victims of one merge batch — and with them the
	// victim data sections held in RAM at once, each from its fetch to the
	// last chunk copied out of it, plus the one read ahead: the latest
	// recipe's chunks come first, in its order, so up to this many while
	// those are copied, and one at a time after. An epoch runs one batch;
	// Compact repeats batches. Default 8.
	MaxBatch int
	// ThrottleMBps paces merge data movement in wall-clock MB/s through a
	// token bucket. 0 disables pacing.
	ThrottleMBps float64
}

func (c Config) withDefaults() Config {
	if c.UtilThreshold == 0 {
		c.UtilThreshold = 0.5
	}
	if c.FillThreshold == 0 {
		c.FillThreshold = 0.5
	}
	if c.SparseThreshold == 0 {
		c.SparseThreshold = 0.25
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	return c
}

func (c Config) validate() error {
	if c.Containers == nil || c.Index == nil || c.Recipes == nil || c.Gate == nil || c.Live == nil {
		return fmt.Errorf("maintenance: Containers, Index, Recipes, Gate and Live are required")
	}
	for _, t := range []float64{c.UtilThreshold, c.FillThreshold, c.SparseThreshold} {
		if t < 0 || t > 1 {
			return fmt.Errorf("maintenance: thresholds must be in [0,1], got %v", t)
		}
	}
	return nil
}

// Stats summarizes one epoch or Compact run (or, accumulated, a pass's
// lifetime).
type Stats struct {
	RecipesScanned   int     `json:"recipesScanned"`
	RefsRemapped     int64   `json:"refsRemapped"`  // reverse-remap rewrites to newer copies
	RefsRededuped    int64   `json:"refsRededuped"` // spilled refs remapped onto authoritative copies
	ContainersMerged int     `json:"containersMerged"`
	ChunksMoved      int64   `json:"chunksMoved"`
	BytesMoved       int64   `json:"bytesMoved"`
	BytesReclaimed   int64   `json:"bytesReclaimed"` // victim data bytes freed by drops
	RefsPatched      int64   `json:"refsPatched"`    // recipe refs repointed at moved copies
	VictimsSkipped   int     `json:"victimsSkipped"` // victims re-pinned by racing traffic
	SimSeconds       float64 `json:"simSeconds"`     // simulated lane time charged
}

// Add accumulates o into s (cumulative pass statistics).
func (s *Stats) Add(o Stats) {
	s.RecipesScanned += o.RecipesScanned
	s.RefsRemapped += o.RefsRemapped
	s.RefsRededuped += o.RefsRededuped
	s.ContainersMerged += o.ContainersMerged
	s.ChunksMoved += o.ChunksMoved
	s.BytesMoved += o.BytesMoved
	s.BytesReclaimed += o.BytesReclaimed
	s.RefsPatched += o.RefsPatched
	s.VictimsSkipped += o.VictimsSkipped
	s.SimSeconds += o.SimSeconds
}

// Pass is the reusable maintenance runner. One Pass serves one store;
// RunEpoch and Compact are not safe for concurrent use with themselves or
// each other (the store serializes maintenance operations), but are safe
// against concurrent foreground traffic.
type Pass struct {
	cfg      Config
	throttle *Throttle
}

// New validates cfg and builds a Pass.
func New(cfg Config) (*Pass, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Pass{cfg: cfg, throttle: NewThrottle(cfg.ThrottleMBps * 1e6)}, nil
}

// run executes body on a private maintenance lane: the lane starts at the
// master clock's reading, body's I/O is charged to it, and on success the
// master advances to the lane's finish and the counters are published.
func (p *Pass) run(ctx context.Context, span string, body func(lane *disk.Clock, st *Stats) error) (Stats, error) {
	_, sp := telemetry.StartSpan(ctx, span)
	defer sp.End()

	var lane disk.Clock
	master := p.cfg.Clock
	if master != nil {
		lane.Advance(master.Now())
	}
	laneStart := lane.Now()

	var st Stats
	if err := body(&lane, &st); err != nil {
		return st, err
	}

	st.SimSeconds = (lane.Now() - laneStart).Seconds()
	sp.SetSim(lane.Now() - laneStart)
	if master != nil {
		if d := lane.Now() - master.Now(); d > 0 {
			master.Advance(d)
		}
	}
	telEpochs.Inc()
	telRemapped.Add(st.RefsRemapped)
	telRededuped.Add(st.RefsRededuped)
	telMerged.Add(int64(st.ContainersMerged))
	telMoved.Add(st.ChunksMoved)
	telMovedBytes.Add(st.BytesMoved)
	telReclaimed.Add(st.BytesReclaimed)
	telSkipped.Add(int64(st.VictimsSkipped))
	return st, nil
}

// RunEpoch executes one maintenance epoch: one recipe pass that re-dedups
// spilled references and reverse-remaps old ones (remapRefs), then one merge
// batch (victim selection, copy, gated drop commit). It returns the epoch's
// statistics; an epoch that finds nothing to do returns zero Stats and nil
// error.
func (p *Pass) RunEpoch(ctx context.Context) (Stats, error) {
	return p.run(ctx, "maintenance.epoch", func(lane *disk.Clock, st *Stats) error {
		if err := p.remapRefs(ctx, st); err != nil {
			return err
		}
		_, err := p.merge(ctx, lane, p.cfg.UtilThreshold, p.cfg.SparseThreshold, st)
		return err
	})
}

// Compact merges away every sealed container whose live fraction is below
// threshold, MaxBatch victims at a time, until none is left, a batch drops
// nothing (racing traffic re-pinned all its victims), or ctx is cancelled —
// which stops it cleanly at the next batch boundary, with the batches done
// so far committed and the cancellation returned beside their statistics.
func (p *Pass) Compact(ctx context.Context, threshold float64) (Stats, error) {
	if threshold < 0 || threshold > 1 {
		return Stats{}, fmt.Errorf("maintenance: compact threshold must be in [0,1], got %v", threshold)
	}
	var cancelled error
	st, err := p.run(ctx, "maintenance.compact", func(lane *disk.Clock, st *Stats) error {
		for {
			if cancelled = ctx.Err(); cancelled != nil {
				return nil
			}
			dropped, err := p.merge(ctx, lane, threshold, 0, st)
			if err != nil || dropped == 0 {
				return err
			}
		}
	})
	if err == nil {
		err = cancelled
	}
	return st, err
}

// remapCandidate reports whether container id is worth reverse-remapping
// away from: a stream tail (low fill) or a container rewrites have already
// hollowed out (low utilization by the superseded-bytes accounting). That
// accounting, container.Store.LiveFraction, counts only copies a newer one
// superseded (MarkDead), not bytes that only forgotten backups held; the
// live table's counts (the store's MaintenanceReport.DeadFraction) do.
func (p *Pass) remapCandidate(id uint32) bool {
	cs := p.cfg.Containers
	if !cs.Sealed(id) {
		return false
	}
	if fill := cs.DataFill(id); fill > 0 &&
		float64(fill) < p.cfg.FillThreshold*float64(cs.Config().DataCap) {
		return true
	}
	return cs.LiveFraction(id) < p.cfg.UtilThreshold
}

// rewriteRefs is the one way the pass changes a recipe: every retained
// recipe is scanned oldest first, each reference relocate returns a new
// location for is repointed on a private copy (the snapshot stays
// immutable), and the changed copies are installed durably through the
// RecipeStore. relocate must not modify the reference. It returns the
// number of references rewritten.
func (p *Pass) rewriteRefs(ctx context.Context, relocate func(ref *chunk.Ref) (chunk.Location, bool)) (int64, error) {
	var n int64
	var updated []*chunk.Recipe
	for _, r := range p.cfg.Recipes.Snapshot() {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		var out *chunk.Recipe
		for i := range r.Refs {
			loc, ok := relocate(&r.Refs[i])
			if !ok {
				continue
			}
			if out == nil {
				out = &chunk.Recipe{Label: r.Label, Refs: append([]chunk.Ref(nil), r.Refs...)}
			}
			out.Refs[i].Loc = loc
			n++
		}
		if out != nil {
			updated = append(updated, out)
		}
	}
	if len(updated) == 0 {
		return n, nil
	}
	return n, p.cfg.Recipes.Replace(ctx, updated)
}

// remapRefs is an epoch's one walk of the retained recipes (one durable
// Replace). It looks every reference up in the index and moves it to the
// index's copy of its chunk, a sealed copy of the same size, by one of two
// rules:
//
//   - Re-dedup, when that copy is strictly older: an earlier container, or
//     an earlier offset of the same one. This is the out-of-line half of the
//     inline filter's bargain (HPDedup, arXiv 1702.08153): spilled streams
//     wrote their probable duplicates through without consulting the on-disk
//     index, leaving the earlier copy authoritative. Inline dedup references
//     that copy and rewrites repoint the index forward; the inversion comes
//     from the write-through path, and from the merge moving a copy a recipe
//     pins but the index does not name (an old generation's copy of a chunk
//     DeFrag has since rewritten) into a fresh container, newer than the
//     index's copy (TestMergeOfAPinnedCopyFeedsRededup). The lookup runs for
//     every reference whether or not the store ever spilled.
//   - Reverse remap ("reverse rewriting"), when that copy is in a strictly
//     newer container and the reference's own container is a remap
//     candidate: old generations absorb the delinearization, RevDedup's
//     shift of fragmentation onto the backups least likely to be restored.
//
// A reference the first rule moves lands on the index's copy, where the
// second cannot fire, so one pass leaves what the two did one after the
// other. The abandoned copies lose their counts, and a later merge reclaims
// their containers. The rewrite is pure metadata and safe outside the gate:
// Replace moves each rewritten reference's count onto its target copy, which
// is live from then on, and no drop can come between the lookup and the
// Replace, because maintenance operations run one at a time.
func (p *Pass) remapRefs(ctx context.Context, st *Stats) error {
	cs, ix := p.cfg.Containers, p.cfg.Index
	candidate := make(map[uint32]bool)
	_, err := p.rewriteRefs(ctx, func(ref *chunk.Ref) (chunk.Location, bool) {
		loc, found := ix.Peek(ref.FP)
		if !found || loc.Size != ref.Size || !cs.Sealed(loc.Container) {
			return loc, false
		}
		cid := ref.Loc.Container
		if loc.Container < cid || (loc.Container == cid && loc.Offset < ref.Loc.Offset) {
			st.RefsRededuped++
			return loc, true
		}
		if loc.Container <= cid {
			return loc, false
		}
		ok, seen := candidate[cid]
		if !seen {
			ok = p.remapCandidate(cid)
			candidate[cid] = ok
		}
		if ok {
			st.RefsRemapped++
		}
		return loc, ok
	})
	return err
}

// latestBytes returns how many bytes the latest of recipes references in
// each container, each copy counted once.
func latestBytes(recipes []*chunk.Recipe) map[uint32]int64 {
	out := make(map[uint32]int64)
	if len(recipes) == 0 {
		return out
	}
	latest := recipes[len(recipes)-1]
	seen := make(map[copyKey]struct{}, latest.Len())
	for i := range latest.Refs {
		loc := latest.Refs[i].Loc
		key := copyKey{loc.Container, loc.Offset}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out[loc.Container] += int64(loc.Size)
	}
	return out
}

// selectVictims picks up to MaxBatch sealed containers to merge away,
// lowest live fraction first: hollowed-out containers (live fraction below
// util) and containers the latest generation only grazes (referenced, but
// for less than sparse of their data; 0 turns that rule off). A container an
// ingest in flight holds is never picked. liveBytes is indexed by container.
func (p *Pass) selectVictims(liveBytes []int64, latestBytes map[uint32]int64, util, sparse float64) []uint32 {
	cs := p.cfg.Containers
	type cand struct {
		id   uint32
		frac float64
	}
	var cands []cand
	n := uint32(cs.Slots())
	for id := uint32(0); id < n; id++ {
		if !cs.Sealed(id) || cs.Pinned(id) {
			continue
		}
		total := cs.DataFill(id)
		if total == 0 {
			continue
		}
		var live int64
		if int(id) < len(liveBytes) {
			live = liveBytes[id]
		}
		frac := float64(live) / float64(total)
		latestFrac := float64(latestBytes[id]) / float64(total)
		hollow := frac < util
		grazed := latestBytes[id] > 0 && latestFrac < sparse
		if !hollow && !grazed {
			continue
		}
		cands = append(cands, cand{id, frac})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].frac != cands[j].frac {
			return cands[i].frac < cands[j].frac
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > p.cfg.MaxBatch {
		cands = cands[:p.cfg.MaxBatch]
	}
	ids := make([]uint32, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// merge runs one merge batch: select victims by the (util, sparse) policy,
// copy their live chunks into fresh containers (latest-recipe order first,
// so the newest backup linearizes), repoint the index, remap every recipe,
// and commit the crash-safe drop under the gate. It returns how many
// victims the commit dropped.
func (p *Pass) merge(ctx context.Context, lane *disk.Clock, util, sparse float64, st *Stats) (dropped int, err error) {
	cs, ix := p.cfg.Containers, p.cfg.Index
	recipes := p.cfg.Recipes.Snapshot()
	st.RecipesScanned = len(recipes)
	victims := p.selectVictims(p.cfg.Live.PerContainer(), latestBytes(recipes), util, sparse)
	if len(victims) == 0 {
		return 0, nil
	}
	victimSet := make(map[uint32]bool, len(victims))
	live := make(map[uint32][]container.Meta, len(victims))
	for _, id := range victims {
		victimSet[id] = true
		live[id] = p.cfg.Live.Copies(id)
	}

	// Order the copies: chunks the latest generation references come first,
	// in recipe order — the merge's whole point is that the newest backup's
	// read path lands in dense, sequential containers. Remaining live
	// copies follow in (container, offset) order, preserving what locality
	// they had. The order is a recipe of the copies' current locations.
	copies := make(map[copyKey]container.Meta, 256) // the victims' live copies
	for _, id := range victims {
		for _, m := range live[id] {
			copies[copyKey{id, m.Offset}] = m
		}
	}
	var order []chunk.Ref
	queued := make(map[copyKey]bool, len(copies))
	queue := func(key copyKey) {
		m, ok := copies[key]
		if !ok || queued[key] {
			return
		}
		queued[key] = true
		loc := chunk.Location{Container: key.container, Segment: m.Segment, Offset: m.Offset, Size: m.Size}
		order = append(order, chunk.Ref{FP: m.FP, Size: m.Size, Loc: loc})
	}
	if len(recipes) > 0 {
		latest := recipes[len(recipes)-1]
		for i := range latest.Refs {
			queue(copyKey{latest.Refs[i].Loc.Container, latest.Refs[i].Loc.Offset})
		}
	}
	for _, id := range victims {
		for _, m := range live[id] {
			queue(copyKey{id, m.Offset})
		}
	}

	// Copy the live chunks out as a restore of that recipe whose sink is a
	// reserve-mode writer on the maintenance lane. An LRU as large as the
	// batch fetches each victim once, and the executor lets its section go
	// after the last chunk copied out of it (past the latest recipe's chunks,
	// order is grouped by victim); a backend that reads ranges reads only
	// the live copies. Each victim's read is charged whole to the lane just
	// before the first chunk copied out of it is written. Where the store
	// keeps data every chunk is re-hashed before it is written: the writer
	// files it under its recorded fingerprint, so without that a damaged byte
	// would move into a fresh container and look sound there; with it the
	// merge stops before it has remapped or dropped anything. The wall-clock
	// throttle paces the byte movement.
	w := cs.NewWriter(lane)
	defer w.Discard() // a merge that fails midway seals nothing more
	moved := make(map[copyKey]chunk.Location, len(order))
	copied := 0 // the chunks the sink has written: the copy stops at order[copied]
	copyOut := func(k int, data []byte) error {
		ref := &order[k]
		if err := p.throttle.Wait(ctx, int64(ref.Size)); err != nil {
			return err
		}
		newLoc, err := w.Write(ctx, chunk.Chunk{FP: ref.FP, Size: ref.Size, Data: data}, ref.Loc.Segment)
		if err != nil {
			return err
		}
		moved[copyKey{ref.Loc.Container, ref.Loc.Offset}] = newLoc
		st.ChunksMoved++
		st.BytesMoved += int64(ref.Size)
		copied = k + 1
		return nil
	}
	cfg := restore.PipelineConfig{CacheContainers: len(victims), Policy: restore.PolicyLRU, Verify: cs.StoresData()}
	if err := restore.Emit(ctx, cs, order, cfg, restore.Emission{Lane: lane, Sink: copyOut}); err != nil {
		ref := &order[min(copied, len(order)-1)]
		return 0, fmt.Errorf("maintenance: victim container %d: chunk at offset %d (%s): %w",
			ref.Loc.Container, ref.Loc.Offset, ref.FP.Short(), err)
	}
	if err := w.Finish(ctx); err != nil {
		return 0, fmt.Errorf("maintenance: sealing merged containers: %w", err)
	}

	// Repoint the index at the moved copies it named, then durably remap
	// every retained recipe BEFORE the drop commit: from here on both the
	// old and new copies are valid, so a crash at any point leaves an
	// fsck-clean store.
	for _, ref := range order {
		newLoc, ok := moved[copyKey{ref.Loc.Container, ref.Loc.Offset}]
		if !ok {
			continue
		}
		if loc, found := ix.Peek(ref.FP); found && loc.Container == ref.Loc.Container && loc.Offset == ref.Loc.Offset {
			ix.Update(ref.FP, newLoc)
		}
	}
	ix.Flush()
	patched, err := p.rewriteRefs(ctx, func(ref *chunk.Ref) (chunk.Location, bool) {
		loc, ok := moved[copyKey{ref.Loc.Container, ref.Loc.Offset}]
		return loc, ok
	})
	st.RefsPatched += patched
	if err != nil {
		return 0, err
	}

	// Commit under the gate: no foreground stream is in flight. Re-validate
	// every victim — an ingest that raced the scan may have committed a
	// recipe pinning a victim copy the scan called dead (e.g. through a
	// locality-preserved cache hit). Pinned-but-moved refs are remapped
	// here; refs to copies that never moved force the victim to survive.
	err = p.cfg.Gate.Exclusive(func() error {
		keep := p.revalidate(ctx, victimSet, moved, st)
		if len(keep) == 0 {
			return nil
		}
		// The index entries that still name a victim's copies go before the
		// drop record, in the order Repair uses: they name dead copies now.
		var reclaimed int64
		for _, id := range keep {
			p.dropFromIndex(id)
			reclaimed += cs.DataFill(id)
		}
		if err := cs.Drop(ctx, keep, "maintenance merge"); err != nil {
			return fmt.Errorf("maintenance: dropping merged containers: %w", err)
		}
		p.cfg.Live.Drop(keep)
		dropped = len(keep)
		st.ContainersMerged += dropped
		st.BytesReclaimed += reclaimed
		return nil
	})
	return dropped, err
}

// dropFromIndex purges every index entry that names a copy in container id,
// through the Dropper (which purges the engine's caches of it too) when there
// is one.
func (p *Pass) dropFromIndex(id uint32) {
	if p.cfg.Dropper != nil {
		p.cfg.Dropper.DropFromIndex(id)
		return
	}
	ix := p.cfg.Index
	for _, m := range p.cfg.Containers.PeekMeta(id) {
		if loc, ok := ix.Peek(m.FP); ok && loc.Container == id {
			ix.Delete(m.FP)
		}
	}
}

// revalidate runs inside the gate: it remaps any recipe references that
// still land in victim containers (possible when foreground traffic
// committed between the scan and the gate) and returns the victims that are
// safe to drop. A victim still referenced by a copy that was not moved is
// kept alive and skipped this batch.
func (p *Pass) revalidate(ctx context.Context, victimSet map[uint32]bool, moved map[copyKey]chunk.Location, st *Stats) []uint32 {
	cs, ix := p.cfg.Containers, p.cfg.Index
	unsafe := make(map[uint32]bool)
	patched, err := p.rewriteRefs(ctx, func(ref *chunk.Ref) (chunk.Location, bool) {
		if !victimSet[ref.Loc.Container] {
			return chunk.Location{}, false
		}
		if loc, ok := moved[copyKey{ref.Loc.Container, ref.Loc.Offset}]; ok {
			return loc, true
		}
		// A copy the scan called dead got pinned: try the index's current
		// copy, else the victim must survive.
		loc, found := ix.Peek(ref.FP)
		if found && loc.Size == ref.Size && !victimSet[loc.Container] && cs.Sealed(loc.Container) {
			return loc, true
		}
		unsafe[ref.Loc.Container] = true
		return chunk.Location{}, false
	})
	st.RefsPatched += patched
	if err != nil {
		// Without the durable remap the drop is not safe; keep every victim
		// and let a later batch retry.
		telemetry.Logger().Warn("maintenance: remap commit failed; skipping drop", "err", err)
		for id := range victimSet {
			unsafe[id] = true
		}
	}
	var keep []uint32
	for id := range victimSet {
		if unsafe[id] {
			st.VictimsSkipped++
			continue
		}
		keep = append(keep, id)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	return keep
}

// Throttle is a wall-clock token bucket. It paces maintenance byte movement
// so the pass cannot starve foreground traffic of real I/O and CPU, and the
// server's per-tenant upload bandwidth.
type Throttle struct {
	bytesPerSec float64
	mu          chan struct{} // 1-buffered: the bucket's mutex
	tokens      float64
	last        time.Time
}

// NewThrottle builds a throttle admitting bytesPerSec bytes per wall-clock
// second (burst of one second's worth). bytesPerSec <= 0 disables pacing.
func NewThrottle(bytesPerSec float64) *Throttle {
	t := &Throttle{bytesPerSec: bytesPerSec, mu: make(chan struct{}, 1)}
	t.mu <- struct{}{}
	return t
}

// Wait blocks until n bytes of budget are available (or ctx is done). n may
// exceed the burst: the debt is paid down over time.
func (t *Throttle) Wait(ctx context.Context, n int64) error {
	if t.bytesPerSec <= 0 || n <= 0 {
		return ctx.Err()
	}
	select {
	case <-t.mu:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { t.mu <- struct{}{} }()
	now := time.Now()
	if t.last.IsZero() {
		t.last = now
		t.tokens = t.bytesPerSec // one-second burst to start
	}
	t.tokens += now.Sub(t.last).Seconds() * t.bytesPerSec
	if t.tokens > t.bytesPerSec {
		t.tokens = t.bytesPerSec
	}
	t.last = now
	if t.tokens >= float64(n) {
		t.tokens -= float64(n)
		return nil
	}
	deficit := float64(n) - t.tokens
	t.tokens = 0
	wait := time.Duration(deficit / t.bytesPerSec * float64(time.Second))
	select {
	case <-time.After(wait):
		t.last = time.Now()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
