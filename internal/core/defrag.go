// Package core implements DeFrag, the paper's contribution (§III):
// reducing the de-linearization of data placement by selectively *not*
// deduplicating redundant chunks whose placement would fragment the stream.
//
// DeFrag runs on top of the DDFS duplicate-identification machinery
// (engine.Resolver) but splits each segment's processing into phases:
//
//  1. Identify — resolve every chunk of the incoming segment Seg_m to
//     (duplicate, stored location) or (new), paying the same lookup costs
//     DDFS pays.
//
//  2. Measure — group the duplicates by the on-disk segment Seg_k holding
//     them and compute the Spatial Locality Level (paper Eq. 2):
//
//     SPL(m,k) = |Seg_m ∩ Seg_k| / |Seg_m|
//
//  3. Place — for each k with SPL(m,k) < α, the shared chunks are NOT
//     removed: they are rewritten to disk in stream order together with
//     Seg_m's new unique chunks, and the chunk index is repointed at the
//     new (linearized) copies. Chunks in high-SPL groups are deduplicated
//     as usual.
//
// The α knob trades sacrificed compression for preserved spatial locality
// (the paper evaluates α = 0.1). α = 0 degenerates to exact DDFS behaviour;
// α just above 1 rewrites every cross-segment duplicate (no dedup across
// segments that are not chunk-for-chunk supersets).
package core

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/segment"
	"repro/internal/telemetry"
)

// Live telemetry of the DeFrag decision path. The three defrag_decision_total
// series partition the chunk stream — their sum equals
// dedup_chunks_processed_total whenever DeFrag is the only engine running
// (asserted by the integration test in internal/telemetry).
var (
	telDecisionDedup = telemetry.NewCounter(
		telemetry.Name("defrag_decision_total", "decision", "dedup"),
		"per-chunk placement decisions: dedup (removed by reference), rewrite (duplicate written for locality), unique (new data)")
	telDecisionRewrite = telemetry.NewCounter(
		telemetry.Name("defrag_decision_total", "decision", "rewrite"), "")
	telDecisionUnique = telemetry.NewCounter(
		telemetry.Name("defrag_decision_total", "decision", "unique"), "")
	telDecisionSpill = telemetry.NewCounter(
		telemetry.Name("defrag_decision_total", "decision", "spill"), "")
	telSPL = telemetry.NewHistogram("defrag_spl_ratio",
		"spatial locality level SPL(m,k) of duplicate groups (paper Eq. 2); the rewrite threshold is α",
		telemetry.RatioBuckets)
	telRewriteGroups = telemetry.NewCounter(
		telemetry.Name("defrag_spl_groups_total", "verdict", "rewrite"),
		"duplicate placement groups judged against α: rewrite (SPL < α) or keep (deduplicate)")
	telKeepGroups = telemetry.NewCounter(
		telemetry.Name("defrag_spl_groups_total", "verdict", "keep"), "")
	telRewrittenBytes = telemetry.NewCounter("defrag_rewritten_bytes_total",
		"duplicate bytes deliberately rewritten for locality")
)

// RewritePolicy selects how DeFrag decides which duplicates to rewrite.
type RewritePolicy int

const (
	// PolicySPL is the paper's policy: group duplicates by the on-disk
	// *segment* holding them and rewrite groups with SPL(m,k) < α.
	PolicySPL RewritePolicy = iota
	// PolicyContainer is a CBR-style alternative (after Kaczmarczyk et
	// al., SYSTOR'12 — the paper's citation [5]): group duplicates by the
	// on-disk *container* and rewrite groups whose share of the incoming
	// segment is below α. Containers are the prefetch and restore
	// granularity, so this judges locality at exactly the unit the caches
	// operate on; the trade-off against segment granularity is measured by
	// RunPolicyAblation.
	PolicyContainer
)

func (p RewritePolicy) String() string {
	switch p {
	case PolicySPL:
		return "spl"
	case PolicyContainer:
		return "container"
	}
	return "unknown"
}

// Config parameterizes a DeFrag engine.
type Config struct {
	Alpha          float64       // SPL threshold α (paper default 0.1)
	Policy         RewritePolicy // rewrite grouping policy (default PolicySPL)
	ChunkParams    chunker.Params
	SegParams      segment.Params
	ContainerCfg   container.Config
	IndexCfg       cindex.Config
	DiskModel      disk.Model
	Cost           engine.CostModel
	LPCContainers  int
	ExpectedChunks int
	StoreData      bool
	// Backend supplies the physical container store. nil selects the
	// in-memory backend matching StoreData (the historical behavior).
	Backend blockstore.Backend
	// Filter is the HPDedup-style prioritized inline filter: streams whose
	// duplicates do not cluster are demoted to write-through (spill) ingest
	// and re-deduplicated out of line by the maintenance pass. The zero
	// value disables it — every stream dedups inline, the historical
	// behavior.
	Filter engine.FilterConfig
}

// DefaultConfig mirrors ddfs.DefaultConfig with the paper's α = 0.1.
func DefaultConfig(expectedLogicalBytes int64) Config {
	cp := chunker.DefaultParams()
	expChunks := int(expectedLogicalBytes/int64(cp.Target)) + 1
	ccfg := container.DefaultConfig()
	expContainers := int(expectedLogicalBytes/ccfg.DataCap) + 1
	lpc := expContainers / 20
	if lpc < 4 {
		lpc = 4
	}
	return Config{
		Alpha:          0.1,
		ChunkParams:    cp,
		SegParams:      segment.DefaultParams(),
		ContainerCfg:   ccfg,
		IndexCfg:       cindex.DefaultConfig(expChunks),
		DiskModel:      disk.DefaultModel(),
		Cost:           engine.DefaultCostModel(),
		LPCContainers:  lpc,
		ExpectedChunks: expChunks,
	}
}

func (c Config) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: α must be in [0,1], got %v", c.Alpha)
	}
	return nil
}

// Engine is the DeFrag deduplicator.
type Engine struct {
	cfg      Config
	clock    *disk.Clock
	store    *container.Store
	resolver *engine.Resolver

	oracle *cindex.Oracle
	segSeq atomic.Uint64
}

// New builds a DeFrag engine over a fresh clock.
func New(cfg Config) (*Engine, error) {
	return NewWithClock(cfg, &disk.Clock{})
}

// NewWithClock builds the engine over a caller-supplied clock.
func NewWithClock(cfg Config, clock *disk.Clock) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	be := cfg.Backend
	if be == nil {
		be = blockstore.NewSim(cfg.StoreData)
	}
	// The device is purely the timing model; bytes live in the backend.
	store, err := container.NewStoreWithBackend(disk.NewDevice(cfg.DiskModel, clock, false), cfg.ContainerCfg, be)
	if err != nil {
		return nil, err
	}
	index, err := cindex.New(disk.NewDevice(cfg.DiskModel, clock, false), cfg.IndexCfg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:      cfg,
		clock:    clock,
		store:    store,
		resolver: engine.NewResolver(index, store, cfg.LPCContainers, cfg.ExpectedChunks),
	}, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "defrag" }

// Containers implements engine.Engine.
func (e *Engine) Containers() *container.Store { return e.store }

// Clock implements engine.Engine.
func (e *Engine) Clock() *disk.Clock { return e.clock }

// Alpha returns the configured SPL threshold.
func (e *Engine) Alpha() float64 { return e.cfg.Alpha }

// Policy returns the configured rewrite-grouping policy.
func (e *Engine) Policy() RewritePolicy { return e.cfg.Policy }

// Index exposes the chunk index (tests, diagnostics).
func (e *Engine) Index() *cindex.Index { return e.resolver.Index() }

// SetOracle attaches the ground-truth oracle (see ddfs.Engine.SetOracle).
func (e *Engine) SetOracle(o *cindex.Oracle) { e.oracle = o }

// Backup implements engine.Engine.
func (e *Engine) Backup(ctx context.Context, label string, r io.Reader) (*chunk.Recipe, engine.BackupStats, error) {
	return e.backup(ctx, label, r, nil)
}

// BackupStream implements engine.StreamBackupper: one backup ingested as a
// concurrent stream, with all simulated I/O and CPU time charged to clk and
// writes going through a per-stream container writer.
func (e *Engine) BackupStream(ctx context.Context, label string, r io.Reader, clk *disk.Clock) (*chunk.Recipe, engine.BackupStats, error) {
	return e.backup(ctx, label, r, clk)
}

// Adopt implements engine.Adopter: it rebuilds the directory, index,
// summary vector, and segment sequence from an already-populated backend
// (the durable-store reopen path).
func (e *Engine) Adopt(ctx context.Context) error {
	if err := e.store.Adopt(ctx); err != nil {
		return err
	}
	e.segSeq.Store(e.resolver.AdoptIndex())
	return nil
}

// DropFromIndex purges all index and cache state derived from container cid
// (fsck.IndexDropper) — call immediately before quarantining it.
func (e *Engine) DropFromIndex(cid uint32) int { return e.resolver.DropFromIndex(cid) }

// backup is the shared ingest body. clk == nil selects the serial path
// (store frontier writer, engine master clock); a non-nil clk selects the
// concurrent path (reserve-mode writer, per-stream timing).
func (e *Engine) backup(ctx context.Context, label string, r io.Reader, clk *disk.Clock) (*chunk.Recipe, engine.BackupStats, error) {
	stats := engine.BackupStats{Label: label}
	recipe := &chunk.Recipe{Label: label}
	timing := e.clock
	var w *container.Writer
	if clk == nil {
		w = e.store.SerialWriter()
	} else {
		timing = clk
		w = e.store.NewWriter(clk)
	}
	sr := e.resolver.Stream(clk, w)
	flt := engine.NewFilter(e.cfg.Filter)
	start := timing.Now()
	ctx, span := telemetry.StartSpan(ctx, "defrag.backup")
	defer span.End()

	logical, chunks, segs, err := engine.Pipeline(
		ctx, r, e.cfg.ChunkParams, e.cfg.SegParams,
		timing, e.cfg.Cost, e.store.StoresData(),
		func(seg *segment.Segment) error {
			return e.processSegment(ctx, seg, recipe, &stats, timing, w, sr, flt)
		})
	if err != nil {
		// Leave the store consistent even on cancellation: seal the open
		// container and flush the index outside the cancelled context, so
		// everything already placed stays referenced (fsck-clean) and only
		// this backup is lost.
		if ferr := w.Finish(context.WithoutCancel(ctx)); ferr == nil {
			sr.FlushIndex()
		}
		return nil, stats, err
	}
	if err := w.Finish(ctx); err != nil {
		return nil, stats, err
	}
	sr.FlushIndex()

	stats.LogicalBytes = logical
	stats.Chunks = chunks
	stats.Segments = segs
	stats.FilterSpilled = flt.Spilling()
	stats.Duration = timing.Now() - start
	span.SetSim(stats.Duration)
	return recipe, stats, nil
}

// resolution is the phase-1 outcome for one chunk of the incoming segment.
type resolution struct {
	loc chunk.Location
	dup bool
}

// processSegment runs the three DeFrag phases over one segment. ctx carries
// the backup-level telemetry span; each phase is traced under it. timing is
// the clock the stream charges (the engine clock on the serial path).
func (e *Engine) processSegment(ctx context.Context, seg *segment.Segment, recipe *chunk.Recipe, stats *engine.BackupStats, timing *disk.Clock, w *container.Writer, sr *engine.StreamResolver, flt *engine.Filter) error {
	// A stream the filter has demoted skips the charged identify/measure
	// phases entirely and writes through.
	if flt.Spilling() {
		return e.spillSegment(ctx, seg, recipe, stats, w, sr)
	}
	segID := e.segSeq.Add(1)
	segOracleDup := engine.ObserveSegment(e.oracle, seg, stats)

	// Phase 1: identify every chunk (no writes yet — rewrites must land in
	// stream order together with the new unique chunks). The whole segment
	// resolves as one bucket-batched index pass: chunks hashing to the same
	// index page share one modeled page read.
	identStart := timing.Now()
	_, identSpan := telemetry.StartSpan(ctx, "defrag.identify")
	batch := sr.ResolveBatch(seg.Chunks, stats)
	res := make([]resolution, len(seg.Chunks))
	head := uint32(e.store.Slots())
	for i := range batch {
		res[i] = resolution{loc: batch[i].Loc, dup: batch[i].Dup}
		flt.Observe(res[i].dup, res[i].loc, head)
	}
	identSpan.SetSim(timing.Now() - identStart)
	identSpan.End()

	// Phase 2: spatial-locality measurement. Group duplicates by the
	// configured placement unit and mark low-SPL groups for rewriting.
	_, measureSpan := telemetry.StartSpan(ctx, "defrag.measure")
	groupOf := func(r *resolution) uint64 {
		if e.cfg.Policy == PolicyContainer {
			return uint64(r.loc.Container) + 1 // +1 keeps container 0 distinct from "no group"
		}
		return r.loc.Segment
	}
	shared := make(map[uint64]int) // placement group → shared chunk count
	for i := range res {
		if res[i].dup {
			shared[groupOf(&res[i])]++
		}
	}
	total := len(seg.Chunks)
	rewriteSeg := make(map[uint64]bool, len(shared))
	for k, n := range shared {
		if k == 0 {
			continue // location with no group tag (defensive)
		}
		spl := float64(n) / float64(total)
		telSPL.Observe(spl)
		if spl < e.cfg.Alpha {
			rewriteSeg[k] = true
			telRewriteGroups.Inc()
		} else {
			telKeepGroups.Inc()
		}
	}
	measureSpan.End()

	// Phase 3: place chunks in stream order. Duplicates resolving to
	// low-SPL segments are rewritten (and the index repointed); the rest
	// are removed by reference.
	placeStart := timing.Now()
	_, placeSpan := telemetry.StartSpan(ctx, "defrag.place")
	var removedInSeg int64
	writtenHere := make(map[chunk.Fingerprint]chunk.Location)
	for i, c := range seg.Chunks {
		r := res[i]
		switch {
		case r.dup && !rewriteSeg[groupOf(&r)]:
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			telDecisionDedup.Inc()
			removedInSeg += int64(c.Size)
			recipe.Append(c.FP, c.Size, r.loc)

		case r.dup: // low-SPL duplicate: rewrite for locality
			if loc, again := writtenHere[c.FP]; again {
				// Already rewritten earlier in this very segment; the new
				// copy is perfectly local — reference it.
				stats.DedupedBytes += int64(c.Size)
				stats.DedupedChunks++
				telDecisionDedup.Inc()
				removedInSeg += int64(c.Size)
				recipe.Append(c.FP, c.Size, loc)
				break
			}
			loc, werr := w.Write(ctx, c, segID)
			if werr != nil {
				return werr
			}
			sr.Repoint(c.FP, loc)
			e.store.MarkDead(r.loc.Container, int64(r.loc.Size))
			writtenHere[c.FP] = loc
			stats.RewrittenBytes += int64(c.Size)
			stats.RewrittenChunks++
			telDecisionRewrite.Inc()
			telRewrittenBytes.Add(int64(c.Size))
			recipe.Append(c.FP, c.Size, loc)

		default: // new unique chunk
			if loc, again := writtenHere[c.FP]; again {
				stats.DedupedBytes += int64(c.Size)
				stats.DedupedChunks++
				telDecisionDedup.Inc()
				removedInSeg += int64(c.Size)
				recipe.Append(c.FP, c.Size, loc)
				break
			}
			loc, werr := w.Write(ctx, c, segID)
			if werr != nil {
				return werr
			}
			sr.RegisterNew(c.FP, loc)
			writtenHere[c.FP] = loc
			stats.UniqueBytes += int64(c.Size)
			stats.UniqueChunks++
			telDecisionUnique.Inc()
			recipe.Append(c.FP, c.Size, loc)
		}
	}
	placeSpan.SetSim(timing.Now() - placeStart)
	placeSpan.End()

	engine.AccountPartialSegment(e.oracle, seg, segOracleDup, removedInSeg, stats)
	return nil
}

// spillSegment is the write-through path for streams the inline filter has
// demoted: no charged index lookups, no metadata prefetches, no SPL
// measurement. Chunks the Bloom filter clears as definitely-new register in
// the index as usual; probable duplicates are written again without touching
// the index — the earlier copy stays authoritative, so the maintenance
// pass's re-dedup step (maintenance.Pass.RunEpoch) can later remap this
// stream's recipe onto it and reclaim the spilled container space.
func (e *Engine) spillSegment(ctx context.Context, seg *segment.Segment, recipe *chunk.Recipe, stats *engine.BackupStats, w *container.Writer, sr *engine.StreamResolver) error {
	segID := e.segSeq.Add(1)
	segOracleDup := engine.ObserveSegment(e.oracle, seg, stats)
	var removedInSeg int64
	writtenHere := make(map[chunk.Fingerprint]chunk.Location, len(seg.Chunks))
	for _, c := range seg.Chunks {
		if loc, again := writtenHere[c.FP]; again {
			// Repeated within this segment: the copy just written is local
			// and free to reference.
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			telDecisionDedup.Inc()
			removedInSeg += int64(c.Size)
			recipe.Append(c.FP, c.Size, loc)
			continue
		}
		loc, werr := w.Write(ctx, c, segID)
		if werr != nil {
			return werr
		}
		writtenHere[c.FP] = loc
		if !sr.MightContain(c.FP) {
			// Definitely new: register so future streams (and this one) can
			// still dedup against it.
			sr.RegisterNew(c.FP, loc)
			stats.UniqueBytes += int64(c.Size)
			stats.UniqueChunks++
			telDecisionUnique.Inc()
		} else {
			// Probable duplicate: written through, index untouched.
			stats.SpilledBytes += int64(c.Size)
			stats.SpilledChunks++
			telDecisionSpill.Inc()
			engine.AccountSpill(int64(c.Size))
		}
		recipe.Append(c.FP, c.Size, loc)
	}
	engine.AccountPartialSegment(e.oracle, seg, segOracleDup, removedInSeg, stats)
	return nil
}

var (
	_ engine.Engine  = (*Engine)(nil)
	_ engine.Adopter = (*Engine)(nil)
)
