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
	"fmt"

	"repro/internal/chunk"
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
	engine.Config
	engine.IndexConfig
	Alpha  float64       // SPL threshold α (paper default 0.1)
	Policy RewritePolicy // rewrite grouping policy (default PolicySPL)
	// Filter is the HPDedup-style prioritized inline filter: streams whose
	// duplicates do not cluster are demoted to write-through (spill) ingest
	// and re-deduplicated out of line by the maintenance pass. The zero
	// value disables it — every stream dedups inline, the historical
	// behavior.
	Filter engine.FilterConfig
}

// DefaultConfig mirrors ddfs.DefaultConfig with the paper's α = 0.1.
func DefaultConfig(expectedLogicalBytes int64) Config {
	cfg := engine.DefaultConfig()
	return Config{Config: cfg, IndexConfig: engine.DefaultIndexConfig(cfg, expectedLogicalBytes), Alpha: 0.1}
}

// Engine is the DeFrag deduplicator.
type Engine struct {
	*engine.Indexed
	cfg Config
}

// New builds a DeFrag engine over a fresh clock.
func New(cfg Config) (*Engine, error) {
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("core: α must be in [0,1], got %v", cfg.Alpha)
	}
	e := &Engine{cfg: cfg}
	x, err := engine.NewIndexed("defrag", cfg.Config, cfg.IndexConfig,
		engine.Rule{Segment: e.processSegment, Span: "defrag.backup", Filter: cfg.Filter})
	if err != nil {
		return nil, err
	}
	e.Indexed = x
	return e, nil
}

// resolution is the phase-1 outcome for one chunk of the incoming segment.
type resolution struct {
	loc chunk.Location
	dup bool
}

// processSegment runs the three DeFrag phases over one segment. in.Ctx
// carries the backup-level telemetry span; each phase is traced under it.
func (e *Engine) processSegment(in *engine.Ingest, segID uint64, seg *segment.Segment) error {
	// A stream the filter has demoted skips the charged identify/measure
	// phases entirely and writes through.
	if in.Filter.Spilling() {
		return spillSegment(in, segID, seg)
	}
	ctx, timing, stats, recipe, sr := in.Ctx, in.Clock, &in.Stats, in.Recipe, in.Resolver

	// Phase 1: identify every chunk (no writes yet — rewrites must land in
	// stream order together with the new unique chunks). The whole segment
	// resolves as one bucket-batched index pass: chunks hashing to the same
	// index page share one modeled page read.
	identStart := timing.Now()
	_, identSpan := telemetry.StartSpan(ctx, "defrag.identify")
	batch := sr.ResolveBatch(seg.Chunks, stats)
	res := make([]resolution, len(seg.Chunks))
	head := uint32(e.Containers().Slots())
	for i := range batch {
		res[i] = resolution{loc: batch[i].Loc, dup: batch[i].Dup}
		in.Filter.Observe(res[i].dup, res[i].loc, head)
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
	writtenHere := make(map[chunk.Fingerprint]chunk.Location)
	for i, c := range seg.Chunks {
		r := res[i]
		switch {
		case r.dup && !rewriteSeg[groupOf(&r)]:
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			telDecisionDedup.Inc()
			recipe.Append(c.FP, c.Size, r.loc)

		case r.dup: // low-SPL duplicate: rewrite for locality
			if loc, again := writtenHere[c.FP]; again {
				// Already rewritten earlier in this very segment; the new
				// copy is perfectly local — reference it.
				stats.DedupedBytes += int64(c.Size)
				stats.DedupedChunks++
				telDecisionDedup.Inc()
				recipe.Append(c.FP, c.Size, loc)
				break
			}
			loc, werr := in.W.Write(ctx, c, segID)
			if werr != nil {
				return werr
			}
			sr.Repoint(c.FP, loc)
			e.Containers().MarkDead(r.loc.Container, int64(r.loc.Size))
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
				recipe.Append(c.FP, c.Size, loc)
				break
			}
			loc, werr := in.W.Write(ctx, c, segID)
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
	return nil
}

// spillSegment is the write-through path for streams the inline filter has
// demoted: no charged index lookups, no metadata prefetches, no SPL
// measurement. Chunks the Bloom filter clears as definitely-new register in
// the index as usual; probable duplicates are written again without touching
// the index — the earlier copy stays authoritative, so the maintenance
// pass's re-dedup step (maintenance.Pass.RunEpoch) can later remap this
// stream's recipe onto it and reclaim the spilled container space.
func spillSegment(in *engine.Ingest, segID uint64, seg *segment.Segment) error {
	stats, recipe := &in.Stats, in.Recipe
	writtenHere := make(map[chunk.Fingerprint]chunk.Location, len(seg.Chunks))
	for _, c := range seg.Chunks {
		if loc, again := writtenHere[c.FP]; again {
			// Repeated within this segment: the copy just written is local
			// and free to reference.
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			telDecisionDedup.Inc()
			recipe.Append(c.FP, c.Size, loc)
			continue
		}
		loc, werr := in.W.Write(in.Ctx, c, segID)
		if werr != nil {
			return werr
		}
		writtenHere[c.FP] = loc
		if !in.Resolver.MightContain(c.FP) {
			// Definitely new: register so future streams (and this one) can
			// still dedup against it.
			in.Resolver.RegisterNew(c.FP, loc)
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
	return nil
}

var (
	_ engine.StreamBackupper = (*Engine)(nil)
	_ engine.Adopter         = (*Engine)(nil)
)
