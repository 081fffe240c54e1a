// Package idedup implements an iDedup-style engine (Srinivasan et al.,
// FAST'12 — the paper's citation [3]): latency-aware selective inline
// deduplication. Where DeFrag judges locality per segment with SPL, iDedup
// judges it per *duplicate run*: a duplicate is removed only when it belongs
// to a run of at least MinRun consecutive chunks that are duplicates AND
// whose stored copies are physically contiguous on disk. Short or scattered
// duplicate runs are written again, so a restore never pays a seek for less
// than MinRun chunks' worth of data.
//
// iDedup targets primary storage, where the dedup metadata lives in RAM;
// accordingly this engine resolves duplicates against an in-RAM index and
// charges no index-lookup disk time — its costs are chunking CPU plus
// container writes. Its interesting outputs here are deduplication
// efficiency (what fraction of redundancy survives the run-length filter)
// and restore performance (bounded fragmentation), compared with DeFrag's
// SPL approach.
package idedup

import (
	"repro/internal/chunk"
	"repro/internal/engine"
	"repro/internal/segment"
)

// Config parameterizes an iDedup-style engine.
type Config struct {
	engine.Config
	// MinRun is the minimum duplicate-sequence length (in chunks) that is
	// deduplicated; shorter runs are rewritten. The FAST'12 paper explores
	// thresholds in this order of magnitude.
	MinRun int
}

// DefaultConfig returns an engine with MinRun 8 (~64 KiB of contiguous
// duplicates at 8 KiB chunks).
func DefaultConfig(expectedLogicalBytes int64) Config {
	_ = expectedLogicalBytes // in-RAM index: no size-dependent structures
	return Config{Config: engine.DefaultConfig(), MinRun: 8}
}

// Engine is the iDedup-style deduplicator.
type Engine struct {
	*engine.Base
	cfg Config

	// ram is the in-RAM chunk index: fingerprint → newest location.
	ram map[chunk.Fingerprint]chunk.Location
}

// New builds an engine over a fresh clock.
func New(cfg Config) (*Engine, error) {
	cfg.MinRun = max(cfg.MinRun, 1)
	e := &Engine{cfg: cfg, ram: make(map[chunk.Fingerprint]chunk.Location, 4096)}
	b, err := engine.NewBase("idedup", cfg.Config, engine.Rule{Segment: e.processSegment})
	if err != nil {
		return nil, err
	}
	e.Base = b
	return e, nil
}

// processSegment applies the run-length dedup filter to one segment.
func (e *Engine) processSegment(in *engine.Ingest, segID uint64, seg *segment.Segment) error {
	stats, recipe := &in.Stats, in.Recipe

	// Phase 1: resolve every chunk against the RAM index (free).
	type res struct {
		loc chunk.Location
		dup bool
	}
	rs := make([]res, len(seg.Chunks))
	for i, c := range seg.Chunks {
		loc, ok := e.ram[c.FP]
		rs[i] = res{loc: loc, dup: ok}
	}

	// Phase 2: mark the duplicate runs that pass the filter — at least
	// MinRun consecutive duplicates whose stored copies are physically
	// contiguous.
	keep := make([]bool, len(seg.Chunks)) // keep = dedupe (remove)
	i := 0
	for i < len(rs) {
		if !rs[i].dup {
			i++
			continue
		}
		// Extend a physically contiguous duplicate run.
		j := i + 1
		for j < len(rs) && rs[j].dup &&
			rs[j].loc.Offset == rs[j-1].loc.Offset+int64(rs[j-1].loc.Size) {
			j++
		}
		if j-i >= e.cfg.MinRun {
			for k := i; k < j; k++ {
				keep[k] = true
			}
		}
		i = j
	}

	// Phase 3: place. Filtered-out duplicates are rewritten (RewrittenBytes
	// — the same accounting DeFrag uses for deliberately unremoved
	// redundancy).
	writtenHere := make(map[chunk.Fingerprint]chunk.Location)
	for i, c := range seg.Chunks {
		switch {
		case keep[i]:
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			recipe.Append(c.FP, c.Size, rs[i].loc)
		default:
			if loc, again := writtenHere[c.FP]; again {
				stats.DedupedBytes += int64(c.Size)
				stats.DedupedChunks++
				recipe.Append(c.FP, c.Size, loc)
				continue
			}
			loc, werr := in.W.Write(in.Ctx, c, segID)
			if werr != nil {
				return werr
			}
			e.ram[c.FP] = loc
			writtenHere[c.FP] = loc
			if rs[i].dup {
				stats.RewrittenBytes += int64(c.Size)
				stats.RewrittenChunks++
			} else {
				stats.UniqueBytes += int64(c.Size)
				stats.UniqueChunks++
			}
			recipe.Append(c.FP, c.Size, loc)
		}
	}
	return nil
}

var _ engine.Engine = (*Engine)(nil)
