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
	"context"
	"io"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/segment"
)

// Config parameterizes an iDedup-style engine.
type Config struct {
	ChunkParams  chunker.Params
	SegParams    segment.Params
	ContainerCfg container.Config
	DiskModel    disk.Model
	Cost         engine.CostModel

	// MinRun is the minimum duplicate-sequence length (in chunks) that is
	// deduplicated; shorter runs are rewritten. The FAST'12 paper explores
	// thresholds in this order of magnitude.
	MinRun    int
	StoreData bool
	// Backend supplies the physical container store. nil selects the
	// in-memory backend matching StoreData (the historical behavior).
	Backend blockstore.Backend
}

// DefaultConfig returns an engine with MinRun 8 (~64 KiB of contiguous
// duplicates at 8 KiB chunks).
func DefaultConfig(expectedLogicalBytes int64) Config {
	_ = expectedLogicalBytes // in-RAM index: no size-dependent structures
	return Config{
		ChunkParams:  chunker.DefaultParams(),
		SegParams:    segment.DefaultParams(),
		ContainerCfg: container.DefaultConfig(),
		DiskModel:    disk.DefaultModel(),
		Cost:         engine.DefaultCostModel(),
		MinRun:       8,
	}
}

// Engine is the iDedup-style deduplicator.
type Engine struct {
	cfg   Config
	clock *disk.Clock
	store *container.Store

	// ram is the in-RAM chunk index: fingerprint → newest location.
	ram map[chunk.Fingerprint]chunk.Location

	oracle *cindex.Oracle
	segSeq uint64
}

// New builds an engine over a fresh clock.
func New(cfg Config) (*Engine, error) {
	return NewWithClock(cfg, &disk.Clock{})
}

// NewWithClock builds the engine over a caller-supplied clock.
func NewWithClock(cfg Config, clock *disk.Clock) (*Engine, error) {
	be := cfg.Backend
	if be == nil {
		be = blockstore.NewSim(cfg.StoreData)
	}
	// The device is purely the timing model; bytes live in the backend.
	store, err := container.NewStoreWithBackend(disk.NewDevice(cfg.DiskModel, clock, false), cfg.ContainerCfg, be)
	if err != nil {
		return nil, err
	}
	if cfg.MinRun < 1 {
		cfg.MinRun = 1
	}
	return &Engine{
		cfg:   cfg,
		clock: clock,
		store: store,
		ram:   make(map[chunk.Fingerprint]chunk.Location, 4096),
	}, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "idedup" }

// Containers implements engine.Engine.
func (e *Engine) Containers() *container.Store { return e.store }

// Clock implements engine.Engine.
func (e *Engine) Clock() *disk.Clock { return e.clock }

// MinRun returns the configured run threshold.
func (e *Engine) MinRun() int { return e.cfg.MinRun }

// SetOracle attaches the ground-truth oracle.
func (e *Engine) SetOracle(o *cindex.Oracle) { e.oracle = o }

// Backup implements engine.Engine.
func (e *Engine) Backup(ctx context.Context, label string, r io.Reader) (*chunk.Recipe, engine.BackupStats, error) {
	stats := engine.BackupStats{Label: label}
	recipe := &chunk.Recipe{Label: label}
	start := e.clock.Now()

	logical, chunks, segs, err := engine.Pipeline(
		ctx, r, e.cfg.ChunkParams, e.cfg.SegParams,
		e.clock, e.cfg.Cost, e.store.StoresData(),
		func(seg *segment.Segment) error {
			return e.processSegment(ctx, seg, recipe, &stats)
		})
	if err != nil {
		// Keep the store consistent on abort: seal the open container
		// outside the (possibly cancelled) context.
		e.store.Flush(context.WithoutCancel(ctx)) //nolint:errcheck // best-effort cleanup
		return nil, stats, err
	}
	if err := e.store.Flush(ctx); err != nil {
		return nil, stats, err
	}

	stats.LogicalBytes = logical
	stats.Chunks = chunks
	stats.Segments = segs
	stats.Duration = e.clock.Now() - start
	return recipe, stats, nil
}

// processSegment applies the run-length dedup filter to one segment. The error
// return propagates future failing write paths through Backup.
func (e *Engine) processSegment(ctx context.Context, seg *segment.Segment, recipe *chunk.Recipe, stats *engine.BackupStats) error {
	e.segSeq++
	segID := e.segSeq
	segOracleDup := engine.ObserveSegment(e.oracle, seg, stats)

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
	var removedInSeg int64
	writtenHere := make(map[chunk.Fingerprint]chunk.Location)
	for i, c := range seg.Chunks {
		switch {
		case keep[i]:
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			removedInSeg += int64(c.Size)
			recipe.Append(c.FP, c.Size, rs[i].loc)
		default:
			if loc, again := writtenHere[c.FP]; again {
				stats.DedupedBytes += int64(c.Size)
				stats.DedupedChunks++
				removedInSeg += int64(c.Size)
				recipe.Append(c.FP, c.Size, loc)
				continue
			}
			loc, werr := e.store.Write(ctx, c, segID)
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

	engine.AccountPartialSegment(e.oracle, seg, segOracleDup, removedInSeg, stats)
	return nil
}

var _ engine.Engine = (*Engine)(nil)
