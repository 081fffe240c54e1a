// Package ddfs implements the "DDFS-Like" engine: the deduplication
// approach of Zhu et al. (FAST'08) as the paper summarizes it, built from
// three RAM-side mechanisms in front of the on-disk full chunk index:
//
//  1. Summary vector — a Bloom filter over all stored fingerprints; most new
//     chunks are declared unique without touching disk.
//  2. Stream-informed layout — new chunks are packed into containers in
//     arrival order (internal/container).
//  3. Locality-preserved caching (LPC) — when a duplicate is found via the
//     on-disk index, the metadata of its whole container is prefetched into
//     a RAM cache, so the duplicates that follow it in the stream (spatial
//     locality!) are resolved for free.
//
// The engine's throughput therefore degrades exactly the way the paper's
// Fig. 2 shows: as earlier generations scatter a stream's duplicate chunks
// over many containers, each prefetched container yields fewer future hits,
// and the per-chunk probability of paying an index lookup + metadata
// prefetch (two seeks) climbs.
//
// The lookup machinery itself lives in engine.Resolver, shared with DeFrag.
package ddfs

import (
	"context"
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
)

// Config parameterizes a DDFS-Like engine.
type Config struct {
	ChunkParams    chunker.Params
	SegParams      segment.Params
	ContainerCfg   container.Config
	IndexCfg       cindex.Config
	DiskModel      disk.Model
	Cost           engine.CostModel
	LPCContainers  int  // locality-preserved cache capacity, in containers
	ExpectedChunks int  // Bloom filter sizing
	StoreData      bool // retain real chunk bytes (correctness mode)
	// Backend supplies the physical container store. nil selects the
	// in-memory backend matching StoreData (the historical behavior).
	Backend blockstore.Backend
}

// DefaultConfig sizes an engine for roughly expectedLogicalBytes of total
// ingested data across all generations. The LPC and index page cache are
// deliberately small relative to the data (see DESIGN.md §5): the
// experiments reproduce a regime where RAM covers only a sliver of the
// chunk population.
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

// Engine is the DDFS-Like deduplicator.
type Engine struct {
	cfg      Config
	clock    *disk.Clock
	store    *container.Store
	resolver *engine.Resolver

	oracle *cindex.Oracle // optional ground-truth observer
	segSeq atomic.Uint64  // global on-disk segment counter
}

// New builds a DDFS-Like engine with its own devices over a fresh clock.
func New(cfg Config) (*Engine, error) {
	return NewWithClock(cfg, &disk.Clock{})
}

// NewWithClock builds the engine over a caller-supplied clock (used when an
// experiment wants several engines to share a timeline; engines never share
// devices).
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
func (e *Engine) Name() string { return "ddfs-like" }

// Containers implements engine.Engine.
func (e *Engine) Containers() *container.Store { return e.store }

// Clock implements engine.Engine.
func (e *Engine) Clock() *disk.Clock { return e.clock }

// Index exposes the chunk index (tests, diagnostics).
func (e *Engine) Index() *cindex.Index { return e.resolver.Index() }

// SetOracle attaches a ground-truth oracle; subsequent backups fill the
// Oracle* fields of their BackupStats. The oracle must observe every stream
// an experiment ingests, so share one oracle across an engine's lifetime.
func (e *Engine) SetOracle(o *cindex.Oracle) { e.oracle = o }

// Backup implements engine.Engine.
func (e *Engine) Backup(ctx context.Context, label string, r io.Reader) (*chunk.Recipe, engine.BackupStats, error) {
	return e.backup(ctx, label, r, nil)
}

// BackupStream implements engine.StreamBackupper: one backup ingested as a
// concurrent stream, with all simulated I/O and CPU time charged to clk and
// unique chunks written through a per-stream container writer.
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
	start := timing.Now()

	logical, chunks, segs, err := engine.Pipeline(
		ctx, r, e.cfg.ChunkParams, e.cfg.SegParams,
		timing, e.cfg.Cost, e.store.StoresData(),
		func(seg *segment.Segment) error {
			return e.processSegment(ctx, seg, recipe, &stats, w, sr)
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
	stats.Duration = timing.Now() - start
	return recipe, stats, nil
}

// processSegment deduplicates one segment: its chunks are resolved as a
// bucket-batched lookup (chunks sharing an index page cost one modeled page
// read), then placed in stream order. Chunks that duplicate a chunk written
// earlier in the same segment reference that fresh copy directly.
func (e *Engine) processSegment(ctx context.Context, seg *segment.Segment, recipe *chunk.Recipe, stats *engine.BackupStats, w *container.Writer, sr *engine.StreamResolver) error {
	segID := e.segSeq.Add(1)
	segOracleDup := engine.ObserveSegment(e.oracle, seg, stats)
	var removedInSeg int64
	res := sr.ResolveBatch(seg.Chunks, stats)
	var writtenHere map[chunk.Fingerprint]chunk.Location
	for i, c := range seg.Chunks {
		loc, dup := res[i].Loc, res[i].Dup
		if !dup {
			if prev, again := writtenHere[c.FP]; again {
				loc, dup = prev, true
			}
		}
		if dup {
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
			removedInSeg += int64(c.Size)
		} else {
			var werr error
			loc, werr = w.Write(ctx, c, segID)
			if werr != nil {
				return werr
			}
			sr.RegisterNew(c.FP, loc)
			if writtenHere == nil {
				writtenHere = make(map[chunk.Fingerprint]chunk.Location)
			}
			writtenHere[c.FP] = loc
			stats.UniqueBytes += int64(c.Size)
			stats.UniqueChunks++
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
