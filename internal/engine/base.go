package engine

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
	"repro/internal/segment"
	"repro/internal/telemetry"
)

// Config is the part of every engine's configuration the shell uses: one
// chunking pipeline, one container layout and one disk model, so that the
// engines compare on equal terms. Engine configs embed it.
type Config struct {
	ChunkParams  chunker.Params
	SegParams    segment.Params
	ContainerCfg container.Config
	DiskModel    disk.Model
	Cost         CostModel
	StoreData    bool // retain real chunk bytes (correctness mode)
	// Backend supplies the physical container store. nil selects the
	// in-memory backend matching StoreData.
	Backend blockstore.Backend
}

// DefaultConfig returns the shared defaults every engine starts from.
func DefaultConfig() Config {
	return Config{
		ChunkParams:  chunker.DefaultParams(),
		SegParams:    segment.DefaultParams(),
		ContainerCfg: container.DefaultConfig(),
		DiskModel:    disk.DefaultModel(),
		Cost:         DefaultCostModel(),
	}
}

// Ingest is one backup in flight through the shell: what an engine's
// per-segment rule reads and fills.
type Ingest struct {
	Ctx      context.Context   // the backup's context, inside its span if the rule names one
	Clock    *disk.Clock       // the clock the backup charges: the engine's, or its lane's
	W        *container.Writer // where the backup's chunks are written
	Resolver *StreamResolver   // the index bound to W and Clock; nil for engines without one
	Filter   *Filter           // the backup's inline filter; nil when disabled
	Recipe   *chunk.Recipe
	Stats    BackupStats
}

// Rule is what an engine adds to the shell.
type Rule struct {
	// Segment applies the engine's decision to one segment, writing its
	// chunks under on-disk segment ID segID. The shell has run the oracle
	// over seg before, and books the DedupedBytes Segment adds as the
	// segment's removed redundancy after.
	Segment func(in *Ingest, segID uint64, seg *segment.Segment) error
	// Seal runs when a backup has reached its end, before its writer seals
	// the last container.
	Seal func()
	// Missed reports the oracle-redundant bytes a backup did not remove as
	// its MissedDupBytes (the near-exact engines).
	Missed bool
	// Span names a telemetry span around each backup.
	Span string
	// Filter configures each backup's inline filter (Ingest.Filter).
	Filter FilterConfig
}

// Base is the shell every engine runs in: the clock, the container store,
// the oracle, the on-disk segment counter, the hint table its backups cut
// by, and the one backup body around Pipeline. An engine supplies only its
// Rule.
type Base struct {
	name     string
	cfg      Config
	rule     Rule
	clock    *disk.Clock
	store    *container.Store
	resolver *Resolver // set by NewIndexed
	oracle   *cindex.Oracle
	segSeq   atomic.Uint64
	hints    *Hints
}

// NewBase builds the shell of the engine called name over a fresh clock and
// a container store on cfg.Backend (the Sim backend when that is nil).
func NewBase(name string, cfg Config, rule Rule) (*Base, error) {
	be := cfg.Backend
	if be == nil {
		be = blockstore.NewSim(cfg.StoreData)
	}
	clock := &disk.Clock{}
	// The device is purely the timing model; bytes live in the backend.
	store, err := container.NewStoreWithBackend(disk.NewDevice(cfg.DiskModel, clock, false), cfg.ContainerCfg, be)
	if err != nil {
		return nil, err
	}
	return &Base{name: name, cfg: cfg, rule: rule, clock: clock, store: store, hints: NewHints()}, nil
}

// Name implements Engine.
func (b *Base) Name() string { return b.name }

// Containers implements Engine.
func (b *Base) Containers() *container.Store { return b.store }

// Clock implements Engine.
func (b *Base) Clock() *disk.Clock { return b.clock }

// SetOracle implements Engine.
func (b *Base) SetOracle(o *cindex.Oracle) { b.oracle = o }

// Backup implements Engine: the backup charges the engine's clock and writes
// through the store's serial writer, so two Backups of one engine must not
// overlap.
func (b *Base) Backup(ctx context.Context, label string, r io.Reader) (*chunk.Recipe, BackupStats, error) {
	return b.backup(ctx, label, r, nil)
}

// backup is the one backup body. clk == nil selects the serial path (the
// store's serial writer, the engine clock); a non-nil clk a lane of its own
// (a per-stream writer, charging clk).
func (b *Base) backup(ctx context.Context, label string, r io.Reader, clk *disk.Clock) (*chunk.Recipe, BackupStats, error) {
	in := &Ingest{
		Clock:  b.clock,
		Filter: NewFilter(b.rule.Filter),
		Recipe: &chunk.Recipe{Label: label},
		Stats:  BackupStats{Label: label},
	}
	if clk == nil {
		in.W = b.store.SerialWriter()
	} else {
		in.Clock, in.W = clk, b.store.NewWriter(clk)
	}
	if b.resolver != nil {
		in.Resolver = b.resolver.Stream(clk, in.W)
	}
	start := in.Clock.Now()
	var span *telemetry.Span
	if b.rule.Span != "" {
		ctx, span = telemetry.StartSpan(ctx, b.rule.Span)
		defer span.End()
	}
	in.Ctx = ctx
	pins := container.PinsFrom(ctx)

	logical, chunks, segs, err := Pipeline(
		ctx, r, b.cfg.ChunkParams, b.cfg.SegParams,
		in.Clock, b.cfg.Cost, b.store.StoresData(), b.hints,
		func(seg *segment.Segment) error {
			segID := b.segSeq.Add(1)
			oracleDup := observeSegment(b.oracle, seg, &in.Stats)
			deduped, placed := in.Stats.DedupedBytes, len(in.Recipe.Refs)
			err := b.rule.Segment(in, segID, seg)
			pins.Hold(in.Recipe.Refs[placed:])
			if err != nil {
				return err
			}
			accountPartialSegment(b.oracle, seg, oracleDup, in.Stats.DedupedBytes-deduped, &in.Stats)
			return nil
		})
	if err != nil {
		// Leave the store consistent even on cancellation: seal the open
		// container and flush the index outside the cancelled context, so
		// everything already placed stays referenced (fsck-clean) and only
		// this backup is lost.
		if ferr := in.W.Finish(context.WithoutCancel(ctx)); ferr == nil {
			in.flushIndex()
		}
		return nil, in.Stats, err
	}
	if b.rule.Seal != nil {
		b.rule.Seal()
	}
	if err := in.W.Finish(ctx); err != nil {
		return nil, in.Stats, err
	}
	in.flushIndex()
	if err := b.store.AwaitSealed(ctx, in.Recipe.Refs); err != nil {
		return nil, in.Stats, err
	}

	st := &in.Stats
	st.LogicalBytes, st.Chunks, st.Segments = logical, chunks, segs
	st.FilterSpilled = in.Filter.Spilling()
	st.Duration = in.Clock.Now() - start
	if b.rule.Missed {
		st.MissedDupBytes = max(st.OracleRedundantBytes-st.DedupedBytes, 0)
	}
	span.SetSim(st.Duration)
	return in.Recipe, *st, nil
}

func (in *Ingest) flushIndex() {
	if in.Resolver != nil {
		in.Resolver.FlushIndex()
	}
}

// IndexConfig sizes the full chunk index and its RAM caches (DDFS-Like and
// DeFrag).
type IndexConfig struct {
	IndexCfg       cindex.Config
	LPCContainers  int // locality-preserved cache capacity, in containers
	ExpectedChunks int // Bloom filter sizing
}

// DefaultIndexConfig sizes the index for roughly expectedLogicalBytes of
// total ingested data across all generations. The LPC and index page cache
// are deliberately small relative to the data (see DESIGN.md §5): the
// experiments reproduce a regime where RAM covers only a sliver of the chunk
// population.
func DefaultIndexConfig(cfg Config, expectedLogicalBytes int64) IndexConfig {
	expChunks := int(expectedLogicalBytes/int64(cfg.ChunkParams.Target)) + 1
	expContainers := int(expectedLogicalBytes/cfg.ContainerCfg.DataCap) + 1
	return IndexConfig{
		IndexCfg:       cindex.DefaultConfig(expChunks),
		LPCContainers:  max(expContainers/20, 4),
		ExpectedChunks: expChunks,
	}
}

// Indexed is the shell of the engines that resolve duplicates through a
// Resolver over a full chunk index (DDFS-Like and DeFrag): on top of Base it
// rebuilds that index on reopen, purges it for repair, and ingests
// concurrent streams.
type Indexed struct {
	*Base
}

// NewIndexed builds the shell of an indexed engine: Base, then the index on
// a device of its own over the same clock.
func NewIndexed(name string, cfg Config, icfg IndexConfig, rule Rule) (*Indexed, error) {
	b, err := NewBase(name, cfg, rule)
	if err != nil {
		return nil, err
	}
	index, err := cindex.New(disk.NewDevice(cfg.DiskModel, b.clock, false), icfg.IndexCfg)
	if err != nil {
		return nil, err
	}
	b.resolver = NewResolver(index, b.store, icfg.LPCContainers, icfg.ExpectedChunks)
	b.hints.copies = &storedCopies{ix: index, store: b.store}
	return &Indexed{b}, nil
}

// BackupStream implements StreamBackupper: one backup ingested as a
// concurrent stream, with all simulated I/O and CPU time charged to clk and
// its chunks written through a per-stream container writer.
func (x *Indexed) BackupStream(ctx context.Context, label string, r io.Reader, clk *disk.Clock) (*chunk.Recipe, BackupStats, error) {
	return x.backup(ctx, label, r, clk)
}

// Adopt implements Adopter: it rebuilds the directory, index, summary
// vector, and segment sequence from an already-populated backend (the
// durable-store reopen path).
func (x *Indexed) Adopt(ctx context.Context) error {
	if err := x.store.Adopt(ctx); err != nil {
		return err
	}
	x.segSeq.Store(x.resolver.AdoptIndex())
	return nil
}

// DropFromIndex purges all index and cache state derived from container cid
// (fsck.IndexDropper) — call immediately before quarantining it.
func (x *Indexed) DropFromIndex(cid uint32) int { return x.resolver.DropFromIndex(cid) }

// Index exposes the chunk index (tests, diagnostics).
func (x *Indexed) Index() *cindex.Index { return x.resolver.Index() }

var (
	_ Engine          = (*Base)(nil)
	_ StreamBackupper = (*Indexed)(nil)
	_ Adopter         = (*Indexed)(nil)
)
