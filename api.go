// Package repro is a reproduction of Tan, Yan, Feng & Sha, "Reducing The
// De-linearization of Data Placement to Improve Deduplication Performance"
// (SC 2012): the DeFrag selective-rewrite deduplicator, the DDFS-Like and
// SiLo-Like baselines it is evaluated against, two further baselines from
// the paper's related-work space (Sparse Indexing, iDedup), and the
// simulated storage substrate they all run on.
//
// The public API has three layers:
//
//   - Store (this file): open a deduplicating store with one of the five
//     engines, back up streams, restore them, compact, check, export, and
//     read storage statistics.
//   - BackupStats / RestoreStats (stats.go): the per-operation measurements,
//     including the paper's three headline metrics.
//   - Experiments (experiments.go): runners that regenerate every figure of
//     the paper's evaluation section as a table.
//
// All performance numbers are simulated-disk time (see internal/disk); the
// data path is real — with Options.StoreData, chunk bytes round-trip through
// the store bit-exactly.
package repro

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/engine/ddfs"
	"repro/internal/engine/idedup"
	"repro/internal/engine/silo"
	"repro/internal/engine/sparse"
	"repro/internal/fsck"
	"repro/internal/maintenance"
	"repro/internal/restore"
	"repro/internal/telemetry"
)

// Store-level telemetry: one span per public operation (wall plus
// simulated-clock duration) and operation counters. The per-phase and
// per-subsystem instruments live in the internal packages; see the metric
// catalog in README.md ("Observability").
var (
	telBackups = telemetry.NewCounter(telemetry.Name("store_operations_total", "op", "backup"),
		"public Store operations, by kind")
	telRestores = telemetry.NewCounter(telemetry.Name("store_operations_total", "op", "restore"), "")
	telCompacts = telemetry.NewCounter(telemetry.Name("store_operations_total", "op", "compact"), "")
)

// EngineKind selects a deduplication engine.
type EngineKind int

const (
	// DeFrag is the paper's contribution: DDFS-style exact dedup plus
	// SPL-driven selective rewriting of fragmenting duplicates.
	DeFrag EngineKind = iota
	// DDFSLike is the Zhu et al. FAST'08 baseline (summary vector +
	// stream-informed layout + locality-preserved caching).
	DDFSLike
	// SiLoLike is the Xia et al. ATC'11 baseline (similarity + locality,
	// near-exact, no full index).
	SiLoLike
	// SparseIndex is the Lillibridge et al. FAST'09 scheme the paper names
	// alongside DDFS (§II-B): hook sampling + champion manifests,
	// near-exact, no full index. Provided as an additional baseline beyond
	// the paper's own comparison set.
	SparseIndex
	// IDedup is an iDedup-style engine (Srinivasan et al. FAST'12, the
	// paper's citation [3]): selective inline dedup that removes only
	// duplicate runs of at least eight physically contiguous chunks,
	// bounding restore fragmentation by construction.
	IDedup
)

// String returns the engine's name as used throughout the paper tables.
func (k EngineKind) String() string {
	switch k {
	case DeFrag:
		return "defrag"
	case DDFSLike:
		return "ddfs-like"
	case SiLoLike:
		return "silo-like"
	case SparseIndex:
		return "sparse-index"
	case IDedup:
		return "idedup"
	}
	return "unknown"
}

// ParseEngineKind converts a name ("defrag", "ddfs-like"/"ddfs",
// "silo-like"/"silo", "sparse-index"/"sparse") to an EngineKind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "defrag":
		return DeFrag, nil
	case "ddfs", "ddfs-like":
		return DDFSLike, nil
	case "silo", "silo-like":
		return SiLoLike, nil
	case "sparse", "sparse-index":
		return SparseIndex, nil
	case "idedup":
		return IDedup, nil
	}
	return 0, fmt.Errorf("repro: unknown engine %q", s)
}

// BackendKind selects the physical storage backend behind the container
// store (see internal/blockstore): where sealed-container bytes live and
// what durability they have. The timing model is unaffected — every backend
// charges identical simulated-disk time.
type BackendKind int

const (
	// SimBackend keeps sealed containers in memory (the historical
	// behavior): fast, volatile, bit-identical statistics.
	SimBackend BackendKind = iota
	// FileBackend is the durable directory store: one data file per sealed
	// container and the container table in one append-only record log, and
	// beside them the retained backups in the catalog log (internal/catalog),
	// in the same record format. A Store opened over it
	// survives Close and re-Open with containers, index, and backups intact.
	// Store.Export writes the same directory from any store.
	FileBackend
)

func (k BackendKind) String() string {
	if k == FileBackend {
		return "file"
	}
	return "sim"
}

// ParseBackendKind converts "sim" or "file" to a BackendKind.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "sim":
		return SimBackend, nil
	case "file":
		return FileBackend, nil
	}
	return 0, fmt.Errorf("repro: unknown backend %q", s)
}

// Options configures a Store.
type Options struct {
	// Engine selects the deduplication approach (default DeFrag).
	Engine EngineKind
	// Alpha is DeFrag's SPL threshold; ignored by other engines.
	// 0 disables rewriting; the paper evaluates 0.1 (the default used when
	// Alpha is negative is 0.1; an explicit 0 is honoured).
	Alpha float64
	// ExpectedBytes sizes caches, Bloom filter and index for the total
	// data the store will ingest across all backups. Default 1 GiB.
	ExpectedBytes int64
	// StoreData keeps real chunk bytes on the simulated device so restores
	// return (and can verify) actual content. Costs RAM proportional to
	// the deduplicated size; leave false for large timing experiments.
	StoreData bool
	// TrackEfficiency attaches the exact ground-truth oracle so
	// BackupStats.Efficiency is populated.
	TrackEfficiency bool
	// Backend selects where sealed containers physically live: SimBackend
	// (default, in-memory) or FileBackend (durable directory store).
	Backend BackendKind
	// Dir is the FileBackend root directory (required for FileBackend;
	// ignored otherwise). Opening over a non-empty directory reopens the
	// existing store: containers are adopted, the engine's index is
	// rebuilt, and previously recorded backups are reloaded.
	Dir string
	// WrapBackend, when set, wraps the constructed physical backend before
	// the engine sees it. Tests and tooling use it to count or intercept
	// physical operations (blockstore.NewCounting) or to make a disk's faults.
	WrapBackend func(blockstore.Backend) blockstore.Backend
	// Maintenance configures the online maintenance layer (reverse-
	// rewriting re-dedup and crash-safe container merging); see
	// MaintenanceOptions. The zero value leaves the layer off (manual
	// MaintenanceEpoch calls still work on indexed engines).
	Maintenance MaintenanceOptions
	// Filter configures the HPDedup-style prioritized inline filter on the
	// DeFrag engine (ignored by the others): streams whose duplicates do
	// not cluster are demoted to write-through ingest and re-deduplicated
	// out of line by the maintenance pass. Zero value = off.
	Filter FilterOptions

	// tune is the experiment harness's per-figure sizing (see newEngine).
	tune engineTuning
	fs   blockstore.FS // under Dir: blockstore.OS, or a test's that records crash states
	// hashHinted hashes every hinted chunk on SimBackend too, as on
	// FileBackend, where it is otherwise compared with its stored copy.
	hashHinted bool
}

// engineTuning sizes an engine for one figure of the paper's evaluation
// beyond what ExpectedBytes derives. Zero fields keep the engine's defaults.
type engineTuning struct {
	lpc        int                // locality-preserved cache in containers (DDFS-Like, DeFrag)
	blockCache int                // block-metadata cache in blocks (SiLo-Like)
	defrag     func(*core.Config) // an ablation's edits to DeFrag's config, applied last
}

// FilterOptions is the public surface of engine.FilterConfig; see that type
// for the decision model. Zero thresholds take the engine defaults.
type FilterOptions struct {
	// Enabled turns the prioritized inline filter on (DeFrag only).
	Enabled bool
	// Probation is the chunks observed per stream before the verdict.
	Probation int
	// MinDupFraction spills streams with fewer duplicates than this share.
	MinDupFraction float64
	// MinClusterScore spills streams whose duplicate locality is below this.
	MinClusterScore float64
	// RecencyContainers is how far behind the write head (in containers) a
	// duplicate may resolve and still count as clustered.
	RecencyContainers int
}

func (o Options) withDefaults() Options {
	if o.ExpectedBytes <= 0 {
		o.ExpectedBytes = 1 << 30
	}
	if o.Alpha < 0 {
		o.Alpha = 0.1
	}
	if o.fs == nil {
		o.fs = blockstore.OS
	}
	return o
}

// Store is a deduplicating backup store over a simulated disk.
//
// Every ingest entry point is safe beside every other, beside concurrent
// restores and beside one maintenance operation. Backup and a serial
// BackupStreams round take turns on the master clock; the network service
// path goes through IngestStream (see session.go), whose lanes run side by
// side.
//
// Locks. The order is maintOpMu → maintMu → mu; ingestMu is independent of
// the maintenance locks (master-clock ingests take it under maintMu's read
// side and before mu).
//
//   - maintOpMu serializes whole maintenance operations — an epoch, a
//     Compact, a Repair — against each other, and guards maintPass.
//   - maintMu is the foreground gate: while a goroutine holds it for read,
//     no container leaves the store. Ingests, restores and Check hold it for
//     read for their whole run; a maintenance merge takes it for write only
//     for each batch's short revalidate-and-drop commit, Repair for its
//     whole run.
//   - mu guards the retained-backup bookkeeping (backups, logical, closed),
//     every append to the catalog log, and the cumulative maintenance
//     counters. Every change to the live table's counts is made under it,
//     with the change to the retained set that causes it.
//   - ingestMu serializes the ingests that run on the engine's master clock
//     through the store's one serial container writer: Backup, a serial
//     BackupStreams round, and IngestStream on an engine without lanes.
type Store struct {
	opts   Options
	eng    engine.Engine
	oracle *cindex.Oracle
	be     blockstore.Backend

	maintOpMu sync.Mutex
	maintPass *maintenance.Pass
	maintLoop *maintenance.Scheduler // set at Open, stopped by Close

	maintMu sync.RWMutex

	mu          sync.RWMutex
	backups     []*Backup
	logical     int64
	cat         *catalog.Log      // the durable form of backups; nil on SimBackend
	live        *maintenance.Live // the retained recipes' references, counted
	closed      bool
	maintTotal  maintenance.Stats // cumulative across epochs and Compact runs
	maintEpochs int

	ingestMu sync.Mutex
}

// Backup is one ingested stream: its recipe (needed to restore) plus the
// measured statistics. The recipe pointer is atomic: the maintenance pass
// installs remapped recipes copy-on-write while restores keep reading the
// snapshot they started with.
type Backup struct {
	Label string
	Stats BackupStats
	rec   atomic.Pointer[chunk.Recipe]
}

// newBackup builds a Backup around its recipe.
func newBackup(label string, stats BackupStats, rec *chunk.Recipe) *Backup {
	b := &Backup{Label: label, Stats: stats}
	b.rec.Store(rec)
	return b
}

// recipe returns the backup's current recipe snapshot.
func (b *Backup) recipe() *chunk.Recipe { return b.rec.Load() }

// Fragments returns the number of placement fragments of the backup —
// the N of the paper's Eq. 1.
func (b *Backup) Fragments() int { return b.recipe().Fragments() }

// Chunks returns the number of chunk references in the backup's recipe.
func (b *Backup) Chunks() int { return b.recipe().Len() }

// buildBackend constructs the physical backend selected by opts, under
// opts.WrapBackend if set. raw is the file backend beneath any wrapper, which
// open containers stage their fill to (container.Store.StageTo); nil on the
// sim backend.
func buildBackend(opts Options) (be blockstore.Backend, raw *blockstore.File, err error) {
	switch opts.Backend {
	case SimBackend:
		be = blockstore.NewSim(opts.StoreData)
	case FileBackend:
		if opts.Dir == "" {
			return nil, nil, fmt.Errorf("repro: FileBackend requires Options.Dir")
		}
		if err := refuseOldLayout(opts.fs, opts.Dir); err != nil {
			return nil, nil, err
		}
		// OpenFileOn sweeps the temp files a crash left in Dir — a catalog
		// checkpoint's among them — Dir/containers and Dir/quarantine.
		if raw, err = blockstore.OpenFileOn(opts.fs, opts.Dir, opts.StoreData); err != nil {
			return nil, nil, err
		}
		be = raw
	default:
		return nil, nil, fmt.Errorf("repro: unknown backend kind %d", opts.Backend)
	}
	if opts.WrapBackend != nil {
		be = opts.WrapBackend(be)
	}
	return be, raw, nil
}

// Open creates a store with the selected engine and backend. With
// FileBackend over a directory that already holds containers, Open reopens
// the store: the engine adopts the persisted containers (rebuilding its
// chunk index and segment sequence) and the recorded backups are reloaded,
// so restores and further dedup continue where the previous process left
// off. Only the engines that can do that (engine.Adopter: DeFrag and DDFSLike,
// which keep a full rebuildable index) open a FileBackend at all; the others
// run on SimBackend, and Export is their durable form.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Backend == FileBackend && opts.Engine != DeFrag && opts.Engine != DDFSLike {
		return nil, fmt.Errorf("repro: engine %s could never reopen a store directory (no index rebuild), so it is not given one: run it on SimBackend and Export the store, which DeFrag or DDFSLike opens", opts.Engine)
	}
	be, raw, err := buildBackend(opts)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, be: be}
	if s.eng, err = newEngine(opts, be); err != nil {
		be.Close() //nolint:errcheck // surfacing the construction error
		return nil, err
	}
	if opts.TrackEfficiency {
		s.oracle = cindex.NewOracle()
		s.eng.SetOracle(s.oracle)
	}
	s.eng.Containers().StageTo(raw)
	if opts.Backend == SimBackend && !opts.hashHinted {
		// Sealed sections are in memory whatever wraps the backend: a hinted
		// chunk is compared with its stored copy instead of hashed.
		s.eng.Containers().LendFromMemory()
	}
	s.live = maintenance.NewLive(s.eng.Containers())
	if err := s.adoptExisting(context.Background()); err != nil {
		be.Close() //nolint:errcheck // surfacing the adoption error
		return nil, err
	}
	if opts.Maintenance.Enabled {
		if err := s.initMaintenance(); err != nil {
			s.Close() //nolint:errcheck // surfacing the construction error
			return nil, err
		}
	}
	return s, nil
}

// newEngine builds the engine opts selects over be: the one place an engine
// is constructed, for Open and so for every figure the harness draws.
// opts.tune carries the figures' sizing; its zero value keeps each engine's
// defaults for opts.ExpectedBytes.
func newEngine(opts Options, be blockstore.Backend) (engine.Engine, error) {
	tune := opts.tune
	switch opts.Engine {
	case DeFrag:
		cfg := core.DefaultConfig(opts.ExpectedBytes)
		cfg.Alpha = opts.Alpha
		cfg.StoreData = opts.StoreData
		cfg.Backend = be
		cfg.Filter = engine.FilterConfig{
			Enabled:           opts.Filter.Enabled,
			Probation:         opts.Filter.Probation,
			MinDupFraction:    opts.Filter.MinDupFraction,
			MinClusterScore:   opts.Filter.MinClusterScore,
			RecencyContainers: opts.Filter.RecencyContainers,
		}
		cfg.LPCContainers = cmp.Or(tune.lpc, cfg.LPCContainers)
		if tune.defrag != nil {
			tune.defrag(&cfg)
		}
		return core.New(cfg)
	case DDFSLike:
		cfg := ddfs.DefaultConfig(opts.ExpectedBytes)
		cfg.StoreData = opts.StoreData
		cfg.Backend = be
		cfg.LPCContainers = cmp.Or(tune.lpc, cfg.LPCContainers)
		return ddfs.New(cfg)
	case SiLoLike:
		cfg := silo.DefaultConfig(opts.ExpectedBytes)
		cfg.StoreData = opts.StoreData
		cfg.Backend = be
		cfg.BlockCache = cmp.Or(tune.blockCache, cfg.BlockCache)
		return silo.New(cfg)
	case SparseIndex:
		cfg := sparse.DefaultConfig(opts.ExpectedBytes)
		cfg.StoreData = opts.StoreData
		cfg.Backend = be
		return sparse.New(cfg)
	case IDedup:
		cfg := idedup.DefaultConfig(opts.ExpectedBytes)
		cfg.StoreData = opts.StoreData
		cfg.Backend = be
		return idedup.New(cfg)
	}
	return nil, fmt.Errorf("repro: unknown engine kind %d", opts.Engine)
}

// adoptExisting replays a durable store directory into the fresh engine: the
// engine adopts the containers the backend lists, and the catalog log is
// replayed into the retained set whatever that list holds — a store whose
// backups were all empty streams has backups and no container.
func (s *Store) adoptExisting(ctx context.Context) error {
	if s.opts.Backend != FileBackend {
		return nil
	}
	infos, err := s.be.List(ctx)
	if err != nil {
		return err
	}
	if len(infos) > 0 {
		// Open let only adopting engines near a directory.
		if err := s.eng.(engine.Adopter).Adopt(ctx); err != nil {
			return fmt.Errorf("repro: adopting existing store: %w", err)
		}
	}
	log, entries, err := catalog.OpenOn(s.opts.fs, filepath.Join(s.opts.Dir, catalog.FileName))
	if err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	for _, e := range entries {
		var st BackupStats
		if err := json.Unmarshal(e.Stats, &st); err != nil {
			log.Close() //nolint:errcheck // surfacing the decode error
			return fmt.Errorf("repro: catalog: statistics of backup %q: %w", e.Label, err)
		}
		s.backups = append(s.backups, newBackup(e.Label, st, e.Recipe))
		s.logical += st.LogicalBytes
		s.live.Add(e.Recipe)
	}
	s.cat = log
	return nil
}

// Engine returns the engine's name.
func (s *Store) Engine() string { return s.eng.Name() }

// BackendName returns the active backend's name ("sim" or "file", or
// whatever name an Options.WrapBackend wrapper gives itself).
func (s *Store) BackendName() string { return s.be.Name() }

// Close waits for the container seals in flight and releases the durable
// backend and the catalog, checkpointing either log if its rule says so. The
// Store must not be used afterwards. Close is a no-op on the second call and
// for the in-memory backend is equivalent to dropping the Store.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Stop the maintenance scheduler first: an epoch in flight is cancelled
	// and drained, so nothing races the backend close below. (Cannot hold
	// s.mu here — the epoch itself needs it to commit.)
	if s.maintLoop != nil {
		s.maintLoop.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Settle any container persists still draining in the background so the
	// backend close sees the final state.
	s.eng.Containers().WaitSeals()
	// Every acknowledged catalog record is already durable; what is left is
	// to not hand the next open more log than the rule allows.
	err := s.checkpointIfDue()
	if s.cat != nil {
		if cerr := s.cat.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.be.Close(); err == nil {
		err = cerr
	}
	return err
}

// refuseOldLayout refuses a store directory from before the catalog log:
// backups.json (with recipes/ beside it) and no catalog.log. Opening it as a
// store with no backups would let the next maintenance epoch reclaim theirs.
func refuseOldLayout(fsys blockstore.FS, dir string) error {
	if _, err := fsys.Stat(filepath.Join(dir, "backups.json")); err != nil {
		return nil
	}
	if _, err := fsys.Stat(filepath.Join(dir, catalog.FileName)); !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return fmt.Errorf("repro: %s holds backups.json and no %s: it was written before the catalog log and this version does not read it; Export it with the version that wrote it", dir, catalog.FileName)
}

// catalogEntry is b as the catalog log holds it: Stats ride as their JSON.
func catalogEntry(b *Backup) (catalog.Entry, error) {
	stats, err := json.Marshal(b.Stats)
	return catalog.Entry{Label: b.Label, Stats: stats, Recipe: b.recipe()}, err
}

func catalogEntries(backups []*Backup) ([]catalog.Entry, error) {
	entries := make([]catalog.Entry, len(backups))
	for i, b := range backups {
		var err error
		if entries[i], err = catalogEntry(b); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// checkpointIfDue rewrites the catalog log, where there is one, as the
// retained set once it has outgrown its rule (see
// catalog.Log.NeedsCheckpoint); called where garbage is made. Caller holds
// s.mu.
func (s *Store) checkpointIfDue() error {
	if s.cat == nil || !s.cat.NeedsCheckpoint() {
		return nil
	}
	entries, err := catalogEntries(s.backups)
	if err != nil {
		return err
	}
	return s.cat.Checkpoint(entries)
}

// checkpointAfter is checkpointIfDue for an operation whose own record is
// already durable: a checkpoint that fails leaves the log as it was, longer
// than it should be and no less right, so the operation stands.
func (s *Store) checkpointAfter(op string) {
	if err := s.checkpointIfDue(); err != nil {
		telemetry.Logger().Warn("repro: catalog checkpoint failed; the log stays as it is", "after", op, "err", err)
	}
}

// Backup ingests one full-backup stream under label and returns the
// recorded backup. Cancelling ctx aborts the backup between segments; the
// store stays consistent (sealed containers stay sealed, the index
// flushes), the aborted backup is simply absent. On durable backends the
// backup's catalog record is durable before Backup returns; if it cannot be
// made so, the backup is not retained and the error says why. A label that a
// retained backup already has is refused (ErrLabelRetained).
//
// Backup is safe for concurrent use, beside every other ingest, restores and
// maintenance. It runs on the engine's master clock through the store's one
// serial container writer, so master-clock ingests (Backup, a serial
// BackupStreams round, IngestStream on an engine without lanes) take turns,
// one whole backup at a time; IngestStream lanes run beside them.
func (s *Store) Backup(ctx context.Context, label string, r io.Reader) (*Backup, error) {
	return s.ingest(ctx, "store.backup", label, r, false)
}

// ErrLabelRetained refuses a backup under a label a retained backup already
// has: a label names one backup, in the store and in its catalog alike.
var ErrLabelRetained = errors.New("a retained backup has this label")

func labelRetained(label string) error {
	return fmt.Errorf("repro: backup %q: %w", label, ErrLabelRetained)
}

// commitBackup makes b durable as one catalog record, on durable backends,
// and then records it in the retained set: a backup that is retained is one
// a reopen will find. A label already retained is refused here, whatever was
// checked before the ingest. A stream that ran on its own lane
// (IngestStream) passes it, and the master clock advances to the lane's
// finish time if that is ahead. All of it is one step under the store lock,
// so concurrent lanes cannot interleave half-committed state.
func (s *Store) commitBackup(b *Backup, lane *disk.Clock) (*Backup, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.indexOf(b.Label) >= 0 {
		return nil, labelRetained(b.Label)
	}
	if lane != nil {
		if d := lane.Now() - s.eng.Clock().Now(); d > 0 {
			s.eng.Clock().Advance(d)
		}
	}
	if s.cat != nil {
		e, err := catalogEntry(b)
		if err == nil {
			err = s.cat.Commit(e)
		}
		if err != nil {
			return nil, fmt.Errorf("repro: persisting backup %q: %w", b.Label, err)
		}
	}
	s.backups = append(s.backups, b)
	s.logical += b.Stats.LogicalBytes
	s.live.Add(b.recipe())
	return b, nil
}

// StreamInput is one labeled backup stream for BackupStreams.
type StreamInput struct {
	Label  string
	Stream io.Reader
}

// BackupStreams ingests several backup streams with at most concurrency
// backups in flight at once, returning the per-stream backups (in input
// order) plus merged statistics for the whole round.
//
// concurrency <= 1 is bit-identical to calling Backup on each input in
// order. With concurrency > 1, engines whose ingest path supports
// concurrent streams (DeFrag, DDFS-Like) run up to that many backups in
// parallel over the shared index, Bloom filter and container store; each
// stream pays its simulated costs on its own clock, and the merged
// Duration is the slowest lane of the round, not the sum. Engines without
// concurrent ingest fall back to the serial loop. A stream whose label is
// retained by the time it commits — before the round, or by a stream of the
// round that committed first — is not retained, and err says so.
//
// BackupStreams is safe beside other ingests, restores and maintenance. A
// round that takes the serial loop runs on the master clock and so, like
// Backup, waits for and holds off every other master-clock ingest; a round
// of lanes runs beside them.
func (s *Store) BackupStreams(ctx context.Context, inputs []StreamInput, concurrency int) ([]*Backup, BackupStats, error) {
	ctx, span := telemetry.StartSpan(ctx, "store.backup_streams")
	defer span.End()
	s.maintMu.RLock()
	defer s.maintMu.RUnlock()
	pins := s.eng.Containers().NewPins()
	defer pins.Release()
	ctx = container.WithPins(ctx, pins)
	if engine.RunsSerially(s.eng, len(inputs), concurrency) {
		s.ingestMu.Lock()
		defer s.ingestMu.Unlock()
	}
	streams := make([]engine.Stream, len(inputs))
	for i, in := range inputs {
		streams[i] = engine.Stream{Label: in.Label, R: in.Stream}
	}
	results, merged, err := engine.RunStreams(ctx, s.eng, streams, concurrency)
	span.SetSim(merged.Duration)
	backups := make([]*Backup, 0, len(results))
	for i := range results {
		if results[i].Err != nil || results[i].Recipe == nil {
			continue
		}
		telBackups.Inc()
		b, perr := s.commitBackup(newBackup(inputs[i].Label, fromEngineStats(results[i].Stats), results[i].Recipe), nil)
		if perr != nil {
			if err == nil {
				err = perr
			}
			continue
		}
		backups = append(backups, b)
	}
	return backups, fromEngineStats(merged), err
}

// Backups returns all backups ingested so far, in order. The returned
// slice is a snapshot; concurrent ingests do not mutate it.
func (s *Store) Backups() []*Backup {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Backup, len(s.backups))
	copy(out, s.backups)
	return out
}

// FindBackup returns the retained backup with the given label, or nil.
func (s *Store) FindBackup(label string) *Backup {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i := s.indexOf(label); i >= 0 {
		return s.backups[i]
	}
	return nil
}

// indexOf returns the position of the first retained backup labelled label —
// the one a label means, here and in the catalog log — or -1. Caller holds
// s.mu.
func (s *Store) indexOf(label string) int {
	return slices.IndexFunc(s.backups, func(b *Backup) bool { return b.Label == label })
}

// Forget drops a backup from the retained set. Its chunks stay on disk
// until a later Compact or maintenance merge finds them unreferenced
// (dedup stores cannot free shared chunks eagerly — that is what
// retention-aware garbage collection is for). The result reports whether
// the label existed and how much physical garbage the store now carries,
// read off the live table's counts, so callers can decide whether a
// compaction pass is worth scheduling. On
// durable backends the forget is a catalog record, durable before the backup
// leaves the retained set; if it cannot be made so, the backup stays retained
// and the result's Error says why.
func (s *Store) Forget(label string) ForgetResult {
	var res ForgetResult
	s.mu.Lock()
	if i := s.indexOf(label); i >= 0 {
		res.Found = true
		if err := s.forgetLocked(i); err != nil {
			res.Error = err.Error()
		} else {
			s.checkpointAfter("forget")
		}
	}
	s.mu.Unlock()
	res.StoredBytes, res.DeadBytes = s.deadScan()
	if res.StoredBytes > 0 {
		res.DeadFraction = float64(res.DeadBytes) / float64(res.StoredBytes)
		res.CompactRecommended = res.DeadFraction >= compactRecommendThreshold
	}
	return res
}

// forgetLocked drops s.backups[i], which must be the first retained backup
// with its label: from the catalog first, so a backup that has left the
// retained set is one a reopen will not bring back. Caller holds s.mu.
func (s *Store) forgetLocked(i int) error {
	b := s.backups[i]
	if s.cat != nil {
		if err := s.cat.Forget(b.Label); err != nil {
			return err
		}
	}
	s.backups = append(s.backups[:i:i], s.backups[i+1:]...)
	s.logical -= b.Stats.LogicalBytes
	s.live.Sub(b.recipe())
	return nil
}

// RestorePolicy selects the schedule a restore follows: a container cache
// with LRU or OPT eviction, or forward assembly.
type RestorePolicy int

const (
	// RestoreLRU is the classic recency cache — what the paper's figures are
	// measured with, and what a zero RestoreOptions selects.
	RestoreLRU = RestorePolicy(restore.PolicyLRU)
	// RestoreOPT is Belady's offline-optimal eviction, computable online
	// here because the full recipe is known before the restore starts. It is
	// the default (DefaultRestoreOptions): never more container reads than
	// LRU at the same capacity, and on fragmented recipes about a quarter
	// fewer.
	RestoreOPT = RestorePolicy(restore.PolicyOPT)
	// RestoreFAA is forward assembly: the stream is rebuilt in windows of
	// CacheContainers containers' worth of bytes, and within one window
	// every container is read exactly once, however badly fragmentation
	// interleaves the recipe.
	RestoreFAA = RestorePolicy(restore.PolicyFAA)
)

func (p RestorePolicy) String() string { return restore.CachePolicy(p).String() }

// ParseRestorePolicy converts "lru", "opt" or "faa" to a RestorePolicy.
func ParseRestorePolicy(s string) (RestorePolicy, error) {
	for _, p := range []RestorePolicy{RestoreLRU, RestoreOPT, RestoreFAA} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown restore policy %q (want lru, opt or faa)", s)
}

// ParseRestoreMode returns DefaultRestoreOptions in the shape a restore mode
// names: "" keeps the default (OPT eviction), "lru", "opt" and "faa" select
// that policy, and "pipelined" is OPT with coalesced reads. It is the one
// reading of dedupsim's -restore.mode and dedupd's ?mode=.
func ParseRestoreMode(mode string) (RestoreOptions, error) {
	opts := DefaultRestoreOptions()
	switch mode {
	case "":
	case "pipelined":
		opts.Coalesce = true
	default:
		p, err := ParseRestorePolicy(mode)
		if err != nil {
			return opts, err
		}
		opts.Policy = p
	}
	return opts, nil
}

// RestoreOptions parameterizes Store.RestoreWith.
type RestoreOptions struct {
	// CacheContainers is the restore cache capacity in containers
	// (default 8, the restore package default); under RestoreFAA, the size
	// of the assembly window in containers.
	CacheContainers int
	// Policy selects LRU (the zero value), OPT eviction (what
	// DefaultRestoreOptions sets) or forward assembly.
	Policy RestorePolicy
	// Coalesce merges reads of disk-adjacent containers into single
	// sequential extents (one seek for k containers).
	Coalesce bool
	// Verify recomputes chunk fingerprints; requires Options.StoreData.
	Verify bool
}

// DefaultRestoreOptions returns the default restore shape: an 8-container
// cache evicted with the recipe's forward knowledge (RestoreOPT),
// uncoalesced — the timing model of a serial reader who has read the recipe
// first. Set Policy to RestoreLRU for the recency cache of the paper's
// figures.
func DefaultRestoreOptions() RestoreOptions {
	return RestoreOptions{CacheContainers: restore.DefaultConfig().CacheContainers, Policy: RestoreOPT}
}

// Restore reconstructs backup b, writing the stream to w (nil w measures
// without materializing). verify recomputes chunk fingerprints and requires
// Options.StoreData. It runs the default shape (DefaultRestoreOptions: OPT
// cache); use RestoreWith for the other shapes.
func (s *Store) Restore(ctx context.Context, b *Backup, w io.Writer, verify bool) (RestoreStats, error) {
	opts := DefaultRestoreOptions()
	opts.Verify = verify
	return s.RestoreWith(ctx, b, w, opts)
}

// RestoreWith reconstructs backup b under explicit restore options. Every
// shape is a schedule for the one restore engine (restore.RunPipelined),
// which verifies and writes on a pool of GOMAXPROCS goroutines; restored
// bytes and every statistic are the same at any pool size.
//
// On the file backend each section the restore fetches is its data file
// mapped read-only, from its fetch until its last chunk is written; none is
// mapped once the call returns. A file cut short under a restore that has it
// mapped ends the restore with blockstore.ErrCorrupt naming the container.
func (s *Store) RestoreWith(ctx context.Context, b *Backup, w io.Writer, opts RestoreOptions) (RestoreStats, error) {
	ctx, span := telemetry.StartSpan(ctx, "store.restore")
	defer span.End()
	telRestores.Inc()
	s.maintMu.RLock()
	defer s.maintMu.RUnlock()
	if opts.CacheContainers <= 0 {
		opts.CacheContainers = restore.DefaultConfig().CacheContainers
	}
	st, err := restore.RunPipelined(ctx, s.eng.Containers(), b.recipe(), restore.PipelineConfig{
		CacheContainers: opts.CacheContainers,
		Policy:          restore.CachePolicy(opts.Policy),
		Coalesce:        opts.Coalesce,
		Verify:          opts.Verify,
	}, w)
	if err != nil {
		return RestoreStats{}, err
	}
	span.SetSim(st.Duration)
	return RestoreStats(st), nil
}

// SimulatedTime returns total simulated time consumed by the store so far.
func (s *Store) SimulatedTime() time.Duration { return s.eng.Clock().Now() }

// StoreStats summarizes storage consumption.
type StoreStats struct {
	LogicalBytes     int64   // bytes ingested across all backups
	StoredBytes      int64   // physical chunk-data bytes after dedup
	Containers       int     // sealed containers
	Utilization      float64 // share of stored bytes no newer copy superseded (rewrites); what only forgotten backups held still counts: see MaintenanceReport.DeadFraction
	CompressionRatio float64 // logical / stored
	SpilledBytes     int64   // filter write-through bytes across retained backups
	SpilledStreams   int     // retained backups the inline filter demoted to spill
}

// CompactStats summarizes one garbage-collection pass (see Compact).
type CompactStats struct {
	ContainersScanned   int   // sealed containers when the pass started
	ContainersCollected int   // containers merged away and dropped
	ChunksMoved         int64 // live chunks copied into fresh containers
	BytesMoved          int64
	BytesReclaimed      int64 // data bytes of the dropped containers
	RecipeRefsPatched   int64
}

// Compact garbage-collects containers whose live-data fraction is below
// threshold. A copy is live while a retained recipe references it (the live
// table's count is above zero): superseded copies (DeFrag rewrites) and the
// copies only forgotten backups referenced are dropped, with the index
// entries that name them. Live chunks move to fresh containers, the index is
// repointed, every recipe remapped.
// Engines without an exposed chunk index (SiLo-Like) do not support
// compaction.
//
// Compact is the maintenance merge (internal/maintenance) run to a
// caller-chosen threshold: it works through the victims a bounded batch at a
// time, safe under live ingest and restore traffic — only each batch's drop
// commit briefly excludes foreground streams — and every drop goes through
// the crash-safe merge intent. Cancelling ctx stops it at the next batch
// boundary with the batches done so far committed; their statistics are
// returned with the context's error.
//
// This is an extension beyond the paper (its future-work cleanup path);
// the I/O it performs is charged to the simulated clock as a maintenance
// lane.
func (s *Store) Compact(ctx context.Context, threshold float64) (CompactStats, error) {
	ctx, span := telemetry.StartSpan(ctx, "store.compact")
	defer span.End()
	telCompacts.Inc()
	scanned := s.eng.Containers().NumContainers()
	st, err := s.runMaintenance(ctx, func(p *maintenance.Pass, ctx context.Context) (maintenance.Stats, error) {
		return p.Compact(ctx, threshold)
	})
	return CompactStats{
		ContainersScanned:   scanned,
		ContainersCollected: st.ContainersMerged,
		ChunksMoved:         st.ChunksMoved,
		BytesMoved:          st.BytesMoved,
		BytesReclaimed:      st.BytesReclaimed,
		RecipeRefsPatched:   st.RefsPatched,
	}, err
}

// CheckReport summarizes a store consistency check (see Check).
type CheckReport struct {
	Containers   int
	MetaEntries  int64
	IndexEntries int
	RecipeRefs   int64
	HashedChunks int64
	Problems     []string
}

// OK reports whether the check found no problems.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// Check validates the store's internal consistency: container metadata
// well-formedness, index entries (for engines that keep a full index),
// every backup's recipe references, and the live table, whose counted bytes
// per container must equal a walk of the retained recipes. verifyData
// additionally re-hashes all referenced chunk content and requires
// Options.StoreData. Check charges no simulated time.
func (s *Store) Check(ctx context.Context, verifyData bool) (CheckReport, error) {
	s.maintMu.RLock()
	defer s.maintMu.RUnlock()
	var index *cindex.Index
	if eng, ok := s.eng.(interface{ Index() *cindex.Index }); ok {
		index = eng.Index()
	}
	s.mu.RLock()
	recipes := s.recipesLocked()
	counted := s.live.PerContainer()
	s.mu.RUnlock()
	rep, err := fsck.Check(ctx, s.eng.Containers(), index, recipes, verifyData)
	if err != nil {
		return CheckReport{}, err
	}
	rep.Problems = append(rep.Problems, maintenance.CountProblems(s.eng.Containers(), counted, recipes)...)
	return CheckReport{
		Containers:   rep.Containers,
		MetaEntries:  rep.MetaEntries,
		IndexEntries: rep.IndexEntries,
		RecipeRefs:   rep.RecipeRefs,
		HashedChunks: rep.HashedChunks,
		Problems:     rep.Problems,
	}, nil
}

// RepairReport summarizes a Repair pass.
type RepairReport struct {
	// Quarantined lists the containers removed from the store, ascending.
	Quarantined []uint32
	// Reasons maps each quarantined container to why it was condemned.
	Reasons map[uint32]string
	// IndexDropped counts chunk-index entries purged with the containers.
	IndexDropped int
	// LostBackups lists the labels of backups that referenced a
	// quarantined container; they are dropped from the retained set (they
	// can no longer restore in full).
	LostBackups []string
}

// Repair scans the store for containers violating invariants — malformed
// metadata, and with verifyData also torn or unreadable data sections and
// content-hash mismatches — and quarantines them: the durable file backend
// moves their files into quarantine/ with a reason note, the engine's index
// forgets their fingerprints so future backups re-store that data, and
// backups that referenced them are dropped from the retained set, each as
// Forget drops one, and reported. After a successful Repair, Check is clean.
func (s *Store) Repair(ctx context.Context, verifyData bool) (RepairReport, error) {
	s.maintOpMu.Lock()
	defer s.maintOpMu.Unlock()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	var drop fsck.IndexDropper
	if d, ok := s.eng.(fsck.IndexDropper); ok {
		drop = d
	}
	res, err := fsck.Repair(ctx, s.eng.Containers(), drop, s.snapshotRecipes(), verifyData)
	if res == nil {
		return RepairReport{}, err
	}
	rep := RepairReport{
		Quarantined:  res.Quarantined,
		Reasons:      res.Reasons,
		IndexDropped: res.IndexDropped,
		LostBackups:  res.LostBackups,
	}
	if len(res.LostBackups) > 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		lost := make(map[string]bool, len(res.LostBackups))
		for _, l := range res.LostBackups {
			lost[l] = true
		}
		for i := 0; i < len(s.backups); {
			if !lost[s.backups[i].Label] {
				i++
				continue
			}
			if ferr := s.forgetLocked(i); ferr != nil {
				return rep, errors.Join(err, fmt.Errorf("repro: repair: dropping lost backup %q: %w", s.backups[i].Label, ferr))
			}
		}
		s.checkpointAfter("repair")
	}
	s.live.Drop(res.Quarantined)
	return rep, err
}

// snapshotRecipes copies the retained backups' recipes under the lock.
func (s *Store) snapshotRecipes() []*chunk.Recipe {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recipesLocked()
}

// recipesLocked copies the retained backups' recipes. Caller holds s.mu.
func (s *Store) recipesLocked() []*chunk.Recipe {
	recipes := make([]*chunk.Recipe, len(s.backups))
	for i, b := range s.backups {
		recipes[i] = b.recipe()
	}
	return recipes
}

// Stats returns current storage statistics.
func (s *Store) Stats() StoreStats {
	stored := s.eng.Containers().StoredBytes()
	s.mu.RLock()
	logical := s.logical
	var spilledBytes int64
	var spilledStreams int
	for _, b := range s.backups {
		spilledBytes += b.Stats.SpilledBytes
		if b.Stats.FilterSpilled {
			spilledStreams++
		}
	}
	s.mu.RUnlock()
	cr := 0.0
	if stored > 0 {
		cr = float64(logical) / float64(stored)
	}
	return StoreStats{
		LogicalBytes:     logical,
		StoredBytes:      stored,
		Containers:       s.eng.Containers().NumContainers(),
		Utilization:      s.eng.Containers().Utilization(),
		CompressionRatio: cr,
		SpilledBytes:     spilledBytes,
		SpilledStreams:   spilledStreams,
	}
}
