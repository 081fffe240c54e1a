package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/maintenance"
)

// MaintenanceOptions configures the store's online maintenance layer (see
// internal/maintenance): the background reverse-rewriting re-dedup pass and
// crash-safe container merging that run under live traffic.
type MaintenanceOptions struct {
	// Enabled starts the layer with the store. When false, maintenance
	// epochs can still be run manually through MaintenanceEpoch.
	Enabled bool
	// Interval is the wall-clock period of the background scheduler.
	// 0 disables the timer: epochs run only on demand (MaintenanceEpoch,
	// POST /v1/maintenance).
	Interval time.Duration
	// UtilThreshold is the live fraction below which a sealed container is
	// merged away (and reverse-remapped from). Default 0.5.
	UtilThreshold float64
	// FillThreshold marks under-filled containers (stream tails) as
	// reverse-remap candidates. Default 0.5.
	FillThreshold float64
	// SparseThreshold merges containers the latest backup references for
	// less than this fraction of their data. Default 0.25.
	SparseThreshold float64
	// MaxBatch bounds the containers merged per epoch. Default 8.
	MaxBatch int
	// ThrottleMBps paces maintenance data movement (wall clock). 0 = off.
	ThrottleMBps float64
}

// MaintenanceStats mirrors one epoch's (or the cumulative) maintenance
// counters for the public API and the stats endpoint.
type MaintenanceStats struct {
	RecipesScanned   int     `json:"recipesScanned"`
	RefsRemapped     int64   `json:"refsRemapped"`
	RefsRededuped    int64   `json:"refsRededuped"`
	ContainersMerged int     `json:"containersMerged"`
	ChunksMoved      int64   `json:"chunksMoved"`
	BytesMoved       int64   `json:"bytesMoved"`
	BytesReclaimed   int64   `json:"bytesReclaimed"`
	RefsPatched      int64   `json:"refsPatched"`
	VictimsSkipped   int     `json:"victimsSkipped"`
	SimSeconds       float64 `json:"simSeconds"`
}

func fromMaintStats(st maintenance.Stats) MaintenanceStats {
	return MaintenanceStats{
		RecipesScanned:   st.RecipesScanned,
		RefsRemapped:     st.RefsRemapped,
		RefsRededuped:    st.RefsRededuped,
		ContainersMerged: st.ContainersMerged,
		ChunksMoved:      st.ChunksMoved,
		BytesMoved:       st.BytesMoved,
		BytesReclaimed:   st.BytesReclaimed,
		RefsPatched:      st.RefsPatched,
		VictimsSkipped:   st.VictimsSkipped,
		SimSeconds:       st.SimSeconds,
	}
}

// MaintenanceReport is the maintenance section of the store's statistics:
// cumulative pass counters plus the current dead-byte accounting.
type MaintenanceReport struct {
	// Supported is false for engines without an exposed chunk index.
	Supported bool `json:"supported"`
	// Enabled reports whether the background layer was opened with the
	// store (scheduler or manual-only).
	Enabled bool `json:"enabled"`
	// Epochs counts the maintenance runs folded into Totals: epochs and
	// Compact calls.
	Epochs int              `json:"epochs"`
	Totals MaintenanceStats `json:"totals"`
	// StoredBytes/DeadBytes/DeadFraction is the current garbage accounting
	// (see ForgetResult); CompactRecommended mirrors the Forget heuristic.
	StoredBytes        int64   `json:"storedBytes"`
	DeadBytes          int64   `json:"deadBytes"`
	DeadFraction       float64 `json:"deadFraction"`
	CompactRecommended bool    `json:"compactRecommended"`
}

// compactRecommendThreshold is the dead-byte fraction above which Forget
// and the stats endpoint recommend running a compaction pass.
const compactRecommendThreshold = 0.2

// ForgetResult reports what a Forget freed logically and whether the
// physical garbage it stranded makes a compaction pass worthwhile.
type ForgetResult struct {
	// Found is false when no retained backup had the label.
	Found bool `json:"found"`
	// StoredBytes is the store's physical chunk-data footprint.
	StoredBytes int64 `json:"storedBytes"`
	// DeadBytes is how much of that footprint is no longer live: no retained
	// recipe references it (the live table counts it zero) and no ingest in
	// flight holds its container. What only forgotten backups referenced is
	// dead, whatever the index names.
	DeadBytes int64 `json:"deadBytes"`
	// DeadFraction is DeadBytes/StoredBytes (0 when the store is empty).
	DeadFraction float64 `json:"deadFraction"`
	// CompactRecommended is true when DeadFraction crosses the
	// recommendation threshold (20%).
	CompactRecommended bool `json:"compactRecommended"`
	// Error is set when the backup was found and the forget could not be made
	// durable: the backup is still retained.
	Error string `json:"error,omitempty"`
}

// storeGate adapts the store's maintenance gate to maintenance.Gate: fn
// runs with no foreground ingest or restore in flight.
type storeGate struct{ s *Store }

func (g storeGate) Exclusive(fn func() error) error {
	g.s.maintMu.Lock()
	defer g.s.maintMu.Unlock()
	return fn()
}

// storeRecipes adapts the retained-backup set to maintenance.RecipeStore.
type storeRecipes struct{ s *Store }

func (r storeRecipes) Snapshot() []*chunk.Recipe { return r.s.snapshotRecipes() }

// Replace installs the updated recipes, each in place of the retained one
// with its label, and moves the live table's counts of the references whose
// location moved. On durable backends those references become one catalog
// record first — all of the update durable, or none of it installed — so a
// container the old locations named may be dropped as soon as Replace
// returns nil. Restores in flight keep the snapshot they loaded; new restores
// see the remapped recipes.
func (r storeRecipes) Replace(ctx context.Context, updated []*chunk.Recipe) error {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	targets := make([]*Backup, len(updated))
	var remaps []catalog.Remap
	for k, u := range updated {
		i := s.indexOf(u.Label)
		if i < 0 {
			continue // forgotten since the snapshot
		}
		targets[k] = s.backups[i]
		moves, err := movedRefs(targets[k].recipe(), u)
		if err != nil {
			return err
		}
		if len(moves) > 0 {
			remaps = append(remaps, catalog.Remap{Label: u.Label, Moves: moves})
		}
	}
	if len(remaps) > 0 && s.cat != nil {
		if err := s.cat.Remap(remaps); err != nil {
			return fmt.Errorf("repro: persisting remapped recipes: %w", err)
		}
	}
	for k, b := range targets {
		if b != nil {
			s.live.Swap(b.recipe(), updated[k])
			b.rec.Store(updated[k])
		}
	}
	s.checkpointAfter("remap")
	return nil
}

// movedRefs diffs an updated recipe against the one it replaces: the
// references whose location changed. A remap moves references and nothing
// else, so anything else that differs is refused.
func movedRefs(old, updated *chunk.Recipe) ([]catalog.Move, error) {
	if len(old.Refs) != len(updated.Refs) {
		return nil, fmt.Errorf("repro: remapped recipe %q has %d refs, the retained one %d", updated.Label, len(updated.Refs), len(old.Refs))
	}
	var moves []catalog.Move
	for i := range updated.Refs {
		o, u := &old.Refs[i], &updated.Refs[i]
		if u.Loc == o.Loc {
			continue
		}
		if u.FP != o.FP || u.Size != o.Size || u.Loc.Size != u.Size {
			return nil, fmt.Errorf("repro: remapped recipe %q: ref %d is not the chunk it was", updated.Label, i)
		}
		moves = append(moves, catalog.Move{Index: uint32(i), Loc: u.Loc})
	}
	return moves, nil
}

// indexed is the engine capability maintenance (and Compact) needs.
type indexed interface{ Index() *cindex.Index }

// maintenancePass lazily builds the store's maintenance pass. Caller holds
// maintOpMu.
func (s *Store) maintenancePass() (*maintenance.Pass, error) {
	if s.maintPass != nil {
		return s.maintPass, nil
	}
	eng, ok := s.eng.(indexed)
	if !ok {
		return nil, fmt.Errorf("repro: engine %s does not support maintenance (no chunk index)", s.eng.Name())
	}
	m := s.opts.Maintenance
	cfg := maintenance.Config{
		Containers:      s.eng.Containers(),
		Index:           eng.Index(),
		Recipes:         storeRecipes{s},
		Gate:            storeGate{s},
		Live:            s.live,
		Clock:           s.eng.Clock(),
		UtilThreshold:   m.UtilThreshold,
		FillThreshold:   m.FillThreshold,
		SparseThreshold: m.SparseThreshold,
		MaxBatch:        m.MaxBatch,
		ThrottleMBps:    m.ThrottleMBps,
	}
	if d, ok := s.eng.(maintenance.IndexDropper); ok {
		cfg.Dropper = d
	}
	p, err := maintenance.New(cfg)
	if err != nil {
		return nil, err
	}
	s.maintPass = p
	return p, nil
}

// initMaintenance wires the maintenance layer at Open when
// Options.Maintenance.Enabled is set: the pass is built eagerly (so
// configuration errors surface at Open) and the background scheduler is
// started when an interval is configured.
func (s *Store) initMaintenance() error {
	s.maintOpMu.Lock()
	defer s.maintOpMu.Unlock()
	if _, err := s.maintenancePass(); err != nil {
		return err
	}
	if s.opts.Maintenance.Interval > 0 {
		s.maintLoop = maintenance.NewScheduler(s.opts.Maintenance.Interval, s.runMaintenanceEpoch)
	}
	return nil
}

// runMaintenance executes one maintenance operation on the store's pass
// under the operation mutex and folds its counters into the cumulative
// totals.
func (s *Store) runMaintenance(ctx context.Context, op func(*maintenance.Pass, context.Context) (maintenance.Stats, error)) (maintenance.Stats, error) {
	s.maintOpMu.Lock()
	defer s.maintOpMu.Unlock()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return maintenance.Stats{}, fmt.Errorf("repro: store is closed")
	}
	p, err := s.maintenancePass()
	if err != nil {
		return maintenance.Stats{}, err
	}
	st, err := op(p, ctx)
	s.mu.Lock()
	s.maintTotal.Add(st)
	s.maintEpochs++
	s.mu.Unlock()
	return st, err
}

func (s *Store) runMaintenanceEpoch(ctx context.Context) (maintenance.Stats, error) {
	return s.runMaintenance(ctx, (*maintenance.Pass).RunEpoch)
}

// MaintenanceEpoch runs one maintenance epoch now: reverse remap, victim
// selection, merge, and the gated crash-safe drop commit. It is safe to
// call under live traffic (only the final commit briefly excludes
// foreground streams) and serializes against the background scheduler,
// Compact and Repair. Engines without a chunk index do not support
// maintenance.
func (s *Store) MaintenanceEpoch(ctx context.Context) (MaintenanceStats, error) {
	st, err := s.runMaintenanceEpoch(ctx)
	return fromMaintStats(st), err
}

// deadScan reads the store's physical garbage off the live table:
// sealed-container data bytes that no retained recipe references, outside
// the containers ingests in flight hold. It walks no recipe.
func (s *Store) deadScan() (stored, dead int64) {
	cs := s.eng.Containers()
	stored = cs.StoredBytes()
	live := s.live.Total()
	for _, id := range cs.PinnedIDs() {
		if cs.Sealed(id) {
			live += cs.DataFill(id) - s.live.Bytes(id)
		}
	}
	return stored, max(stored-live, 0)
}

// MaintenanceReport returns the maintenance section of the store's
// statistics: cumulative counters plus the current dead-byte accounting.
func (s *Store) MaintenanceReport() MaintenanceReport {
	_, supported := s.eng.(indexed)
	s.mu.RLock()
	totals := s.maintTotal
	epochs := s.maintEpochs
	s.mu.RUnlock()
	stored, dead := s.deadScan()
	rep := MaintenanceReport{
		Supported:   supported,
		Enabled:     s.opts.Maintenance.Enabled,
		Epochs:      epochs,
		Totals:      fromMaintStats(totals),
		StoredBytes: stored,
		DeadBytes:   dead,
	}
	if stored > 0 {
		rep.DeadFraction = float64(dead) / float64(stored)
		rep.CompactRecommended = rep.DeadFraction >= compactRecommendThreshold
	}
	return rep
}
