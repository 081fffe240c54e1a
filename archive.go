package repro

import (
	"context"
	"io"

	"repro/internal/archive"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/fsck"
	"repro/internal/restore"
)

// Export persists the store — sealed containers, their metadata, and every
// backup's recipe — into a directory, so backups survive the process (see
// internal/archive for the on-disk format). With Options.StoreData the
// archive carries real chunk content and restores from it verify; without,
// it carries placement metadata only (timing experiments can resume, but
// content restores cannot). The archive is a container log replayed in
// order, so Export refuses a store that a maintenance merge (an epoch or
// Compact) or Repair has dropped a container from: export first.
func (s *Store) Export(ctx context.Context, dir string) error {
	// Export is a foreground reader: hold maintenance out so the container
	// set cannot shift (merges drop containers) mid-walk.
	s.maintMu.RLock()
	defer s.maintMu.RUnlock()
	return archive.Export(ctx, dir, s.eng.Containers(), s.snapshotRecipes())
}

// Archive is a read-only store loaded from an exported directory: its
// backups can be restored and checked, but no new backups can be ingested
// (re-ingest requires the engine state — Bloom filter, index, caches — which
// an archive deliberately does not carry).
type Archive struct {
	store   *container.Store
	backups []*Backup
}

// OpenArchive loads an archive directory written by Store.Export.
func OpenArchive(ctx context.Context, dir string) (*Archive, error) {
	store, recipes, err := archive.Import(ctx, dir)
	if err != nil {
		return nil, err
	}
	a := &Archive{store: store}
	for _, rec := range recipes {
		a.backups = append(a.backups, newBackup(rec.Label, BackupStats{}, rec))
	}
	return a, nil
}

// Backups lists the archived backups in their original order. Their Stats
// fields are zero — measurements belong to the original run; placement
// accessors (Fragments, Chunks, Layout) remain meaningful.
func (a *Archive) Backups() []*Backup { return a.backups }

// Restore reconstructs an archived backup (see Store.Restore).
func (a *Archive) Restore(ctx context.Context, b *Backup, w io.Writer, verify bool) (RestoreStats, error) {
	cfg := restore.DefaultConfig()
	cfg.Verify = verify
	st, err := restore.RunPipelined(ctx, a.store, b.recipe(), cfg, w)
	if err != nil {
		return RestoreStats{}, err
	}
	return RestoreStats(st), nil
}

// Check validates the archive's internal consistency (see Store.Check).
func (a *Archive) Check(ctx context.Context, verifyData bool) (CheckReport, error) {
	recipes := make([]*chunk.Recipe, len(a.backups))
	for i, b := range a.backups {
		recipes[i] = b.recipe()
	}
	rep, err := fsck.Check(ctx, a.store, nil, recipes, verifyData)
	if err != nil {
		return CheckReport{}, err
	}
	return CheckReport{
		Containers:   rep.Containers,
		MetaEntries:  rep.MetaEntries,
		IndexEntries: rep.IndexEntries,
		RecipeRefs:   rep.RecipeRefs,
		HashedChunks: rep.HashedChunks,
		Problems:     rep.Problems,
	}, nil
}
