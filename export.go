package repro

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/blockstore"
	"repro/internal/catalog"
)

// Export writes the store into dir, which must be absent or empty, as a
// file-backend store directory: every sealed container under its own ID and
// device extent, then the retained backups — recipes and statistics — as a
// checkpoint of the catalog log. The way back is Open with Backend: FileBackend and
// Dir: dir (and an engine that can reopen one, DeFrag or DDFSLike, whatever
// engine wrote the containers): restores, Check and further deduplicating
// backups continue from it. With Options.StoreData the directory carries the
// chunk bytes; without, placement metadata only. The catalog goes last, so an
// Export that is cancelled or dies leaves containers and no backup.
func (s *Store) Export(ctx context.Context, dir string) error {
	// Export is a foreground reader: no container leaves the store while it
	// walks them. The recipes are the ones retained now; a merge may install
	// remapped ones meanwhile, but cannot drop what these point at.
	s.maintMu.RLock()
	defer s.maintMu.RUnlock()
	entries, err := catalogEntries(s.Backups())
	if err != nil {
		return err
	}
	if ents, err := s.opts.fs.ReadDir(dir); err == nil && len(ents) > 0 {
		return fmt.Errorf("repro: export: %s is not empty", dir)
	}
	dst, err := blockstore.OpenFileOn(s.opts.fs, dir, s.opts.StoreData)
	if err != nil {
		return err
	}
	err = s.eng.Containers().CopyTo(ctx, dst)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("repro: export: %w", err)
	}
	return catalog.WriteCheckpointOn(s.opts.fs, filepath.Join(dir, catalog.FileName), entries)
}
