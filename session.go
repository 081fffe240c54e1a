package repro

import (
	"context"
	"io"

	"repro/internal/chunk"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// IngestStream ingests one labeled backup stream and is safe for concurrent
// use — it is the Store entry point for the network service (internal/serve),
// where many client uploads are in flight at once.
//
// Engines with a concurrent ingest path (DeFrag, DDFS-Like; see
// engine.StreamBackupper) run each call as one lane of the PR-2 multi-stream
// timing model: the lane's simulated clock starts at the master clock's
// current reading, the stream pays its costs on that lane while sharing the
// index shards, Bloom filter and container store, and on commit the master
// clock advances to the lane's finish time if it is ahead — K concurrent
// uploads cost the slowest lane, not the sum, exactly as BackupStreams
// charges a round. Engines without concurrent ingest run it on the master
// clock, one whole backup at a time with Backup, so correctness never depends
// on the engine kind.
//
// Cancelling ctx aborts the backup between segments; the store stays
// consistent and the aborted backup is simply absent (the cancelled-ingest
// contract of Store.Backup). A label already retained is refused
// (ErrLabelRetained), as by Backup.
func (s *Store) IngestStream(ctx context.Context, label string, r io.Reader) (*Backup, error) {
	return s.ingest(ctx, "store.ingest_stream", label, r, true)
}

// ingest is the one body of Backup and IngestStream: label check, the
// foreground gate, the engine, commitBackup. With onLane and an engine that
// has a concurrent ingest path the stream runs on a lane of its own; else on
// the master clock, through the store's one serial container writer, one
// whole backup at a time under ingestMu, whichever entry point it came in by.
func (s *Store) ingest(ctx context.Context, spanName, label string, r io.Reader, onLane bool) (*Backup, error) {
	ctx, span := telemetry.StartSpan(ctx, spanName)
	defer span.End()
	telBackups.Inc()
	if s.FindBackup(label) != nil { // before any byte is ingested
		return nil, labelRetained(label)
	}
	s.maintMu.RLock()
	defer s.maintMu.RUnlock()

	var (
		rec  *chunk.Recipe
		st   engine.BackupStats
		err  error
		lane *disk.Clock
	)
	if sb, concurrent := s.eng.(engine.StreamBackupper); concurrent && onLane {
		lane = new(disk.Clock)
		lane.Advance(s.eng.Clock().Now())
		rec, st, err = sb.BackupStream(ctx, label, r, lane)
	} else {
		s.ingestMu.Lock()
		rec, st, err = s.eng.Backup(ctx, label, r)
		s.ingestMu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	span.SetSim(st.Duration)
	return s.commitBackup(newBackup(label, fromEngineStats(st), rec), lane)
}
