package repro

import (
	"context"
	"encoding/json"
	"io"

	"repro/internal/workload"
)

// TrajectoryPoint is one generation of a benchmark trajectory: the
// per-generation quantities `defragbench -json` emits, one JSONL record each
// (the backup throughput Fig. 2 plots, the rewrite ratio behind Fig. 6's
// trade-off, and the fragment count of Eq. 1). Each generation is restored
// before the next is backed up, and the restore moves the simulated device
// that the next backup is charged against, so from the second generation on
// the throughput is not Fig. 2's, which restores nothing.
type TrajectoryPoint struct {
	Engine          string  `json:"engine"`
	Gen             int     `json:"gen"` // 1-based generation number
	Label           string  `json:"label"`
	LogicalBytes    int64   `json:"logical_bytes"`
	ThroughputMBps  float64 `json:"throughput_MBps"`
	UniqueBytes     int64   `json:"unique_bytes"`
	DedupedBytes    int64   `json:"deduped_bytes"`
	RewrittenBytes  int64   `json:"rewritten_bytes"`
	RewriteRatio    float64 `json:"rewrite_ratio"` // rewritten / logical bytes
	Fragments       int     `json:"fragments"`
	ContainerReads  int64   `json:"container_reads"`
	RestoreMBps     float64 `json:"restore_MBps"`
	Efficiency      float64 `json:"efficiency"`
	SimulatedSecond float64 `json:"simulated_s"` // cumulative simulated time after this generation
}

// RunTrajectory ingests Generations backups of the single-user workload
// into a fresh store of the given engine kind, restoring each generation
// before the next backup (whose throughput the restore's device state
// moves; see TrajectoryPoint), and returns one TrajectoryPoint per
// generation.
func RunTrajectory(cfg ExperimentConfig, kind EngineKind) ([]TrajectoryPoint, error) {
	cfg = cfg.withDefaults()
	store, err := Open(Options{
		Engine:          kind,
		Alpha:           cfg.Alpha,
		ExpectedBytes:   cfg.perGenBytes() * int64(cfg.Generations),
		TrackEfficiency: true,
	})
	if err != nil {
		return nil, err
	}
	sched, err := workload.NewSingle(cfg.workloadConfig())
	if err != nil {
		return nil, err
	}
	ropts := DefaultRestoreOptions()
	ropts.CacheContainers = cfg.RestoreCache // 0 keeps the default
	points := make([]TrajectoryPoint, 0, cfg.Generations)
	err = RunGenerations(context.Background(), store, sched, cfg.Generations, &ropts, func(gen int, b *Backup, rst RestoreStats) error {
		st := b.Stats
		ratio := 0.0
		if st.LogicalBytes > 0 {
			ratio = float64(st.RewrittenBytes) / float64(st.LogicalBytes)
		}
		points = append(points, TrajectoryPoint{
			Engine:          store.Engine(),
			Gen:             gen,
			Label:           b.Label,
			LogicalBytes:    st.LogicalBytes,
			ThroughputMBps:  st.ThroughputMBps(),
			UniqueBytes:     st.UniqueBytes,
			DedupedBytes:    st.DedupedBytes,
			RewrittenBytes:  st.RewrittenBytes,
			RewriteRatio:    ratio,
			Fragments:       rst.Fragments,
			ContainerReads:  rst.ContainerReads,
			RestoreMBps:     rst.ThroughputMBps(),
			Efficiency:      st.Efficiency(),
			SimulatedSecond: store.SimulatedTime().Seconds(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// RunGenerations is the paper's per-generation measurement: it backs up
// gens backups of sched into store one after another and, with ropts set,
// restores each right after its backup. each is handed every generation's
// 1-based number, backup and restore statistics (zero without ropts), in
// order; an error from it stops the run.
func RunGenerations(ctx context.Context, store *Store, sched workload.Schedule, gens int, ropts *RestoreOptions,
	each func(gen int, b *Backup, rst RestoreStats) error) error {
	for g := 1; g <= gens; g++ {
		bk := sched.Next()
		b, err := store.Backup(ctx, bk.Label, bk.Stream)
		if err != nil {
			return err
		}
		var rst RestoreStats
		if ropts != nil {
			if rst, err = store.RestoreWith(ctx, b, nil, *ropts); err != nil {
				return err
			}
		}
		if err := each(g, b, rst); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrajectoryJSONL writes points as JSONL: one JSON object per line,
// the machine-readable per-generation format of defragbench -json.
func WriteTrajectoryJSONL(w io.Writer, points []TrajectoryPoint) error {
	enc := json.NewEncoder(w)
	for _, p := range points {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}
