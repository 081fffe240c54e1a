package repro

import (
	"context"
	"encoding/json"
	"io"

	"repro/internal/workload"
)

// TrajectoryPoint is one generation of a benchmark trajectory: the
// per-generation quantities `defragbench -json` emits, one JSONL record each
// (throughput decay of paper Fig. 2, the rewrite ratio behind Fig. 6's
// trade-off, and the fragment count of Eq. 1).
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
// into a fresh store of the given engine kind, restoring each generation,
// and returns one TrajectoryPoint per generation.
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
	for g := 0; g < cfg.Generations; g++ {
		b, err := backup(store, sched)
		if err != nil {
			return nil, err
		}
		rst, err := store.RestoreWith(context.Background(), b, nil, ropts)
		if err != nil {
			return nil, err
		}
		st := b.Stats
		ratio := 0.0
		if st.LogicalBytes > 0 {
			ratio = float64(st.RewrittenBytes) / float64(st.LogicalBytes)
		}
		points = append(points, TrajectoryPoint{
			Engine:          store.Engine(),
			Gen:             g + 1,
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
	}
	return points, nil
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
