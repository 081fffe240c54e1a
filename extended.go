package repro

import (
	"context"
	"fmt"

	"repro/internal/cindex"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/ddfs"
	"repro/internal/engine/idedup"
	"repro/internal/engine/silo"
	"repro/internal/engine/sparse"
	"repro/internal/metrics"
	"repro/internal/restore"
	"repro/internal/workload"
)

// RunExtendedComparison goes beyond the paper's three-way evaluation: all
// five engines in this repository — DDFS-Like, SiLo-Like, Sparse-Indexing,
// iDedup and DeFrag — over the same single-user generation schedule,
// reporting the final-generation values of all three headline metrics plus
// storage cost. It situates the paper's contribution among the design
// space its related-work section sketches.
func RunExtendedComparison(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	expected, lpc, bc := cfg.sizing(1, cfg.Generations)

	type entry struct {
		name string
		mk   func() (engine.Engine, error)
	}
	engines := []entry{
		{"ddfs-like", func() (engine.Engine, error) {
			c := ddfs.DefaultConfig(expected)
			c.LPCContainers = lpc
			return ddfs.New(c)
		}},
		{"silo-like", func() (engine.Engine, error) {
			c := silo.DefaultConfig(expected)
			c.BlockCache = bc
			return silo.New(c)
		}},
		{"sparse-index", func() (engine.Engine, error) { return sparse.New(sparse.DefaultConfig(expected)) }},
		{"idedup", func() (engine.Engine, error) { return idedup.New(idedup.DefaultConfig(expected)) }},
		{"defrag", func() (engine.Engine, error) {
			c := core.DefaultConfig(expected)
			c.Alpha = cfg.Alpha
			c.LPCContainers = lpc
			return core.New(c)
		}},
	}

	res := &FigureResult{
		Figure:  "Extended comparison",
		Title:   fmt.Sprintf("All five engines, final of %d generations", cfg.Generations),
		Columns: []string{"engine", "tput_MBps", "efficiency", "read_MBps", "fragments", "stored_MB", "compression"},
		Summary: map[string]float64{},
	}

	for _, ent := range engines {
		eng, err := ent.mk()
		if err != nil {
			return nil, err
		}
		eng.SetOracle(cindex.NewOracle())
		sched, err := workload.NewSingle(cfg.workloadConfig())
		if err != nil {
			return nil, err
		}
		var lastStats engine.BackupStats
		var lastBackup *Backup
		var logical int64
		for g := 0; g < cfg.Generations; g++ {
			st, b, err := ingest(eng, sched)
			if err != nil {
				return nil, err
			}
			lastStats, lastBackup = st, b
			logical += st.LogicalBytes
		}
		rst, err := restore.RunPipelined(context.Background(), eng.Containers(), lastBackup.recipe(), restore.DefaultConfig(), nil)
		if err != nil {
			return nil, err
		}
		stored := eng.Containers().StoredBytes()
		compression := 0.0
		if stored > 0 {
			compression = float64(logical) / float64(stored)
		}
		res.Rows = append(res.Rows, []string{
			ent.name,
			metrics.F1(lastStats.ThroughputMBps()),
			metrics.F3(lastStats.Efficiency()),
			metrics.F1(rst.ThroughputMBps()),
			fmt.Sprint(rst.Fragments),
			metrics.MB(stored),
			metrics.F3(compression),
		})
		res.Summary[ent.name+"_tput_MBps"] = lastStats.ThroughputMBps()
		res.Summary[ent.name+"_read_MBps"] = rst.ThroughputMBps()
	}
	return res, nil
}
