package repro

import (
	"fmt"

	"repro/internal/metrics"
)

// RunExtendedComparison goes beyond the paper's three-way evaluation: all
// five engines in this repository — DDFS-Like, SiLo-Like, Sparse-Indexing,
// iDedup and DeFrag — over the same single-user generation schedule,
// reporting the final-generation values of all three headline metrics plus
// storage cost. It situates the paper's contribution among the design
// space its related-work section sketches.
func RunExtendedComparison(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	res := &FigureResult{
		Figure:  "Extended comparison",
		Title:   fmt.Sprintf("All five engines, final of %d generations", cfg.Generations),
		Columns: []string{"engine", "tput_MBps", "efficiency", "read_MBps", "fragments", "stored_MB", "compression"},
		Summary: map[string]float64{},
	}
	for _, kind := range []EngineKind{DDFSLike, SiLoLike, SparseIndex, IDedup, DeFrag} {
		s, sched, err := cfg.single(kind, true, nil)
		if err != nil {
			return nil, err
		}
		var last *Backup
		for g := 0; g < cfg.Generations; g++ {
			if last, err = backup(s, sched); err != nil {
				return nil, err
			}
		}
		rst, err := cfg.figureRestore(s, last)
		if err != nil {
			return nil, err
		}
		ss := s.Stats()
		name := kind.String()
		res.Rows = append(res.Rows, []string{
			name,
			metrics.F1(last.Stats.ThroughputMBps()),
			metrics.F3(last.Stats.Efficiency()),
			metrics.F1(rst.ThroughputMBps()),
			fmt.Sprint(rst.Fragments),
			metrics.MB(ss.StoredBytes),
			metrics.F3(ss.CompressionRatio),
		})
		res.Summary[name+"_tput_MBps"] = last.Stats.ThroughputMBps()
		res.Summary[name+"_read_MBps"] = rst.ThroughputMBps()
	}
	return res, nil
}
