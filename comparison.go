package repro

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Comparison holds the shared multi-user run behind the paper's Figs. 4 and
// 5: the same 66-backup, 5-user schedule ingested independently by all
// three engines.
type Comparison struct {
	Figure4 *FigureResult // deduplication throughput
	Figure5 *FigureResult // deduplication efficiency (DeFrag vs SiLo)
}

// RunComparison ingests cfg.Backups multi-user backups through DDFS-Like,
// SiLo-Like and DeFrag and produces both comparison figures in one pass.
func RunComparison(cfg ExperimentConfig) (*Comparison, error) {
	cfg = cfg.withDefaults()
	gensPerUser := (cfg.Backups + cfg.Users - 1) / cfg.Users

	// Each engine has its own store and consumes its own identical workload
	// instance (streams are deterministic in the seed, so the three engines
	// see the same bytes), run to the end on its own; the rows zip them.
	// DDFS-Like runs without the oracle: Fig. 5 does not plot it.
	kinds := []EngineKind{DDFSLike, SiLoLike, DeFrag}
	stats := make([][]BackupStats, len(kinds))
	for j, kind := range kinds {
		s, err := cfg.open(kind, cfg.Users, gensPerUser, kind != DDFSLike, nil)
		if err != nil {
			return nil, err
		}
		sched, err := workload.NewMultiUser(cfg.Users, cfg.workloadConfig())
		if err != nil {
			return nil, err
		}
		if err := RunGenerations(context.Background(), s, sched, cfg.Backups, nil, func(_ int, b *Backup, _ RestoreStats) error {
			stats[j] = append(stats[j], b.Stats)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	fig4 := &FigureResult{
		Figure:  "Figure 4",
		Title:   "Deduplication throughput: DeFrag vs DDFS-Like vs SiLo-Like (MB/s)",
		Columns: []string{"backup", "label", "ddfs_MBps", "silo_MBps", "defrag_MBps"},
		Summary: map[string]float64{},
	}
	fig5 := &FigureResult{
		Figure:  "Figure 5",
		Title:   "Deduplication efficiency: DeFrag vs SiLo-Like (partially-redundant segments)",
		Columns: []string{"backup", "label", "silo_eff", "defrag_eff", "silo_unremoved_MB", "defrag_rewritten_MB"},
		Summary: map[string]float64{},
	}

	tdd := metrics.NewSeries("ddfs")
	tsi := metrics.NewSeries("silo")
	tde := metrics.NewSeries("defrag")
	esi := metrics.NewSeries("silo-eff")
	ede := metrics.NewSeries("defrag-eff")
	deWins := 0

	for i := range stats[0] {
		std, sts, ste := stats[0][i], stats[1][i], stats[2][i]
		tdd.Add(std.ThroughputMBps())
		tsi.Add(sts.ThroughputMBps())
		tde.Add(ste.ThroughputMBps())
		if ste.ThroughputMBps() > sts.ThroughputMBps() {
			deWins++
		}
		fig4.Rows = append(fig4.Rows, []string{
			fmt.Sprint(i + 1), std.Label,
			metrics.F1(std.ThroughputMBps()),
			metrics.F1(sts.ThroughputMBps()),
			metrics.F1(ste.ThroughputMBps()),
		})
		// Efficiency only measures backups that have prior redundancy:
		// the first backup of each user is all-new.
		if i >= cfg.Users {
			esi.Add(sts.Efficiency())
			ede.Add(ste.Efficiency())
			fig5.Rows = append(fig5.Rows, []string{
				fmt.Sprint(i + 1), ste.Label,
				metrics.F3(sts.Efficiency()),
				metrics.F3(ste.Efficiency()),
				metrics.MB(sts.MissedDupBytes),
				metrics.MB(ste.RewrittenBytes),
			})
		}
	}

	fig4.Summary["ddfs_last5_MBps"] = tdd.TailMean(5)
	fig4.Summary["silo_last5_MBps"] = tsi.TailMean(5)
	fig4.Summary["defrag_last5_MBps"] = tde.TailMean(5)
	fig4.Summary["defrag_over_ddfs"] = safeDiv(tde.TailMean(5), tdd.TailMean(5))
	fig4.Summary["defrag_over_silo"] = safeDiv(tde.TailMean(5), tsi.TailMean(5))
	fig4.Summary["defrag_wins_over_silo"] = float64(deWins)

	fig5.Summary["silo_eff_last5"] = esi.TailMean(5)
	fig5.Summary["defrag_eff_last5"] = ede.TailMean(5)
	fig5.Summary["silo_unremoved_last5"] = 1 - esi.TailMean(5)
	fig5.Summary["defrag_unremoved_last5"] = 1 - ede.TailMean(5)

	return &Comparison{Figure4: fig4, Figure5: fig5}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
