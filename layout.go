package repro

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// LayoutInfo quantifies the de-linearization of one backup's placement —
// the paper's §II-A concept made measurable. See internal/analysis for the
// underlying stack-distance machinery.
type LayoutInfo struct {
	Chunks            int
	Bytes             int64
	Fragments         int // Eq. 1's N
	ContainersTouched int
	ContainerSwitches int
	MeanRunBytes      float64
	MeanStackDistance float64
	// PredictedHitRate8 is the hit rate an 8-container LRU cache would
	// achieve over this backup's container reference sequence.
	PredictedHitRate8 float64
}

// Layout analyzes the backup's placement profile.
func (b *Backup) Layout() LayoutInfo {
	l := analysis.Analyze(b.recipe())
	return LayoutInfo{
		Chunks:            l.Chunks,
		Bytes:             l.Bytes,
		Fragments:         l.Fragments,
		ContainersTouched: l.ContainersTouched,
		ContainerSwitches: l.ContainerSwitches,
		MeanRunBytes:      l.MeanRunBytes,
		MeanStackDistance: l.MeanStackDistance(),
		PredictedHitRate8: l.PredictedHitRate(8),
	}
}

// RunLayoutAnalysis traces the de-linearization of data placement,
// generation by generation, under DDFS-Like and DeFrag: fragments (Eq. 1's
// N), distinct containers, mean LRU stack distance of the container
// reference sequence, and the hit rate that profile predicts for the
// engines' locality-preserved cache. It is the paper's §II argument as a
// table.
func RunLayoutAnalysis(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	dd, sdd, err := cfg.single(DDFSLike, false, nil)
	if err != nil {
		return nil, err
	}
	de, sde, err := cfg.single(DeFrag, false, nil)
	if err != nil {
		return nil, err
	}
	_, lpc, _ := cfg.sizing(1, cfg.Generations)

	res := &FigureResult{
		Figure: "Layout analysis",
		Title:  fmt.Sprintf("De-linearization of placement (LRU stack profile; predicted hit rate at LPC=%d)", lpc),
		Columns: []string{"gen",
			"ddfs_frags", "ddfs_ctrs", "ddfs_stackdist", "ddfs_hitrate",
			"defrag_frags", "defrag_ctrs", "defrag_stackdist", "defrag_hitrate"},
		Summary: map[string]float64{},
	}

	analyzeNext := func(s *Store, sched workload.Schedule) (*analysis.Layout, error) {
		b, err := backup(s, sched)
		if err != nil {
			return nil, err
		}
		return analysis.Analyze(b.recipe()), nil
	}

	var lastDD, lastDE *analysis.Layout
	for g := 0; g < cfg.Generations; g++ {
		ld, err := analyzeNext(dd, sdd)
		if err != nil {
			return nil, err
		}
		le, err := analyzeNext(de, sde)
		if err != nil {
			return nil, err
		}
		lastDD, lastDE = ld, le
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(g + 1),
			fmt.Sprint(ld.Fragments), fmt.Sprint(ld.ContainersTouched),
			metrics.F1(ld.MeanStackDistance()), metrics.F3(ld.PredictedHitRate(lpc)),
			fmt.Sprint(le.Fragments), fmt.Sprint(le.ContainersTouched),
			metrics.F1(le.MeanStackDistance()), metrics.F3(le.PredictedHitRate(lpc)),
		})
	}
	res.Summary["ddfs_final_hitrate"] = lastDD.PredictedHitRate(lpc)
	res.Summary["defrag_final_hitrate"] = lastDE.PredictedHitRate(lpc)
	res.Summary["ddfs_final_stackdist"] = lastDD.MeanStackDistance()
	res.Summary["defrag_final_stackdist"] = lastDE.MeanStackDistance()
	return res, nil
}
