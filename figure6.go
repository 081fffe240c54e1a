package repro

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunFigure6 regenerates the paper's Fig. 6: data read (restore)
// performance of DeFrag vs DDFS-Like, reconstructing each backup generation
// right after it is ingested.
func RunFigure6(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	dd, sdd, err := cfg.single(DDFSLike, false, nil)
	if err != nil {
		return nil, err
	}
	de, sde, err := cfg.single(DeFrag, false, nil)
	if err != nil {
		return nil, err
	}

	res := &FigureResult{
		Figure:  "Figure 6",
		Title:   "Data read performance: DeFrag vs DDFS-Like (MB/s restoring each generation)",
		Columns: []string{"gen", "ddfs_read_MBps", "defrag_read_MBps", "ddfs_fragments", "defrag_fragments"},
		Summary: map[string]float64{},
	}
	rdd := metrics.NewSeries("ddfs-read")
	rde := metrics.NewSeries("defrag-read")

	backupAndRestore := func(s *Store, sched workload.Schedule) (RestoreStats, error) {
		b, err := backup(s, sched)
		if err != nil {
			return RestoreStats{}, err
		}
		return cfg.figureRestore(s, b)
	}

	for g := 0; g < cfg.Generations; g++ {
		rstDD, err := backupAndRestore(dd, sdd)
		if err != nil {
			return nil, err
		}
		rstDE, err := backupAndRestore(de, sde)
		if err != nil {
			return nil, err
		}
		rdd.Add(rstDD.ThroughputMBps())
		rde.Add(rstDE.ThroughputMBps())
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(g + 1),
			metrics.F1(rstDD.ThroughputMBps()),
			metrics.F1(rstDE.ThroughputMBps()),
			fmt.Sprint(rstDD.Fragments),
			fmt.Sprint(rstDE.Fragments),
		})
	}
	res.Summary["ddfs_read_last3_MBps"] = rdd.TailMean(3)
	res.Summary["defrag_read_last3_MBps"] = rde.TailMean(3)
	res.Summary["defrag_over_ddfs"] = safeDiv(rde.TailMean(3), rdd.TailMean(3))
	return res, nil
}

// RunEquation1 demonstrates the paper's Eq. 1 on the raw disk model:
// reading one file stored as N scattered fragments costs
// N·T_seek + size/W_seq. Measured values come from the simulated device;
// predicted values from the closed form. They must agree exactly.
func RunEquation1() (*FigureResult, error) {
	model := disk.DefaultModel()
	const fileSize = 64 << 20
	res := &FigureResult{
		Figure:  "Equation 1",
		Title:   "F(read) = N*T_seek + size/W_seq for a 64 MB file in N fragments",
		Columns: []string{"fragments_N", "predicted_ms", "measured_ms", "read_MBps"},
		Summary: map[string]float64{},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		var clk disk.Clock
		dev := disk.NewDevice(model, &clk, false)
		// Lay out N fragments with gaps between them.
		frag := int64(fileSize / n)
		offsets := make([]int64, n)
		for i := range offsets {
			offsets[i] = dev.AppendHole(frag)
			dev.AppendHole(1 << 20) // gap
		}
		clk.Reset()
		for _, off := range offsets {
			dev.AccountRead(off, frag)
		}
		measured := clk.Now()
		predicted := time.Duration(n)*model.Seek + model.ReadTime(int64(n)*frag)
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n),
			metrics.F1(float64(predicted.Microseconds()) / 1000),
			metrics.F1(float64(measured.Microseconds()) / 1000),
			metrics.F1(float64(fileSize) / measured.Seconds() / 1e6),
		})
		if n == 1 {
			res.Summary["contiguous_ms"] = measured.Seconds() * 1000
		}
		if n == 128 {
			res.Summary["scattered128_ms"] = measured.Seconds() * 1000
		}
	}
	return res, nil
}
