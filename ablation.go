package repro

import (
	"context"
	"fmt"

	"repro/internal/cindex"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/restore"
	"repro/internal/segment"
	"repro/internal/workload"
)

// defragRun ingests cfg.Generations single-user backups through one DeFrag
// engine built by mutate(cfg) and returns summary measurements.
type defragRunResult struct {
	lastTputMBps  float64
	lastReadMBps  float64
	lastEff       float64
	rewrittenMB   float64
	storedMB      float64
	logicalMB     float64
	lastFragments int
}

func runDefragVariant(cfg ExperimentConfig, mutate func(*core.Config)) (defragRunResult, error) {
	cfg = cfg.withDefaults()
	expected, lpc, _ := cfg.sizing(1, cfg.Generations)
	ecfg := core.DefaultConfig(expected)
	ecfg.Alpha = cfg.Alpha
	ecfg.LPCContainers = lpc
	if mutate != nil {
		mutate(&ecfg)
	}
	eng, err := core.New(ecfg)
	if err != nil {
		return defragRunResult{}, err
	}
	eng.SetOracle(cindex.NewOracle())
	sched, err := workload.NewSingle(cfg.workloadConfig())
	if err != nil {
		return defragRunResult{}, err
	}
	var out defragRunResult
	var rewritten, logical int64
	var lastStats engine.BackupStats
	var lastRead restore.Stats
	for g := 0; g < cfg.Generations; g++ {
		st, b, err := ingest(eng, sched)
		if err != nil {
			return defragRunResult{}, err
		}
		rewritten += st.RewrittenBytes
		logical += st.LogicalBytes
		lastStats = st
		if g == cfg.Generations-1 {
			lastRead, err = restore.RunPipelined(context.Background(), eng.Containers(), b.recipe(), restore.DefaultConfig(), nil)
			if err != nil {
				return defragRunResult{}, err
			}
		}
	}
	out.lastTputMBps = lastStats.ThroughputMBps()
	out.lastEff = lastStats.Efficiency()
	out.lastReadMBps = lastRead.ThroughputMBps()
	out.lastFragments = lastRead.Fragments
	out.rewrittenMB = float64(rewritten) / 1e6
	out.storedMB = float64(eng.Containers().StoredBytes()) / 1e6
	out.logicalMB = float64(logical) / 1e6
	return out, nil
}

// RunAlphaSweep quantifies the paper's α trade-off (§III-B: "the preset
// value α can be adjusted and controlled to trade off the spatial locality
// improvement and the sacrificed compression ratios"): for each α it
// reports final-generation throughput, read performance, efficiency, and
// the storage cost of rewriting.
func RunAlphaSweep(cfg ExperimentConfig, alphas []float64) (*FigureResult, error) {
	if len(alphas) == 0 {
		alphas = []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0}
	}
	res := &FigureResult{
		Figure:  "Ablation: alpha sweep",
		Title:   "DeFrag locality-vs-compression trade-off across SPL thresholds",
		Columns: []string{"alpha", "tput_MBps", "read_MBps", "efficiency", "rewritten_MB", "stored_MB", "compression"},
		Summary: map[string]float64{},
	}
	for _, a := range alphas {
		c := cfg
		c.Alpha = a
		r, err := runDefragVariant(c, nil)
		if err != nil {
			return nil, err
		}
		compression := 0.0
		if r.storedMB > 0 {
			compression = r.logicalMB / r.storedMB
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.2f", a),
			metrics.F1(r.lastTputMBps),
			metrics.F1(r.lastReadMBps),
			metrics.F3(r.lastEff),
			metrics.F1(r.rewrittenMB),
			metrics.F1(r.storedMB),
			metrics.F3(compression),
		})
		if a == 0 {
			res.Summary["alpha0_read_MBps"] = r.lastReadMBps
			res.Summary["alpha0_compression"] = compression
		}
	}
	return res, nil
}

// RunCacheAblation varies the locality-preserved cache capacity — the RAM
// knob whose scarcity creates the paper's disk bottleneck.
func RunCacheAblation(cfg ExperimentConfig, capacities []int) (*FigureResult, error) {
	if len(capacities) == 0 {
		capacities = []int{2, 4, 8, 16, 32, 64}
	}
	res := &FigureResult{
		Figure:  "Ablation: LPC capacity",
		Title:   "DeFrag sensitivity to locality-preserved cache size (containers)",
		Columns: []string{"lpc_containers", "tput_MBps", "read_MBps", "efficiency"},
		Summary: map[string]float64{},
	}
	for _, n := range capacities {
		n := n
		r, err := runDefragVariant(cfg, func(c *core.Config) { c.LPCContainers = n })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n),
			metrics.F1(r.lastTputMBps),
			metrics.F1(r.lastReadMBps),
			metrics.F3(r.lastEff),
		})
	}
	return res, nil
}

// RunSegmentAblation varies segment geometry within and beyond the paper's
// 0.5–2 MB band. Segment size sets the SPL denominator: smaller segments
// make the α test more trigger-happy (more rewriting), larger ones more
// tolerant.
func RunSegmentAblation(cfg ExperimentConfig) (*FigureResult, error) {
	variants := []struct {
		name string
		p    segment.Params
	}{
		{"0.25-1MB", segment.Params{MinBytes: 256 << 10, MaxBytes: 1 << 20, Divisor: 64}},
		{"0.5-2MB", segment.DefaultParams()},
		{"1-4MB", segment.Params{MinBytes: 1 << 20, MaxBytes: 4 << 20, Divisor: 256}},
	}
	res := &FigureResult{
		Figure:  "Ablation: segment size",
		Title:   "DeFrag sensitivity to segment geometry (SPL granularity)",
		Columns: []string{"segments", "tput_MBps", "read_MBps", "efficiency", "rewritten_MB"},
		Summary: map[string]float64{},
	}
	for _, v := range variants {
		v := v
		r, err := runDefragVariant(cfg, func(c *core.Config) { c.SegParams = v.p })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			v.name,
			metrics.F1(r.lastTputMBps),
			metrics.F1(r.lastReadMBps),
			metrics.F3(r.lastEff),
			metrics.F1(r.rewrittenMB),
		})
	}
	return res, nil
}

// RunContainerAblation varies container capacity, the prefetch and restore
// granularity.
func RunContainerAblation(cfg ExperimentConfig, sizesMB []int) (*FigureResult, error) {
	if len(sizesMB) == 0 {
		sizesMB = []int{1, 2, 4, 8}
	}
	res := &FigureResult{
		Figure:  "Ablation: container size",
		Title:   "DeFrag sensitivity to container capacity",
		Columns: []string{"container_MB", "tput_MBps", "read_MBps", "fragments"},
		Summary: map[string]float64{},
	}
	for _, mb := range sizesMB {
		mb := mb
		r, err := runDefragVariant(cfg, func(c *core.Config) {
			c.ContainerCfg.DataCap = int64(mb) << 20
			c.ContainerCfg.MaxChunks = 512 * mb
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(mb),
			metrics.F1(r.lastTputMBps),
			metrics.F1(r.lastReadMBps),
			fmt.Sprint(r.lastFragments),
		})
	}
	return res, nil
}

// restoreAblationLanes is the simulated prefetch-lane count of the pipelined
// row of RunRestoreAblation. It is part of the figure, not of the host:
// GOMAXPROCS sizes the wall-clock hashing and decode pools and must not move
// a simulated column.
const restoreAblationLanes = 4

// RunRestoreAblation compares four shapes of the one restore engine — LRU
// container cache, recipe-aware OPT cache, forward assembly, and everything
// on (OPT + coalescing + parallel read lanes) — on a late-generation
// (fragmented) DeFrag recipe across equivalent memory budgets. OPT's
// container reads are never above LRU's at the same budget (Belady
// optimality); the pipelined column shows what coalescing and prefetch
// lanes add on top of the better eviction.
func RunRestoreAblation(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	expected, lpc, _ := cfg.sizing(1, cfg.Generations)
	ecfg := core.DefaultConfig(expected)
	ecfg.Alpha = cfg.Alpha
	ecfg.LPCContainers = lpc
	eng, err := core.New(ecfg)
	if err != nil {
		return nil, err
	}
	sched, err := workload.NewSingle(cfg.workloadConfig())
	if err != nil {
		return nil, err
	}
	var last *Backup
	for g := 0; g < cfg.Generations; g++ {
		_, b, err := ingest(eng, sched)
		if err != nil {
			return nil, err
		}
		last = b
	}

	res := &FigureResult{
		Figure:  "Ablation: restore strategy",
		Title:   "LRU vs OPT vs FAA vs pipelined restore (final-generation restore)",
		Columns: []string{"budget_MB", "lru_read_MBps", "lru_creads", "opt_read_MBps", "opt_creads", "faa_read_MBps", "faa_creads", "pipe_read_MBps", "pipe_extents"},
		Summary: map[string]float64{},
	}
	containerMB := ecfg.ContainerCfg.DataCap >> 20
	for _, budgetMB := range []int64{8, 16, 32, 64, 128} {
		cap := int(budgetMB / containerMB)
		lruSt, err := restore.RunPipelined(context.Background(), eng.Containers(), last.recipe(),
			restore.PipelineConfig{CacheContainers: cap, Policy: restore.PolicyLRU, Workers: 1}, nil)
		if err != nil {
			return nil, err
		}
		optSt, err := restore.RunPipelined(context.Background(), eng.Containers(), last.recipe(),
			restore.PipelineConfig{CacheContainers: cap, Policy: restore.PolicyOPT, Workers: 1}, nil)
		if err != nil {
			return nil, err
		}
		faaSt, err := restore.RunPipelined(context.Background(), eng.Containers(), last.recipe(),
			restore.PipelineConfig{CacheContainers: cap, Policy: restore.PolicyFAA, Workers: 1}, nil)
		if err != nil {
			return nil, err
		}
		pipeSt, err := restore.RunPipelined(context.Background(), eng.Containers(), last.recipe(),
			restore.PipelineConfig{CacheContainers: cap, Policy: restore.PolicyOPT, Workers: restoreAblationLanes, Coalesce: true}, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(budgetMB),
			metrics.F1(lruSt.ThroughputMBps()),
			fmt.Sprint(lruSt.ContainerReads),
			metrics.F1(optSt.ThroughputMBps()),
			fmt.Sprint(optSt.ContainerReads),
			metrics.F1(faaSt.ThroughputMBps()),
			fmt.Sprint(faaSt.ContainerReads),
			metrics.F1(pipeSt.ThroughputMBps()),
			fmt.Sprint(pipeSt.ExtentReads),
		})
		if optSt.ContainerReads > lruSt.ContainerReads {
			res.Summary["opt_exceeded_lru"] = 1
		}
	}
	return res, nil
}

// RunPolicyAblation compares DeFrag's rewrite-grouping policies: the
// paper's segment-granularity SPL against the CBR-style container
// granularity (related work [5]), at the same α.
func RunPolicyAblation(cfg ExperimentConfig) (*FigureResult, error) {
	res := &FigureResult{
		Figure:  "Ablation: rewrite policy",
		Title:   "SPL grouping granularity: segments (paper) vs containers (CBR-style)",
		Columns: []string{"policy", "tput_MBps", "read_MBps", "efficiency", "rewritten_MB", "compression"},
		Summary: map[string]float64{},
	}
	for _, p := range []core.RewritePolicy{core.PolicySPL, core.PolicyContainer} {
		p := p
		r, err := runDefragVariant(cfg, func(c *core.Config) { c.Policy = p })
		if err != nil {
			return nil, err
		}
		compression := 0.0
		if r.storedMB > 0 {
			compression = r.logicalMB / r.storedMB
		}
		res.Rows = append(res.Rows, []string{
			p.String(),
			metrics.F1(r.lastTputMBps),
			metrics.F1(r.lastReadMBps),
			metrics.F3(r.lastEff),
			metrics.F1(r.rewrittenMB),
			metrics.F3(compression),
		})
		res.Summary[p.String()+"_read_MBps"] = r.lastReadMBps
	}
	return res, nil
}
