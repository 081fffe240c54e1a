package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/segment"
)

// defragRun is what one DeFrag variant measured over cfg.Generations
// single-user backups: the last backup, its restore, the store after it,
// and the bytes rewritten across all of them.
type defragRun struct {
	last      BackupStats
	read      RestoreStats
	store     StoreStats
	rewritten int64
}

// compression is the run's logical over stored bytes, 0 for an empty store.
func (r defragRun) compression() float64 {
	stored := float64(r.store.StoredBytes) / 1e6
	if stored == 0 {
		return 0
	}
	return float64(r.store.LogicalBytes) / 1e6 / stored
}

// runDefragVariant ingests cfg.Generations single-user backups into one
// DeFrag store whose config the ablation edits with mutate (nil for none),
// and restores the last.
func runDefragVariant(cfg ExperimentConfig, mutate func(*core.Config)) (defragRun, error) {
	cfg = cfg.withDefaults()
	s, sched, err := cfg.single(DeFrag, true, mutate)
	if err != nil {
		return defragRun{}, err
	}
	var r defragRun
	var b *Backup
	for g := 0; g < cfg.Generations; g++ {
		if b, err = backup(s, sched); err != nil {
			return defragRun{}, err
		}
		r.rewritten += b.Stats.RewrittenBytes
	}
	if r.read, err = cfg.figureRestore(s, b); err != nil {
		return defragRun{}, err
	}
	r.last, r.store = b.Stats, s.Stats()
	return r, nil
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
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.2f", a),
			metrics.F1(r.last.ThroughputMBps()),
			metrics.F1(r.read.ThroughputMBps()),
			metrics.F3(r.last.Efficiency()),
			metrics.MB(r.rewritten),
			metrics.MB(r.store.StoredBytes),
			metrics.F3(r.compression()),
		})
		if a == 0 {
			res.Summary["alpha0_read_MBps"] = r.read.ThroughputMBps()
			res.Summary["alpha0_compression"] = r.compression()
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
		r, err := runDefragVariant(cfg, func(c *core.Config) { c.LPCContainers = n })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n),
			metrics.F1(r.last.ThroughputMBps()),
			metrics.F1(r.read.ThroughputMBps()),
			metrics.F3(r.last.Efficiency()),
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
		r, err := runDefragVariant(cfg, func(c *core.Config) { c.SegParams = v.p })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			v.name,
			metrics.F1(r.last.ThroughputMBps()),
			metrics.F1(r.read.ThroughputMBps()),
			metrics.F3(r.last.Efficiency()),
			metrics.MB(r.rewritten),
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
		r, err := runDefragVariant(cfg, func(c *core.Config) {
			c.ContainerCfg.DataCap = int64(mb) << 20
			c.ContainerCfg.MaxChunks = 512 * mb
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(mb),
			metrics.F1(r.last.ThroughputMBps()),
			metrics.F1(r.read.ThroughputMBps()),
			fmt.Sprint(r.read.Fragments),
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
	s, sched, err := cfg.single(DeFrag, false, nil)
	if err != nil {
		return nil, err
	}
	var last *Backup
	for g := 0; g < cfg.Generations; g++ {
		if last, err = backup(s, sched); err != nil {
			return nil, err
		}
	}

	res := &FigureResult{
		Figure:  "Ablation: restore strategy",
		Title:   "LRU vs OPT vs FAA vs pipelined restore (final-generation restore)",
		Columns: []string{"budget_MB", "lru_read_MBps", "lru_creads", "opt_read_MBps", "opt_creads", "faa_read_MBps", "faa_creads", "pipe_read_MBps", "pipe_extents"},
		Summary: map[string]float64{},
	}
	containerMB := s.eng.Containers().Config().DataCap >> 20
	for _, budgetMB := range []int64{8, 16, 32, 64, 128} {
		cap := int(budgetMB / containerMB)
		row := []string{fmt.Sprint(budgetMB)}
		var creads []int64 // each shape's container reads: LRU, OPT, FAA, pipelined
		for _, opts := range []RestoreOptions{
			{CacheContainers: cap, Policy: RestoreLRU, Workers: 1},
			{CacheContainers: cap, Policy: RestoreOPT, Workers: 1},
			{CacheContainers: cap, Policy: RestoreFAA, Workers: 1},
			{CacheContainers: cap, Policy: RestoreOPT, Workers: restoreAblationLanes, Coalesce: true},
		} {
			st, err := s.RestoreWith(context.Background(), last, nil, opts)
			if err != nil {
				return nil, err
			}
			reads := st.ContainerReads
			if opts.Coalesce {
				reads = st.ExtentReads
			}
			row = append(row, metrics.F1(st.ThroughputMBps()), fmt.Sprint(reads))
			creads = append(creads, st.ContainerReads)
		}
		res.Rows = append(res.Rows, row)
		if creads[1] > creads[0] {
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
		r, err := runDefragVariant(cfg, func(c *core.Config) { c.Policy = p })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			p.String(),
			metrics.F1(r.last.ThroughputMBps()),
			metrics.F1(r.read.ThroughputMBps()),
			metrics.F3(r.last.Efficiency()),
			metrics.MB(r.rewritten),
			metrics.F3(r.compression()),
		})
		res.Summary[p.String()+"_read_MBps"] = r.read.ThroughputMBps()
	}
	return res, nil
}
