package repro

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// ExperimentConfig scales the paper-reproduction experiments. The defaults
// regenerate every figure at laptop scale in seconds; raising FilesPerUser
// or MeanFileSize approaches the paper's dataset sizes at proportional cost.
type ExperimentConfig struct {
	Seed         int64
	Generations  int // single-user experiments: Figs. 2, 3, 6 (paper: 20)
	Backups      int // multi-user experiments: Figs. 4, 5 (paper: 66)
	Users        int // multi-user experiments (paper: 5 students)
	FilesPerUser int // workload scale knob
	MeanFileSize int64
	// Alpha is DeFrag's SPL threshold. An explicit 0 is honoured (no
	// rewriting — the α-sweep needs it); a negative value selects the
	// paper's default 0.1. DefaultExperimentConfig sets 0.1.
	Alpha float64
	// RestoreCache is the restore cache capacity in containers: of the LRU
	// cache every figure restores through (Fig. 6, the extended comparison,
	// the DeFrag ablations) and of RunTrajectory's OPT cache. 0 keeps the
	// default, 8. RunRestoreAblation sweeps its own budgets instead.
	RestoreCache int
}

// DefaultExperimentConfig matches the paper's experiment shapes at reduced
// scale (~48 MB per generation).
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Seed:         42,
		Generations:  20,
		Backups:      66,
		Users:        5,
		FilesPerUser: 64,
		MeanFileSize: 768 << 10,
		Alpha:        0.1,
	}
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	d := DefaultExperimentConfig()
	if c.Generations <= 0 {
		c.Generations = d.Generations
	}
	if c.Backups <= 0 {
		c.Backups = d.Backups
	}
	if c.Users <= 0 {
		c.Users = d.Users
	}
	if c.FilesPerUser <= 0 {
		c.FilesPerUser = d.FilesPerUser
	}
	if c.MeanFileSize <= 0 {
		c.MeanFileSize = d.MeanFileSize
	}
	if c.Alpha < 0 {
		c.Alpha = d.Alpha
	}
	return c
}

// workloadConfig builds the workload profile for this experiment scale.
func (c ExperimentConfig) workloadConfig() workload.Config {
	w := workload.DefaultConfig(c.Seed)
	w.NumFiles = c.FilesPerUser
	w.MeanFileSize = c.MeanFileSize
	return w
}

// perGenBytes estimates one generation's logical size.
func (c ExperimentConfig) perGenBytes() int64 {
	return int64(c.FilesPerUser) * c.MeanFileSize
}

// sizing derives the cache/bloom sizing for an experiment from the
// per-user backup lineage, keeping RAM coverage ratios constant across
// scales (the calibration documented in EXPERIMENTS.md): the
// locality-preserved cache covers ~1/20 of one user's ingested containers
// and SiLo's block cache ~1/32 of one user's blocks. bloomBytes sizes the
// Bloom filter and chunk index for the whole store.
func (c ExperimentConfig) sizing(users, gensPerUser int) (bloomBytes int64, lpc, blockCache int) {
	perUserIngest := c.perGenBytes() * int64(gensPerUser)
	lpc = int(perUserIngest / (4 << 20) / 20)
	if lpc < 4 {
		lpc = 4
	}
	blockCache = int(perUserIngest / (3 << 20) / 32)
	if blockCache < 2 {
		blockCache = 2
	}
	bloomBytes = perUserIngest * int64(users)
	return bloomBytes, lpc, blockCache
}

// FigureResult is one regenerated paper figure, as the table of points the
// figure plots plus headline summary values.
type FigureResult struct {
	Figure  string // e.g. "Figure 2"
	Title   string
	Columns []string
	Rows    [][]string
	// Summary holds the headline numbers EXPERIMENTS.md reports
	// (e.g. "ddfs_first_MBps", "ddfs_last_MBps").
	Summary map[string]float64
}

// WriteCSV renders the figure as CSV (header row + data rows), the format
// plotting scripts want.
func (r *FigureResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable renders the figure as an aligned text table.
func (r *FigureResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", r.Figure, r.Title); err != nil {
		return err
	}
	tb := metrics.NewTable(r.Columns...)
	for _, row := range r.Rows {
		tb.AddRow(row...)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// open opens an in-memory store of kind sized by c.sizing for users'
// backups of gensPerUser generations each. oracle attaches the ground-truth
// oracle (Options.TrackEfficiency); defrag is an ablation's edits to DeFrag's
// config, nil for none.
func (c ExperimentConfig) open(kind EngineKind, users, gensPerUser int, oracle bool, defrag func(*core.Config)) (*Store, error) {
	expected, lpc, bc := c.sizing(users, gensPerUser)
	return Open(Options{
		Engine:          kind,
		Alpha:           c.Alpha,
		ExpectedBytes:   expected,
		TrackEfficiency: oracle,
		tune:            engineTuning{lpc: lpc, blockCache: bc, defrag: defrag},
	})
}

// paperRestore is the restore shape of the paper's figures: an LRU cache of
// c.RestoreCache containers (8 when 0), the shape of restore.DefaultConfig.
func (c ExperimentConfig) paperRestore() RestoreOptions {
	return RestoreOptions{CacheContainers: c.RestoreCache, Policy: RestoreLRU}
}

// runSingle opens a store of kind sized for one user's c.Generations backups
// and runs that user's workload through it with RunGenerations, restoring
// each generation with ropts when it is set and handing each to each, when
// that is set. It returns the store and its last backup, for what a figure
// reads after the run.
func (c ExperimentConfig) runSingle(kind EngineKind, oracle bool, defrag func(*core.Config), ropts *RestoreOptions,
	each func(gen int, b *Backup, rst RestoreStats) error) (*Store, *Backup, error) {
	s, err := c.open(kind, 1, c.Generations, oracle, defrag)
	if err != nil {
		return nil, nil, err
	}
	sched, err := workload.NewSingle(c.workloadConfig())
	if err != nil {
		return nil, nil, err
	}
	var last *Backup
	err = RunGenerations(context.Background(), s, sched, c.Generations, ropts, func(gen int, b *Backup, rst RestoreStats) error {
		last = b
		if each == nil {
			return nil
		}
		return each(gen, b, rst)
	})
	return s, last, err
}

// RunFigure2 regenerates the paper's Fig. 2: the degradation of DDFS-Like
// deduplication throughput over Generations full backups of one user.
func RunFigure2(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	res := &FigureResult{
		Figure:  "Figure 2",
		Title:   "Degradation of DDFS-Like deduplication throughput over backup generations",
		Columns: []string{"gen", "throughput_MBps", "index_lookups", "meta_prefetches", "deduped_MB"},
		Summary: map[string]float64{},
	}
	tput := metrics.NewSeries("ddfs")
	if _, _, err := cfg.runSingle(DDFSLike, false, nil, nil, func(gen int, b *Backup, _ RestoreStats) error {
		st := b.Stats
		tput.Add(st.ThroughputMBps())
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(gen),
			metrics.F1(st.ThroughputMBps()),
			fmt.Sprint(st.IndexLookups),
			fmt.Sprint(st.MetaPrefetches),
			metrics.MB(st.DedupedBytes),
		})
		return nil
	}); err != nil {
		return nil, err
	}
	res.Summary["ddfs_first_MBps"] = tput.First()
	res.Summary["ddfs_peak_MBps"] = tput.Max()
	res.Summary["ddfs_last_MBps"] = tput.Last()
	res.Summary["decline_ratio"] = tput.DeclineRatio()
	return res, nil
}

// RunFigure3 regenerates the paper's Fig. 3: the degradation of SiLo-Like
// deduplication efficiency over Generations backups of one user.
func RunFigure3(cfg ExperimentConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	res := &FigureResult{
		Figure:  "Figure 3",
		Title:   "Degradation of SiLo-Like deduplication efficiency over backup generations",
		Columns: []string{"gen", "efficiency", "missed_dup_MB", "sht_hits", "block_reads"},
		Summary: map[string]float64{},
	}
	eff := metrics.NewSeries("silo-eff")
	if _, _, err := cfg.runSingle(SiLoLike, true, nil, nil, func(gen int, b *Backup, _ RestoreStats) error {
		if gen == 1 {
			return nil // generation 1 has no prior redundancy to measure against
		}
		st := b.Stats
		eff.Add(st.Efficiency())
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(gen),
			metrics.F3(st.Efficiency()),
			metrics.MB(st.MissedDupBytes),
			fmt.Sprint(st.SHTHits),
			fmt.Sprint(st.BlockReads),
		})
		return nil
	}); err != nil {
		return nil, err
	}
	res.Summary["silo_eff_first"] = eff.First()
	res.Summary["silo_eff_last3"] = eff.TailMean(3)
	res.Summary["decline_ratio"] = eff.DeclineRatio()
	return res, nil
}
