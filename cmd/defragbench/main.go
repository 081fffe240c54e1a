// Command defragbench regenerates the paper's evaluation figures as text
// tables, or emits a machine-readable per-generation trajectory.
//
// Usage:
//
//	defragbench [-fig all|eq1|2|3|4|5|6|extended|layout|alpha|ablations] [flags]
//	defragbench -json [-engine defrag] [-gens N] [flags]
//
// Examples:
//
//	defragbench -fig 2                 # DDFS throughput decay (paper Fig. 2)
//	defragbench -fig 4 -backups 30     # shorter throughput comparison
//	defragbench -fig alpha             # the α trade-off sweep
//	defragbench -fig all -files 32     # everything, at reduced scale
//	defragbench -json > bench.jsonl    # one JSONL record per generation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro"
	"repro/internal/cli"
)

func main() { cli.Main("defragbench", realMain) }

func realMain() error {
	var (
		cfg = repro.DefaultExperimentConfig()
		eng cli.Engine
		tel cli.Telemetry
	)
	cli.EngineFlags(&eng)
	cli.SeedFlag(&cfg.Seed, 42)
	cli.RestoreCacheFlag(&cfg.RestoreCache)
	cli.TelemetryFlags(&tel)
	fig := flag.String("fig", "all", "which figures to regenerate, comma-separated: "+strings.Join(figureNames, ", "))
	flag.IntVar(&cfg.Generations, "gens", 20, "generations for single-user experiments (Figs. 2, 3, 6)")
	flag.IntVar(&cfg.Backups, "backups", 66, "backups for multi-user experiments (Figs. 4, 5)")
	flag.IntVar(&cfg.Users, "users", 5, "users for multi-user experiments")
	flag.IntVar(&cfg.FilesPerUser, "files", 64, "files per user (scale knob, ~0.75 MB each)")
	csvDir := flag.String("csvdir", "", "also write each figure as CSV into this directory")
	jsonOut := flag.Bool("json", false, "emit a per-generation JSONL trajectory of -engine to stdout instead of figure tables")
	flag.Parse()
	cfg.Alpha = eng.Alpha

	ep, err := tel.Start(nil)
	if err != nil {
		return err
	}
	defer ep.Close()

	if *jsonOut {
		return emitTrajectory(cfg, eng)
	}
	return dispatch(os.Stdout, *fig, cfg, *csvDir)
}

// emitTrajectory runs one per-generation benchmark trajectory and writes it
// as JSONL (one record per generation: throughput, rewrite ratio, fragments,
// restore performance).
func emitTrajectory(cfg repro.ExperimentConfig, eng cli.Engine) error {
	kind, err := repro.ParseEngineKind(eng.Name)
	if err != nil {
		return err
	}
	points, err := repro.RunTrajectory(cfg, kind)
	if err != nil {
		return err
	}
	return repro.WriteTrajectoryJSONL(os.Stdout, points)
}

// figureNames is every name -fig accepts, in the order the figures print.
var figureNames = []string{"all", "eq1", "2", "3", "4", "5", "6", "extended", "layout", "alpha", "ablations"}

// dispatch writes the figures named in the comma-separated fig to w. An
// unknown name is a usage error, raised before any figure runs.
func dispatch(w io.Writer, fig string, cfg repro.ExperimentConfig, csvDir string) error {
	want := map[string]bool{}
	for _, f := range strings.Split(fig, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figureNames, f) {
			return cli.Usagef("unknown figure %q for -fig (valid: %s)", f, strings.Join(figureNames, ", "))
		}
		want[f] = true
	}
	all := want["all"]

	// Figures 4 and 5 are the two halves of one comparison run.
	var cmp *repro.Comparison
	comparison := func(half func(*repro.Comparison) *repro.FigureResult) func() (*repro.FigureResult, error) {
		return func() (*repro.FigureResult, error) {
			if cmp == nil {
				c, err := repro.RunComparison(cfg)
				if err != nil {
					return nil, err
				}
				cmp = c
			}
			return half(cmp), nil
		}
	}
	figures := []struct {
		name string
		run  func() (*repro.FigureResult, error)
	}{
		{"eq1", repro.RunEquation1},
		{"2", func() (*repro.FigureResult, error) { return repro.RunFigure2(cfg) }},
		{"3", func() (*repro.FigureResult, error) { return repro.RunFigure3(cfg) }},
		{"4", comparison(func(c *repro.Comparison) *repro.FigureResult { return c.Figure4 })},
		{"5", comparison(func(c *repro.Comparison) *repro.FigureResult { return c.Figure5 })},
		{"6", func() (*repro.FigureResult, error) { return repro.RunFigure6(cfg) }},
		{"extended", func() (*repro.FigureResult, error) { return repro.RunExtendedComparison(cfg) }},
		{"layout", func() (*repro.FigureResult, error) { return repro.RunLayoutAnalysis(cfg) }},
		{"alpha", func() (*repro.FigureResult, error) { return repro.RunAlphaSweep(cfg, nil) }},
		{"ablations", func() (*repro.FigureResult, error) { return repro.RunCacheAblation(cfg, nil) }},
		{"ablations", func() (*repro.FigureResult, error) { return repro.RunSegmentAblation(cfg) }},
		{"ablations", func() (*repro.FigureResult, error) { return repro.RunContainerAblation(cfg, nil) }},
		{"ablations", func() (*repro.FigureResult, error) { return repro.RunRestoreAblation(cfg) }},
		{"ablations", func() (*repro.FigureResult, error) { return repro.RunPolicyAblation(cfg) }},
	}
	for _, f := range figures {
		if !all && !want[f.name] {
			continue
		}
		res, err := f.run()
		if err != nil {
			return err
		}
		if err := res.WriteTable(w); err != nil {
			return err
		}
		printSummary(w, res)
		if csvDir != "" {
			if err := writeCSV(csvDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSV stores the figure as <csvdir>/<slug>.csv.
func writeCSV(dir string, res *repro.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.ToLower(strings.NewReplacer(" ", "_", ":", "", "—", "-").Replace(res.Figure))
	f, err := os.Create(filepath.Join(dir, slug+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return res.WriteCSV(f)
}

func printSummary(w io.Writer, res *repro.FigureResult) {
	if len(res.Summary) == 0 {
		return
	}
	keys := make([]string, 0, len(res.Summary))
	for k := range res.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "summary:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %.3f\n", k, res.Summary[k])
	}
	fmt.Fprintln(w)
}
