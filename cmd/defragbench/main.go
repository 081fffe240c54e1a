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
	"repro/internal/telemetry"
)

func main() { cli.Main("defragbench", realMain) }

func realMain() error {
	var (
		fig       = flag.String("fig", "all", "which figures to regenerate, comma-separated: "+strings.Join(figureNames, ", "))
		seed      = flag.Int64("seed", 42, "workload seed")
		gens      = flag.Int("gens", 20, "generations for single-user experiments (Figs. 2, 3, 6)")
		backups   = flag.Int("backups", 66, "backups for multi-user experiments (Figs. 4, 5)")
		users     = flag.Int("users", 5, "users for multi-user experiments")
		files     = flag.Int("files", 64, "files per user (scale knob, ~0.75 MB each)")
		alpha     = flag.Float64("alpha", 0.1, "DeFrag SPL threshold α")
		csvDir    = flag.String("csvdir", "", "also write each figure as CSV into this directory")
		jsonOut   = flag.Bool("json", false, "emit a per-generation JSONL trajectory to stdout instead of figure tables")
		engine    = flag.String("engine", "defrag", "engine for -json trajectories: defrag, ddfs, silo, sparse, idedup")
		rCache    = flag.Int("restore.cache", 0, "restore cache capacity in containers (0 = restore default, 8)")
		telAddr   = flag.String("telemetry.addr", "", "serve live /metrics, /debug/snapshot and /debug/pprof on this address")
		telEvents = flag.String("telemetry.events", "", "write JSONL span events to this file")
	)
	flag.Parse()

	ep, err := telemetry.StartEndpoint(*telAddr, *telEvents)
	if err != nil {
		return err
	}
	defer ep.Close()
	if a := ep.Addr(); a != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", a)
	}

	cfg := repro.DefaultExperimentConfig()
	cfg.Seed = *seed
	cfg.Generations = *gens
	cfg.Backups = *backups
	cfg.Users = *users
	cfg.FilesPerUser = *files
	cfg.Alpha = *alpha
	cfg.RestoreCache = *rCache

	if *jsonOut {
		return emitTrajectory(cfg, *engine)
	}
	return dispatch(os.Stdout, *fig, cfg, *csvDir)
}

// emitTrajectory runs one per-generation benchmark trajectory and writes it
// as JSONL (one record per generation: throughput, rewrite ratio, fragments,
// restore performance).
func emitTrajectory(cfg repro.ExperimentConfig, engineName string) error {
	kind, err := repro.ParseEngineKind(engineName)
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

	show := func(res *repro.FigureResult, err error) error {
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
		return nil
	}

	if all || want["eq1"] {
		if err := show(repro.RunEquation1()); err != nil {
			return err
		}
	}
	if all || want["2"] {
		if err := show(repro.RunFigure2(cfg)); err != nil {
			return err
		}
	}
	if all || want["3"] {
		if err := show(repro.RunFigure3(cfg)); err != nil {
			return err
		}
	}
	if all || want["4"] || want["5"] {
		c, err := repro.RunComparison(cfg)
		if err != nil {
			return err
		}
		if all || want["4"] {
			if err := show(c.Figure4, nil); err != nil {
				return err
			}
		}
		if all || want["5"] {
			if err := show(c.Figure5, nil); err != nil {
				return err
			}
		}
	}
	if all || want["6"] {
		if err := show(repro.RunFigure6(cfg)); err != nil {
			return err
		}
	}
	if all || want["extended"] {
		if err := show(repro.RunExtendedComparison(cfg)); err != nil {
			return err
		}
	}
	if all || want["layout"] {
		if err := show(repro.RunLayoutAnalysis(cfg)); err != nil {
			return err
		}
	}
	if all || want["alpha"] {
		if err := show(repro.RunAlphaSweep(cfg, nil)); err != nil {
			return err
		}
	}
	if all || want["ablations"] {
		if err := show(repro.RunCacheAblation(cfg, nil)); err != nil {
			return err
		}
		if err := show(repro.RunSegmentAblation(cfg)); err != nil {
			return err
		}
		if err := show(repro.RunContainerAblation(cfg, nil)); err != nil {
			return err
		}
		if err := show(repro.RunRestoreAblation(cfg)); err != nil {
			return err
		}
		if err := show(repro.RunPolicyAblation(cfg)); err != nil {
			return err
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
