// Command defragbench regenerates the paper's evaluation figures as text
// tables, or emits a machine-readable per-generation trajectory.
//
// Usage:
//
//	defragbench [-fig all|2|3|4|5|6|eq1|alpha|ablations] [flags]
//	defragbench -json [-engine defrag] [-gens N] [flags]
//
// Examples:
//
//	defragbench -fig 2                 # DDFS throughput decay (paper Fig. 2)
//	defragbench -fig 4 -backups 30     # shorter throughput comparison
//	defragbench -fig alpha             # the α trade-off sweep
//	defragbench -fig all -files 32     # everything, at reduced scale
//	defragbench -json > bench.jsonl    # one JSONL record per generation
//	defragbench -multistream BENCH_PR2.json   # multi-stream scaling sweep
//	defragbench -restorebench BENCH_PR3.json  # restore strategy sweep (LRU/OPT/FAA/pipelined)
//	defragbench -maintbench BENCH_PR9.json    # online maintenance restore-of-latest curve
//	defragbench -scenariobench BENCH_PR10.json # cross-scenario table + filter ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/telemetry"
)

func main() { cli.Main("defragbench", realMain) }

func realMain() error {
	var (
		fig       = flag.String("fig", "all", "which figure to regenerate: all, 2, 3, 4, 5, 6, eq1, extended, layout, alpha, ablations (comma-separated)")
		seed      = flag.Int64("seed", 42, "workload seed")
		gens      = flag.Int("gens", 20, "generations for single-user experiments (Figs. 2, 3, 6)")
		backups   = flag.Int("backups", 66, "backups for multi-user experiments (Figs. 4, 5)")
		users     = flag.Int("users", 5, "users for multi-user experiments")
		files     = flag.Int("files", 64, "files per user (scale knob, ~0.75 MB each)")
		alpha     = flag.Float64("alpha", 0.1, "DeFrag SPL threshold α")
		csvDir    = flag.String("csvdir", "", "also write each figure as CSV into this directory")
		jsonOut   = flag.Bool("json", false, "emit a per-generation JSONL trajectory to stdout instead of figure tables")
		engine    = flag.String("engine", "defrag", "engine for -json trajectories: defrag, ddfs, silo, sparse, idedup")
		workers   = flag.Int("workers", 0, "parallel fingerprinting workers per backup (0 = auto/GOMAXPROCS, 1 = serial)")
		msOut     = flag.String("multistream", "", "run the multi-stream scaling benchmark and write JSON to this file (\"-\" = stdout)")
		streams   = flag.String("streams", "1,2,4,8", "comma-separated concurrency levels for -multistream")
		rbOut     = flag.String("restorebench", "", "run the restore strategy sweep (LRU/OPT/FAA/pipelined per generation) and write JSON to this file (\"-\" = stdout)")
		mbOut     = flag.String("maintbench", "", "run the maintenance benchmark (restore-of-latest vs generation, with and without the online pass) and write JSON to this file (\"-\" = stdout)")
		sbOut     = flag.String("scenariobench", "", "run the cross-scenario benchmark (backup/primary/workspace table plus the primary inline-filter ablation) and write JSON to this file (\"-\" = stdout)")
		sbRounds  = flag.Int("scenario.rounds", 0, "backups per stream for -scenariobench (0 = default 4)")
		sbBytes   = flag.Int64("scenario.bytes", 0, "approximate bytes per backup for -scenariobench (0 = default 4 MiB)")
		rWorkers  = flag.Int("restore.workers", 8, "simulated read lanes for the pipelined restore (-restorebench and -json restores)")
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
	cfg.Workers = *workers
	cfg.RestoreCache = *rCache

	if *rbOut != "" {
		return emitRestoreBench(cfg, *engine, *rCache, *rWorkers, *rbOut)
	}
	if *sbOut != "" {
		return emitScenarioBench(repro.ScenarioBenchConfig{
			Seed:           *seed,
			Users:          *users,
			Rounds:         *sbRounds,
			BytesPerStream: *sbBytes,
		}, *sbOut)
	}
	if *mbOut != "" {
		return emitMaintBench(cfg, *mbOut)
	}
	if *msOut != "" {
		return emitMultiStream(cfg, *engine, *streams, *msOut)
	}
	if *jsonOut {
		return emitTrajectory(cfg, *engine)
	}
	return dispatch(*fig, cfg, *csvDir)
}

// emitTrajectory runs one per-generation benchmark trajectory and writes it
// as JSONL (one record per generation: throughput, rewrite ratio, fragments,
// restore performance) so BENCH_*.json files can be captured mechanically.
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

// emitRestoreBench runs the restore strategy sweep — every generation's
// recipe restored through LRU, OPT, FAA and the full pipeline — and writes
// the JSON result (BENCH_PR3.json's format) to out.
func emitRestoreBench(cfg repro.ExperimentConfig, engineName string, cache, workers int, out string) error {
	kind, err := repro.ParseEngineKind(engineName)
	if err != nil {
		return err
	}
	bench, err := repro.RunRestoreBench(cfg, kind, cache, workers)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return repro.WriteRestoreBenchJSON(w, bench)
}

// emitMaintBench runs the maintenance benchmark — the same mutating
// workload ingested into a maintained and an unmaintained DeFrag store,
// restore-of-latest measured every generation — and writes the JSON result
// (BENCH_PR9.json's format) to out.
func emitMaintBench(cfg repro.ExperimentConfig, out string) error {
	bench, err := repro.RunMaintBench(cfg, repro.MaintenanceOptions{})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return repro.WriteMaintBenchJSON(w, bench)
}

// emitScenarioBench runs the cross-scenario benchmark — one seeded run per
// scenario (backup, primary, workspace) through a DeFrag store, every
// restore hash-verified, plus the primary-storage filter-vs-baseline
// ablation — and writes the JSON result (BENCH_PR10.json's format) to out.
func emitScenarioBench(cfg repro.ScenarioBenchConfig, out string) error {
	bench, err := repro.RunScenarioBench(cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return repro.WriteScenarioBenchJSON(w, bench)
}

// emitMultiStream runs the multi-stream scaling benchmark — the same
// multi-user schedule ingested at each concurrency level — and writes the
// JSON result (wall and simulated speedups per level) to out.
func emitMultiStream(cfg repro.ExperimentConfig, engineName, levelsCSV, out string) error {
	kind, err := repro.ParseEngineKind(engineName)
	if err != nil {
		return err
	}
	var levels []int
	for _, f := range strings.Split(levelsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -streams level %q", f)
		}
		levels = append(levels, n)
	}
	bench, err := repro.RunMultiStreamBench(cfg, kind, levels)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return repro.WriteMultiStreamJSON(w, bench)
}

func dispatch(fig string, cfg repro.ExperimentConfig, csvDir string) error {
	want := map[string]bool{}
	for _, f := range strings.Split(fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	show := func(res *repro.FigureResult, err error) error {
		if err != nil {
			return err
		}
		if err := res.WriteTable(os.Stdout); err != nil {
			return err
		}
		printSummary(res)
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

func printSummary(res *repro.FigureResult) {
	if len(res.Summary) == 0 {
		return
	}
	keys := make([]string, 0, len(res.Summary))
	for k := range res.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("summary:")
	for _, k := range keys {
		fmt.Printf("  %-28s %.3f\n", k, res.Summary[k])
	}
	fmt.Println()
}
