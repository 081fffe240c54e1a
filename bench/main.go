// Command bench is the repository's performance rig: four gated long-cycle
// workloads (and fulls-disk, run by name) driven through the public Store
// and serve APIs, every restored byte checked, twelve end-to-end metrics per
// workload and, with -trace 1, a span trace plus an outside-in ladder of
// per-layer metrics. README.md in this directory defines every workload and
// metric; BENCHMARK.json at the repository root is the machine-readable
// list.
//
//	go run -C bench . -workload gens-mem             # one workload, end-to-end metrics
//	go run -C bench . -workload churn-maint -trace 1 # its per-layer metrics and trace
//	go run -C bench . -workload all                  # the gated four, one process each
//	go run -C bench . -workload fulls-disk           # the disk-bound workload, not gated
//	go run -C bench . -aa 3                          # A/A check of the rig itself
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
)

// processStart anchors setup_s: everything from here to the first measured
// cycle (input generation, pre-touch, warm-up cycles) is set-up.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: gens-mem, fulls-mem, churn-maint, serve-mixed, all (those four), or fulls-disk (not gated)")
		seed     = flag.Int64("seed", 42, "the only source of input bytes")
		seconds  = flag.Float64("seconds", defaultSeconds, "measure for at least this long (whole cycles)")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
		dir      = flag.String("dir", ".run", "root for store directories and trace output; not tmpfs for disk workloads")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N full runs and compare their medians")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *dir, os.Stdout))
	case *workload == "all":
		code := 0
		for _, s := range specs {
			if _, c := runChild(s.name, *seed, *seconds, *trace, *dir, os.Stdout); c != 0 {
				code = c
			}
		}
		os.Exit(code)
	}
	s, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{spec: s, sz: fullSize, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	os.Exit(runOne(context.Background(), cfg, os.Stdout))
}

// runOne guards the host, runs one workload and prints its report. The exit
// code is 0 only when every op succeeded.
func runOne(ctx context.Context, cfg config, w io.Writer) int {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	host, err := probeHost(cfg.dir)
	if err == nil {
		err = guard(host, cfg.spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%g trace=%v dir=%s\n", cfg.spec.name, cfg.seed, cfg.seconds, cfg.trace, cfg.dir)
	fmt.Fprintf(w, "# host %s\n", host)
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep.print(w)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// guard refuses a host on which the workload's numbers would mean
// something else: fewer cores than client goroutines, or "disk" in RAM.
func guard(h hostInfo, s spec) error {
	if s.clients() > h.NumCPU {
		return fmt.Errorf("%s runs %d client goroutines but the host has %d CPU(s)", s.name, s.clients(), h.NumCPU)
	}
	if s.backend == repro.FileBackend && memoryBacked(h.FSType) {
		return fmt.Errorf("%s is a disk workload but the store root is on %s; choose another root with -dir", s.name, h.FSType)
	}
	return nil
}

// print writes the notes, every metric by name with its unit, and last the
// result line the driver reads: one JSON object. A run with a failed op
// reports no metrics.
func (rep *report) print(w io.Writer) {
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "# FAILED", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if rep.failed == 0 {
		for _, d := range rep.defs {
			fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, rep.values[d.name], d.unit)
			metrics[d.name] = value{rep.values[d.name], d.unit}
		}
	}
	fmt.Fprintf(w, "%-34s %16d count\n%-34s %16d count\n", "ops_total", rep.attempted, "ops_failed", rep.failed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		panic(err) // a NaN metric: a bug in the rig, never input
	}
	fmt.Fprintf(w, "%s\n", line)
}
