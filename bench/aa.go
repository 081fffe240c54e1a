package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process (its own set-up time, peak
// RSS and page-cache history), copies its output to w, and returns the
// metrics of its result line with its exit code.
func runChild(workload string, seed int64, seconds float64, trace int, dir string, w io.Writer) (map[string]float64, int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, 2
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-dir", dir)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, w)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, 2
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		fmt.Fprintln(os.Stderr, "bench: result line:", err)
		return nil, 2
	}
	vals := map[string]float64{}
	for k, v := range res.Metrics {
		vals[k] = v.Value
	}
	return vals, 0
}

// runAA is the rig's check on itself: two interleaved sets (A, B, A, B, …)
// of n full runs of the same code. It prints, per workload and end-to-end
// metric, both medians, their relative gap and the bound, as a markdown
// table, and returns non-zero if any gap exceeds its bound: a rig that
// cannot agree with itself cannot gate a change.
func runAA(n int, seed int64, seconds float64, dir string, w io.Writer) int {
	type key struct{ set, workload, metric string }
	samples := map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, set := range []string{"A", "B"} {
			for _, s := range specs {
				fmt.Fprintf(os.Stderr, "bench: A/A run %d/%d set %s %s\n", i+1, n, set, s.name)
				vals, code := runChild(s.name, seed, seconds, 0, dir, io.Discard)
				if code != 0 {
					return code
				}
				for m, v := range vals {
					k := key{set, s.name, m}
					samples[k] = append(samples[k], v)
				}
			}
		}
	}
	fmt.Fprintf(w, "| workload | metric | unit | median A | median B | gap | bound | |\n|---|---|---|---:|---:|---:|---:|---|\n")
	code := 0
	for _, s := range specs {
		for _, d := range endToEnd {
			a := median(samples[key{"A", s.name, d.name}])
			b := median(samples[key{"B", s.name, d.name}])
			gap := math.Abs(a-b) / math.Abs(a)
			verdict := "ok"
			if !(gap <= d.bound) {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				s.name, d.name, d.unit, a, b, gap*100, d.bound*100, verdict)
		}
	}
	return code
}
