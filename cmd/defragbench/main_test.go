package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/cli"
)

// The exit status is the process's, so the test binary re-execs itself as
// defragbench when the marker variable is set (cmd/dedupd's e2e tests do the
// same).
const childEnv = "DEFRAGBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		cli.Main("defragbench", realMain)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFigSelection holds -fig to its list: a known name prints that figure
// and no other, an unknown one is a usage error that names the valid figures
// and is raised before anything runs.
func TestFigSelection(t *testing.T) {
	cfg := repro.ExperimentConfig{
		Seed: 42, Generations: 3, Backups: 4, Users: 2,
		FilesPerUser: 4, MeanFileSize: 256 << 10, Alpha: 0.1,
	}
	headings := func(out string) []string {
		var hs []string
		for _, line := range strings.Split(out, "\n") {
			if fig, _, ok := strings.Cut(line, " — "); ok {
				hs = append(hs, fig)
			}
		}
		return hs
	}
	for _, tc := range []struct {
		fig  string
		want []string // figure headings, in print order; nil = usage error
	}{
		{"all", []string{"Equation 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
			"Extended comparison", "Layout analysis", "Ablation: alpha sweep", "Ablation: LPC capacity",
			"Ablation: segment size", "Ablation: container size", "Ablation: restore strategy", "Ablation: rewrite policy"}},
		{"eq1", []string{"Equation 1"}},
		{"2,6", []string{"Figure 2", "Figure 6"}},
		{"bogus", nil},
		{"2,bogus", nil},
	} {
		var out bytes.Buffer
		err := dispatch(&out, tc.fig, cfg, "")
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), `"bogus"`) ||
				!strings.Contains(err.Error(), strings.Join(figureNames, ", ")) {
				t.Errorf("-fig %s: error %v, want one naming \"bogus\" and the valid figures", tc.fig, err)
			}
			if out.Len() != 0 {
				t.Errorf("-fig %s printed before rejecting the name:\n%s", tc.fig, out.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("-fig %s: %v", tc.fig, err)
			continue
		}
		if got := headings(out.String()); !slices.Equal(got, tc.want) {
			t.Errorf("-fig %s printed %q, want %q", tc.fig, got, tc.want)
		}
	}

	cmd := exec.Command(os.Args[0], "-fig", "bogus")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("defragbench -fig bogus: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), strings.Join(figureNames, ", ")) {
		t.Errorf("defragbench -fig bogus did not list the valid figures:\n%s", out)
	}
}
