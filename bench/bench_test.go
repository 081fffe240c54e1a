package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/chunker"
)

// toySize drives every code path in milliseconds: one warm-up and one
// measured cycle of eight ≈ 0.25 MB generations (two more than churn-maint
// retains) or two users' fulls, one traced cycle, one pass of each rung.
var toySize = sizing{
	gens: 8, users: 2, numFiles: 4, meanFileSize: 45 << 10,
	warmups: 1, minCycles: 1, tracedCycles: 1, restorePasses: 1, rungSeconds: 0.001,
}

// toyRun runs one workload at toy size in dir ("" for a fresh one).
func toyRun(t *testing.T, s spec, trace bool, seed int64, dir string) *report {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	rep, err := run(context.Background(), config{spec: s, sz: toySize, seed: seed, trace: trace, dir: dir})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", s.name, trace, err)
	}
	if rep.failed != 0 {
		t.Fatalf("%s trace=%v: %d of %d ops failed: %v", s.name, trace, rep.failed, rep.attempted, rep.failures)
	}
	return rep
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type manifest struct {
	Command    []string
	Paths      []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatches pins BENCHMARK.json to the tables in this package:
// the gated workloads with the same reasons, and every metric with the same
// name, unit, direction and bound, in the same order.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, -seconds defaults to %v", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(specs))
	}
	for i, s := range specs {
		if m.Workloads[i].Name != s.name || m.Workloads[i].Why != s.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], s.name, s.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: manifest {%s %s %s}, code {%s %s %s}", kind, i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: manifest bound %v, code %v (must be in (0, 0.25])", kind, d.name, got.Bound, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size, untraced
// and traced: each emits exactly the metrics of its mode, all finite, the
// result line parses, and the written span tree is well-formed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, s := range allSpecs {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			rep := toyRun(t, s, trace, 7, dir)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.values) != len(defs) {
				t.Errorf("%s trace=%v: %d values for %d declared metrics", s.name, trace, len(rep.values), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.values[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v (present=%v)", s.name, trace, d.name, v, ok)
				}
			}
			if !trace {
				for _, d := range defs {
					if rep.values[d.name] <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must never be 0", s.name, d.name, rep.values[d.name])
					}
				}
			}

			var out bytes.Buffer
			rep.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", s.name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line %+v", s.name, trace, res)
			}
			for _, d := range defs {
				if res.Metrics[d.name].Unit != d.unit {
					t.Errorf("%s: %s printed with unit %q, want %q", s.name, d.name, res.Metrics[d.name].Unit, d.unit)
				}
			}

			if trace {
				checkTraceFile(t, s, filepath.Join(dir, "trace-"+s.name+".jsonl"))
			}
		}
	}
}

// checkTraceFile re-reads the JSON-lines trace and checks the tree: every
// parent exists, children lie inside parents, self times are not negative,
// and the workload's ops and backend calls are all there.
func checkTraceFile(t *testing.T, s spec, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, sp)
		names[sp.Name] = true
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("%s: %v", s.name, err)
	}
	want := []string{"run", "cycle", "store.open", "store.close", s.ingestOp(), s.restoreOp(), "blockstore.seal", "blockstore.read"}
	if s.retention > 0 {
		want = append(want, "store.forget", "store.maintenance_epoch")
	}
	if s.backend.String() == "file" {
		want = append(want, "store.reopen")
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("%s: no %q span in the trace", s.name, n)
		}
	}
}

// TestSeedDeterminism: -seed is the only source of input bytes, and with one
// client and no timers every count repeats exactly.
func TestSeedDeterminism(t *testing.T) {
	exact := regexp.MustCompile(`^(stored_per_user_byte|write_amp|sim_.*|blockstore\..*_(calls|bytes|files)|core\.(dup|rewritten)_frac|core\..*_per_kchunk|core\.fragments_last|maintenance\.(epochs|bytes_.*|containers_merged|refs_remapped|dead_frac_end)|restore\.(container_reads_per_gb|cache_hit_rate))$`)
	for _, s := range allSpecs {
		if s.clients() > 1 {
			continue
		}
		for _, trace := range []bool{false, true} {
			a, b := toyRun(t, s, trace, 11, ""), toyRun(t, s, trace, 11, "")
			n := 0
			for k, v := range a.values {
				if exact.MatchString(k) {
					n++
					if b.values[k] != v {
						t.Errorf("%s: %s = %v then %v at one seed", s.name, k, v, b.values[k])
					}
				}
			}
			if n == 0 {
				t.Errorf("%s trace=%v: no deterministic metric compared", s.name, trace)
			}
		}
	}

	digest := func(seed int64) [32]byte {
		in, err := toySize.generate(false, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, it := range in.items {
			h.Write(it.data)
		}
		return [32]byte(h.Sum(nil))
	}
	if digest(11) != digest(11) {
		t.Error("one seed gave two different inputs")
	}
	if digest(11) == digest(12) {
		t.Error("two seeds gave the same inputs")
	}
}

// TestSeedKeepsChunkBoundaries: the seed-drawn job header must sit inside
// the first chunk's skip-ahead region, so two seeds cut every stream at the
// same offsets and differ in the first chunk only. If a chunker change
// breaks this, seeds start to flip dedup decisions and the 1 % bounds on the
// deterministic metrics stop being meetable.
func TestSeedKeepsChunkBoundaries(t *testing.T) {
	if min := chunker.DefaultParams().Min; jobHeaderLen > min-64 {
		t.Fatalf("job header of %d bytes reaches the boundary search of a %d-byte minimum chunk", jobHeaderLen, min)
	}
	lengths := func(data []byte) (out []int) {
		if err := cut(data, func(c []byte) { out = append(out, len(c)) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, err := toySize.generate(true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := toySize.generate(true, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.items {
		la, lb := lengths(a.items[i].data), lengths(b.items[i].data)
		if !slices.Equal(la, lb) {
			t.Fatalf("stream %d: two seeds cut it differently", i)
		}
		first := la[0]
		if bytes.Equal(a.items[i].data[:first], b.items[i].data[:first]) {
			t.Errorf("stream %d: two seeds gave the same first chunk", i)
		}
		if !bytes.Equal(a.items[i].data[first:], b.items[i].data[first:]) {
			t.Errorf("stream %d: two seeds differ beyond the first chunk", i)
		}
	}
}

// TestCorruptionCountsAsFailure is the rig's self-test: one flipped byte in
// one restored stream must show as ops_failed = 1, correct = false and a
// non-zero exit.
func TestCorruptionCountsAsFailure(t *testing.T) {
	for _, s := range allSpecs {
		cfg := config{spec: s, sz: toySize, seed: 3, dir: t.TempDir(), corruptOnce: true}
		var out bytes.Buffer
		if code := runOne(context.Background(), cfg, &out); code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted restore", s.name)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct bool
			Failed  int
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: result %+v, want correct=false failed=1\n%s", s.name, res, out.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.95: 3.85} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 80, End: 90}}
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("self time = %d, want 40 (100 minus the 60 covered)", got)
	}
}
