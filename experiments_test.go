package repro

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// tinyCfg keeps experiment tests fast (~6 MB per generation).
func tinyCfg() ExperimentConfig {
	return ExperimentConfig{
		Seed:         42,
		Generations:  10,
		Backups:      12,
		Users:        3,
		FilesPerUser: 8,
		MeanFileSize: 640 << 10,
		Alpha:        0.1,
	}
}

func TestConfigDefaults(t *testing.T) {
	var c ExperimentConfig
	d := c.withDefaults()
	if d.Generations != 20 || d.Backups != 66 || d.Users != 5 || d.Alpha != 0 {
		// Alpha 0 is a legitimate explicit value; only negatives default.
		t.Fatalf("defaults: %+v", d)
	}
	c.Alpha = -1
	if c.withDefaults().Alpha != 0.1 {
		t.Fatal("negative alpha must default to the paper's 0.1")
	}
}

func TestRunFigure2Shape(t *testing.T) {
	res, err := RunFigure2(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The Fig. 2 claim: throughput at the end is below the peak.
	if res.Summary["ddfs_last_MBps"] >= res.Summary["ddfs_peak_MBps"] {
		t.Fatalf("DDFS throughput did not degrade: %+v", res.Summary)
	}
	if res.Summary["decline_ratio"] >= 1 {
		t.Fatalf("decline ratio %v", res.Summary["decline_ratio"])
	}
}

func TestRunFigure3Shape(t *testing.T) {
	res, err := RunFigure3(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 { // generation 1 is skipped (no prior redundancy)
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first := res.Summary["silo_eff_first"]
	last := res.Summary["silo_eff_last3"]
	if first <= 0 || first > 1 || last <= 0 || last > 1 {
		t.Fatalf("efficiency out of range: first=%v last=%v", first, last)
	}
	if last >= first {
		t.Fatalf("SiLo efficiency did not decay: first=%v last3=%v", first, last)
	}
}

func TestRunComparisonShape(t *testing.T) {
	// The efficiency ordering (Fig. 5) only emerges once locality has had
	// generations to decay, so this test runs a longer schedule: 36
	// backups = 12 generations per user.
	cfg := tinyCfg()
	cfg.Backups = 36
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f4, f5 := c.Figure4, c.Figure5
	if len(f4.Rows) != 36 {
		t.Fatalf("fig4 rows = %d", len(f4.Rows))
	}
	if len(f5.Rows) != 36-3 { // first backup of each of 3 users skipped
		t.Fatalf("fig5 rows = %d", len(f5.Rows))
	}
	// Fig. 4 claim: DeFrag and SiLo beat DDFS at late generations.
	if f4.Summary["defrag_last5_MBps"] <= f4.Summary["ddfs_last5_MBps"] {
		t.Fatalf("DeFrag should beat DDFS late: %+v", f4.Summary)
	}
	if f4.Summary["silo_last5_MBps"] <= f4.Summary["ddfs_last5_MBps"] {
		t.Fatalf("SiLo should beat DDFS late: %+v", f4.Summary)
	}
	// Fig. 5 claim: DeFrag leaves less redundancy unremoved than SiLo.
	if f5.Summary["defrag_unremoved_last5"] >= f5.Summary["silo_unremoved_last5"] {
		t.Fatalf("DeFrag should out-remove SiLo: %+v", f5.Summary)
	}
}

func TestRunFigure6Shape(t *testing.T) {
	res, err := RunFigure6(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Summary["defrag_read_last3_MBps"] <= res.Summary["ddfs_read_last3_MBps"] {
		t.Fatalf("DeFrag read performance should beat DDFS: %+v", res.Summary)
	}
	if res.Summary["defrag_over_ddfs"] <= 1 {
		t.Fatalf("ratio %v", res.Summary["defrag_over_ddfs"])
	}
}

func TestRunEquation1(t *testing.T) {
	res, err := RunEquation1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[1] != row[2] {
			t.Fatalf("predicted %s != measured %s for N=%s", row[1], row[2], row[0])
		}
	}
	if res.Summary["scattered128_ms"] <= res.Summary["contiguous_ms"] {
		t.Fatal("scattering must cost time")
	}
}

func TestRunAlphaSweep(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 8
	res, err := RunAlphaSweep(cfg, []float64{0, 0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// α=0 must rewrite nothing; α=0.8 must rewrite plenty.
	if res.Rows[0][4] != "0.0" {
		t.Fatalf("α=0 rewrote %s MB", res.Rows[0][4])
	}
	if res.Rows[2][4] == "0.0" {
		t.Fatal("α=0.8 rewrote nothing")
	}
}

func TestRunCacheAblation(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 6
	res, err := RunCacheAblation(cfg, []int{2, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestRunSegmentAblation(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 6
	res, err := RunSegmentAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestRunContainerAblation(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 6
	res, err := RunContainerAblation(cfg, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestFigureWriteTable(t *testing.T) {
	res, err := RunEquation1()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Equation 1") || !strings.Contains(out, "fragments_N") {
		t.Fatalf("table output:\n%s", out)
	}
}

// TestRunRestoreAblation holds the restore-strategy table to what it claims:
// Belady's bound and coalescing row by row, the pipelined restore at >= 2x
// the serial LRU one where the cache is smallest (PR 3's acceptance bar), and
// a table that is a function of the workload alone — GOMAXPROCS sizes the
// wall-clock hashing and decode pools and must not move a simulated column.
func TestRunRestoreAblation(t *testing.T) {
	table := func(procs int) *FigureResult {
		t.Helper()
		setProcs(t, procs)
		cfg := tinyCfg()
		cfg.Generations = 6
		res, err := RunRestoreAblation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := table(1)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	col := func(row []string, name string) float64 {
		t.Helper()
		for i, c := range res.Columns {
			if c == name {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatalf("column %s of row %v: %v", name, row, err)
				}
				return v
			}
		}
		t.Fatalf("no column %s in %v", name, res.Columns)
		return 0
	}
	for _, row := range res.Rows {
		if col(row, "opt_creads") > col(row, "lru_creads") {
			t.Errorf("budget %s MB: OPT fetched more containers than LRU: %v", row[0], row)
		}
		if col(row, "pipe_extents") > col(row, "opt_creads") {
			t.Errorf("budget %s MB: coalescing issued more reads than OPT fetches: %v", row[0], row)
		}
	}
	first := res.Rows[0] // the smallest cache, where the strategies differ most
	if first[0] != "8" || col(first, "pipe_read_MBps") < 2*col(first, "lru_read_MBps") {
		t.Errorf("8 MB row: pipelined restore below 2x serial LRU: %v", first)
	}
	if col(first, "pipe_extents") >= col(first, "opt_creads") {
		t.Errorf("8 MB row: coalescing merged no reads: %v", first)
	}
	for _, procs := range []int{2, 8} {
		if got := table(procs); !reflect.DeepEqual(got, res) {
			t.Errorf("GOMAXPROCS=%d moved the table:\n%v\nwant\n%v", procs, got.Rows, res.Rows)
		}
	}
}

func TestRunLayoutAnalysis(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 8
	res, err := RunLayoutAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Summary["defrag_final_hitrate"] < res.Summary["ddfs_final_hitrate"] {
		t.Fatalf("DeFrag layout should predict at least DDFS's cacheability: %+v", res.Summary)
	}
}

func TestBackupLayoutAccessor(t *testing.T) {
	s, _ := Open(Options{Engine: DDFSLike, ExpectedBytes: 16 << 20})
	b, err := s.Backup(context.Background(), "l", bytes.NewReader(randStream(2<<20, 91)))
	if err != nil {
		t.Fatal(err)
	}
	li := b.Layout()
	if li.Chunks == 0 || li.Fragments == 0 || li.MeanRunBytes <= 0 {
		t.Fatalf("layout info: %+v", li)
	}
	if li.PredictedHitRate8 < 0 || li.PredictedHitRate8 > 1 {
		t.Fatalf("hit rate out of range: %v", li.PredictedHitRate8)
	}
}

func TestRunPolicyAblation(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 6
	res, err := RunPolicyAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0] != "spl" || res.Rows[1][0] != "container" {
		t.Fatalf("policy rows: %v", res.Rows)
	}
}

func TestRunExtendedComparison(t *testing.T) {
	cfg := tinyCfg()
	cfg.Generations = 6
	res, err := RunExtendedComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"ddfs-like", "silo-like", "sparse-index", "idedup", "defrag"} {
		if !names[want] {
			t.Fatalf("missing engine %s: %v", want, names)
		}
	}
}

func TestFigureWriteCSV(t *testing.T) {
	res, err := RunEquation1()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(res.Rows)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(res.Rows)+1)
	}
	if !strings.HasPrefix(lines[0], "fragments_N,") {
		t.Fatalf("csv header: %q", lines[0])
	}
}
