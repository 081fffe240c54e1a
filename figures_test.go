package repro

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// figureCfg is the scale of the figure transcript: every figure at once in a
// few seconds.
func figureCfg() ExperimentConfig {
	return ExperimentConfig{
		Seed:         42,
		Generations:  6,
		Backups:      8,
		Users:        2,
		FilesPerUser: 8,
		MeanFileSize: 768 << 10,
		Alpha:        0.1,
	}
}

// renderFigure writes res as exact strings: its title, columns and rows, and
// its Summary sorted by key with every float at full precision.
func renderFigure(w *strings.Builder, res *FigureResult) {
	fmt.Fprintf(w, "== %s — %s\n", res.Figure, res.Title)
	fmt.Fprintln(w, strings.Join(res.Columns, " "))
	for _, row := range res.Rows {
		fmt.Fprintln(w, strings.Join(row, " "))
	}
	keys := make([]string, 0, len(res.Summary))
	for k := range res.Summary {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%s\n", k, strconv.FormatFloat(res.Summary[k], 'g', -1, 64))
	}
}

// figureTranscript runs every figure runner at cfg and renders each result.
func figureTranscript(t *testing.T, cfg ExperimentConfig) string {
	t.Helper()
	var w strings.Builder
	add := func(res *FigureResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		renderFigure(&w, res)
	}
	add(RunEquation1())
	add(RunFigure2(cfg))
	add(RunFigure3(cfg))
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	add(c.Figure4, nil)
	add(c.Figure5, nil)
	add(RunFigure6(cfg))
	add(RunExtendedComparison(cfg))
	add(RunLayoutAnalysis(cfg))
	add(RunAlphaSweep(cfg, nil))
	add(RunCacheAblation(cfg, nil))
	add(RunSegmentAblation(cfg))
	add(RunContainerAblation(cfg, nil))
	add(RunRestoreAblation(cfg))
	add(RunPolicyAblation(cfg))
	return w.String()
}

// TestFigureTranscript pins every figure's rows and summary values, to the
// last digit, at figureCfg's scale. The figures are the paper's claims: a
// change to the engines, the store or the restore path that moves any of
// them shows here as a line diff, and a change that means to move them
// rewrites figureGolden and says why.
func TestFigureTranscript(t *testing.T) {
	got := figureTranscript(t, figureCfg())
	if got == figureGolden {
		return
	}
	want := strings.Split(figureGolden, "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < max(len(want), len(lines)); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	t.Fatal("the figure transcript moved")
}

// TestFigureRestoreCache: ExperimentConfig.RestoreCache reaches the figures'
// restores. Fig. 6 restored through a 2-container cache reads more containers
// than through the default 8, and so reads slower.
func TestFigureRestoreCache(t *testing.T) {
	reads := telemetry.NewCounter("restore_container_reads_total", "")
	run := func(cache int) (*FigureResult, int64) {
		t.Helper()
		cfg := figureCfg()
		cfg.RestoreCache = cache
		before := reads.Value()
		res, err := RunFigure6(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, reads.Value() - before
	}
	def, defReads := run(0)
	small, smallReads := run(2)
	if smallReads <= defReads {
		t.Errorf("container reads: %d at RestoreCache 2, %d at the default", smallReads, defReads)
	}
	for _, k := range []string{"ddfs_read_last3_MBps", "defrag_read_last3_MBps"} {
		if small.Summary[k] >= def.Summary[k] {
			t.Errorf("%s: %v at RestoreCache 2, %v at the default", k, small.Summary[k], def.Summary[k])
		}
	}
}

const figureGolden = `== Equation 1 — F(read) = N*T_seek + size/W_seq for a 64 MB file in N fragments
fragments_N predicted_ms measured_ms read_MBps
1 195.7 195.7 342.8
2 199.7 199.7 336.0
4 207.7 207.7 323.0
8 223.7 223.7 299.9
16 255.7 255.7 262.4
32 319.7 319.7 209.9
64 447.7 447.7 149.9
128 703.7 703.7 95.4
contiguous_ms=195.739611
scattered128_ms=703.73952
== Figure 2 — Degradation of DDFS-Like deduplication throughput over backup generations
gen throughput_MBps index_lookups meta_prefetches deduped_MB
1 185.8 0 0 0.0
2 194.0 2 2 6.3
3 284.9 1 1 7.7
4 273.9 1 1 7.7
5 161.7 5 5 8.5
6 151.2 5 5 8.6
ddfs_first_MBps=185.77892587232557
ddfs_last_MBps=151.2234130666417
ddfs_peak_MBps=284.8586415254435
decline_ratio=0.8139965949128604
== Figure 3 — Degradation of SiLo-Like deduplication efficiency over backup generations
gen efficiency missed_dup_MB sht_hits block_reads
2 1.000 0.0 13 3
3 1.000 0.0 20 6
4 0.927 0.2 21 6
5 0.646 1.8 24 11
6 0.840 0.8 23 12
decline_ratio=0.839937429138554
silo_eff_first=1
silo_eff_last3=0.8045514081113819
== Figure 4 — Deduplication throughput: DeFrag vs DDFS-Like vs SiLo-Like (MB/s)
backup label ddfs_MBps silo_MBps defrag_MBps
1 u0/g00 179.9 158.3 179.9
2 u1/g00 208.9 208.9 208.9
3 u0/g01 148.3 312.4 147.8
4 u1/g01 218.0 366.3 218.0
5 u0/g02 131.2 146.8 129.8
6 u1/g02 197.6 315.0 197.3
7 u0/g03 105.6 153.6 127.6
8 u1/g03 166.7 312.8 196.4
ddfs_last5_MBps=163.82172262649956
defrag_last5_MBps=173.82741932148616
defrag_over_ddfs=1.0610767396079626
defrag_over_silo=0.6713923580943191
defrag_wins_over_silo=2
silo_last5_MBps=258.9058651410304
== Figure 5 — Deduplication efficiency: DeFrag vs SiLo-Like (partially-redundant segments)
backup label silo_eff defrag_eff silo_unremoved_MB defrag_rewritten_MB
3 u0/g01 1.000 0.993 0.0 0.0
4 u1/g01 1.000 1.000 0.0 0.0
5 u0/g02 1.000 0.970 1.5 0.1
6 u1/g02 1.000 0.989 0.0 0.0
7 u0/g03 0.633 0.976 0.9 0.2
8 u1/g03 0.989 0.979 0.0 0.0
defrag_eff_last5=0.9827924354907364
defrag_unremoved_last5=0.01720756450926364
silo_eff_last5=0.9243080100838805
silo_unremoved_last5=0.07569198991611947
== Figure 6 — Data read performance: DeFrag vs DDFS-Like (MB/s restoring each generation)
gen ddfs_read_MBps defrag_read_MBps ddfs_fragments defrag_fragments
1 245.8 245.8 2 2
2 223.1 222.9 14 16
3 197.8 197.6 24 26
4 186.3 202.9 35 37
5 169.0 182.1 51 53
6 155.5 178.0 56 52
ddfs_read_last3_MBps=170.25331964552268
defrag_over_ddfs=1.1023283359733682
defrag_read_last3_MBps=187.67505853879098
== Extended comparison — All five engines, final of 6 generations
engine tput_MBps efficiency read_MBps fragments stored_MB compression
ddfs-like 151.2 1.000 155.5 56 10.1 4.850
silo-like 122.5 0.840 135.9 33 12.9 3.775
sparse-index 64.1 0.996 154.9 58 10.1 4.812
idedup 629.8 0.864 148.3 22 11.0 4.428
defrag 158.0 0.830 178.0 52 10.9 4.487
ddfs-like_read_MBps=155.47022378496942
ddfs-like_tput_MBps=151.2234130666417
defrag_read_MBps=177.97190045593658
defrag_tput_MBps=157.9645042139368
idedup_read_MBps=148.31352559595243
idedup_tput_MBps=629.761953020935
silo-like_read_MBps=135.88070660391844
silo-like_tput_MBps=122.5173718918605
sparse-index_read_MBps=154.85541071231017
sparse-index_tput_MBps=64.07115000211766
== Layout analysis — De-linearization of placement (LRU stack profile; predicted hit rate at LPC=4)
gen ddfs_frags ddfs_ctrs ddfs_stackdist ddfs_hitrate defrag_frags defrag_ctrs defrag_stackdist defrag_hitrate
1 2 2 0.0 0.000 2 2 0.0 0.000
2 14 3 1.1 0.786 16 3 1.1 0.812
3 24 4 1.4 0.833 26 4 1.3 0.846
4 35 5 1.7 0.800 37 4 1.4 0.892
5 51 6 1.6 0.843 53 5 1.3 0.887
6 56 7 1.9 0.768 52 5 1.3 0.904
ddfs_final_hitrate=0.7678571428571429
ddfs_final_stackdist=1.8571428571428572
defrag_final_hitrate=0.9038461538461539
defrag_final_stackdist=1.3404255319148937
== Ablation: alpha sweep — DeFrag locality-vs-compression trade-off across SPL thresholds
alpha tput_MBps read_MBps efficiency rewritten_MB stored_MB compression
0.00 151.2 155.5 1.000 0.0 10.1 4.850
0.05 150.9 154.7 1.000 0.1 10.2 4.802
0.10 158.0 178.0 0.830 0.8 10.9 4.487
0.20 166.4 172.3 0.702 1.8 11.8 4.121
0.40 166.4 172.3 0.702 2.3 12.4 3.932
0.80 126.3 157.5 0.000 5.3 15.3 3.181
1.00 131.5 96.3 0.000 15.3 25.4 1.923
alpha0_compression=4.849594052078294
alpha0_read_MBps=155.47022378496942
== Ablation: LPC capacity — DeFrag sensitivity to locality-preserved cache size (containers)
lpc_containers tput_MBps read_MBps efficiency
2 72.0 178.0 0.830
4 158.0 178.0 0.830
8 284.5 178.0 0.830
16 284.5 178.0 0.830
32 284.5 178.0 0.830
64 284.5 178.0 0.830
== Ablation: segment size — DeFrag sensitivity to segment geometry (SPL granularity)
segments tput_MBps read_MBps efficiency rewritten_MB
0.25-1MB 151.1 155.3 0.976 0.0
0.5-2MB 158.0 178.0 0.830 0.8
1-4MB 166.5 177.6 0.799 1.4
== Ablation: container size — DeFrag sensitivity to container capacity
container_MB tput_MBps read_MBps fragments
1 71.4 113.7 56
2 123.2 153.2 53
4 158.0 178.0 52
8 279.5 193.6 51
== Ablation: restore strategy — LRU vs OPT vs FAA vs pipelined restore (final-generation restore)
budget_MB lru_read_MBps lru_creads opt_read_MBps opt_creads faa_read_MBps faa_creads pipe_read_MBps pipe_extents
8 48.4 20 60.4 15 153.6 6 237.9 13
16 178.0 5 178.0 5 178.0 5 552.4 4
32 178.0 5 178.0 5 178.0 5 552.4 4
64 178.0 5 178.0 5 178.0 5 552.4 4
128 178.0 5 178.0 5 178.0 5 552.4 4
== Ablation: rewrite policy — SPL grouping granularity: segments (paper) vs containers (CBR-style)
policy tput_MBps read_MBps efficiency rewritten_MB compression
spl 158.0 178.0 0.830 0.8 4.487
container 158.7 179.4 0.830 0.6 4.566
container_read_MBps=179.36682694646288
spl_read_MBps=177.97190045593658
`
