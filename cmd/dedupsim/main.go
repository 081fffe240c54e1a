// Command dedupsim runs one deduplication engine over a synthetic
// multi-generation backup workload and reports per-generation backup,
// storage, and (optionally) restore measurements.
//
// Usage:
//
//	dedupsim [-engine defrag|ddfs|silo|sparse|idedup] [-gens N] [-alpha α] [flags]
//
// Examples:
//
//	dedupsim -engine ddfs -gens 20             # watch the disk bottleneck emerge
//	dedupsim -engine defrag -alpha 0.2 -restore
//	dedupsim -engine defrag -verify            # end-to-end content verification
//	dedupsim -verify -export /tmp/exp          # leave a store directory: -backend file -store.dir /tmp/exp reopens it
//	dedupsim -scenario primary -filter -gens 16   # primary volumes through the inline filter
//	dedupsim -scenario workspace -streams 4       # tenant workspace trees, 4 tenants
//
// Durable-store workflow (see README "Durability & backends"):
//
//	dedupsim -backend file -store.dir /tmp/st -verify -gens 4              # durable run
//	dedupsim -backend file -store.dir /tmp/st -verify -fsckonly            # reopen + check
//	dedupsim -backend file -store.dir /tmp/st -verify -fsckonly -repair    # quarantine bad containers
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() { cli.Main("dedupsim", realMain) }

func realMain() error {
	var (
		p       params
		tel     cli.Telemetry
		telHold bool
	)
	cli.EngineFlags(&p.engine)
	cli.BackendFlags(&p.backend)
	cli.SeedFlag(&p.seed, 1)
	cli.FilterFlag(&p.filterOn)
	cli.RestoreCacheFlag(&p.restoreCache)
	cli.TelemetryFlags(&tel)
	flag.IntVar(&p.gens, "gens", 10, "backup generations to ingest")
	flag.IntVar(&p.files, "files", 64, "files in the synthetic file system")
	flag.Int64Var(&p.fileKB, "filekb", 768, "mean file size in KiB")
	flag.BoolVar(&p.doRestore, "restore", false, "restore every generation and report read performance")
	flag.BoolVar(&p.verify, "verify", false, "store real bytes and verify restored content (implies -restore)")
	flag.StringVar(&p.restoreMode, "restore.mode", "", "restore strategy: lru, opt, pipelined (opt + coalescing + prefetch), faa (default: the store's default, opt)")
	flag.IntVar(&p.streams, "streams", 1, "concurrent backup streams per round (>1 switches to a multi-user schedule)")
	flag.StringVar(&p.scenario, "scenario", "backup", "workload scenario: backup (multi-generation file sets), primary (hot/cold block volumes), workspace (tenant directory trees)")
	flag.BoolVar(&p.check, "check", false, "run a consistency check (fsck) at the end")
	flag.StringVar(&p.export, "export", "", "empty or absent directory to write the store into as a file-backend store: containers and catalog.log; reopen it with -backend file -store.dir DIR (engine defrag or ddfs)")
	flag.BoolVar(&p.fsckOnly, "fsckonly", false, "skip ingest: reopen the store (-backend file) and run fsck only")
	flag.BoolVar(&p.repair, "repair", false, "with -fsckonly: quarantine invariant-failing containers")
	flag.BoolVar(&telHold, "telemetry.hold", false, "after the run, keep the telemetry endpoint serving until interrupted")
	flag.Parse()
	ep, err := tel.Start(nil)
	if err != nil {
		return err
	}
	defer ep.Close()
	if err := run(p); err != nil {
		return err
	}
	if telHold && ep.Addr() != "" {
		fmt.Fprintf(os.Stderr, "telemetry: run complete, holding http://%s (Ctrl-C to exit)\n", ep.Addr())
		select {}
	}
	return nil
}

type params struct {
	engine    cli.Engine
	backend   cli.Backend
	gens      int
	files     int
	fileKB    int64
	seed      int64
	doRestore bool
	verify    bool
	streams   int
	scenario  string
	filterOn  bool
	check     bool
	export    string

	restoreMode  string
	restoreCache int

	fsckOnly bool
	repair   bool
}

// restoreOptions is what -restore.mode, -restore.cache and -verify ask of
// every restore, or nil when the run restores nothing.
func restoreOptions(p params) (*repro.RestoreOptions, error) {
	if !p.doRestore && !p.verify {
		return nil, nil
	}
	opts, err := repro.ParseRestoreMode(p.restoreMode)
	if err != nil {
		return nil, fmt.Errorf("-restore.mode: %w", err)
	}
	opts.Verify = p.verify
	if p.restoreCache > 0 {
		opts.CacheContainers = p.restoreCache
	}
	return &opts, nil
}

// statsRow renders the backup columns of a table row numbered n.
func statsRow(n int, st repro.BackupStats) []string {
	return []string{
		fmt.Sprint(n),
		metrics.MB(st.LogicalBytes),
		metrics.F1(st.ThroughputMBps()),
		metrics.MB(st.UniqueBytes),
		metrics.MB(st.DedupedBytes),
		metrics.MB(st.RewrittenBytes),
		metrics.F3(st.Efficiency()),
	}
}

// newTable is a table headed first (gen or round), the backup columns and,
// when the run restores, the restore columns.
func newTable(first string, restores bool) *metrics.Table {
	cols := []string{first, "logical_MB", "tput_MBps", "unique_MB", "deduped_MB", "rewritten_MB", "efficiency"}
	if restores {
		cols = append(cols, "read_MBps", "fragments", "read_amp")
	}
	return metrics.NewTable(cols...)
}

// readAmp renders a restore's read amplification: container-section bytes
// fetched per byte restored (RestoreStats.ReadBytes / Bytes).
func readAmp(read, restored int64) string {
	if restored == 0 {
		return "-"
	}
	return metrics.F3(float64(read) / float64(restored))
}

func run(p params) error {
	ctx := context.Background()
	kind, err := repro.ParseEngineKind(p.engine.Name)
	if err != nil {
		return err
	}
	bkind, err := repro.ParseBackendKind(p.backend.Name)
	if err != nil {
		return err
	}
	ropts, err := restoreOptions(p)
	if err != nil {
		return err
	}
	wcfg := workload.DefaultConfig(p.seed)
	wcfg.NumFiles = p.files
	wcfg.MeanFileSize = p.fileKB << 10
	sc, err := workload.ParseScenario(p.scenario)
	if err != nil {
		return err
	}
	store, err := repro.Open(repro.Options{
		Engine:          kind,
		Alpha:           p.engine.Alpha,
		ExpectedBytes:   int64(max(p.streams, 1)) * int64(p.gens) * int64(p.files) * (p.fileKB << 10),
		StoreData:       p.verify,
		TrackEfficiency: true,
		Filter:          repro.FilterOptions{Enabled: p.filterOn},
		Backend:         bkind,
		Dir:             p.backend.Dir,
	})
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck // error paths below surface first
	if p.fsckOnly {
		return runFsck(ctx, p, store)
	}
	if p.streams > 1 && sc == workload.ScenarioBackup {
		return runStreams(ctx, p, store, wcfg, ropts)
	}
	var sched workload.Schedule
	if sc == workload.ScenarioBackup {
		sched, err = workload.NewSingle(wcfg)
	} else {
		// Scenario streams are sized from the same -files/-filekb knobs:
		// one backup approximates the whole synthetic file set.
		sched, err = workload.NewScenario(sc, workload.ScenarioParams{
			Seed:           p.seed,
			Users:          max(p.streams, 1),
			BytesPerStream: int64(p.files) * (p.fileKB << 10),
		})
	}
	if err != nil {
		return err
	}

	tb := newTable("gen", ropts != nil)
	err = repro.RunGenerations(ctx, store, sched, p.gens, ropts, func(gen int, b *repro.Backup, rst repro.RestoreStats) error {
		row := statsRow(gen, b.Stats)
		if ropts != nil {
			row = append(row, metrics.F1(rst.ThroughputMBps()), fmt.Sprint(rst.Fragments), readAmp(rst.ReadBytes, rst.Bytes))
		}
		tb.AddRow(row...)
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("engine: %s  alpha: %.2f  generations: %d\n\n", store.Engine(), p.engine.Alpha, p.gens)
	if err := summarize(ctx, p, store, tb, p.verify); err != nil {
		return err
	}
	if p.export != "" {
		if err := store.Export(ctx, p.export); err != nil {
			return err
		}
		fmt.Printf("store exported to %s (reopen: -backend file -store.dir %s)\n", p.export, p.export)
	}
	return nil
}

// runFsck reopens an existing durable store (adoption already happened in
// repro.Open), optionally repairs it, checks it, and — with -verify —
// restore-verifies every retained backup end to end.
func runFsck(ctx context.Context, p params, store *repro.Store) error {
	if p.repair {
		rep, err := store.Repair(ctx, p.verify)
		if err != nil {
			return err
		}
		fmt.Printf("repair: quarantined %d containers, dropped %d index entries, lost %d backups\n",
			len(rep.Quarantined), rep.IndexDropped, len(rep.LostBackups))
		for _, cid := range rep.Quarantined {
			fmt.Printf("  container %d: %s\n", cid, rep.Reasons[cid])
		}
		for _, l := range rep.LostBackups {
			fmt.Printf("  lost backup: %s\n", l)
		}
	}
	if err := fsck(ctx, store, p.verify, fmt.Sprintf(", %d backups retained", len(store.Backups()))); err != nil {
		return err
	}
	if p.verify {
		for _, b := range store.Backups() {
			if _, err := store.Restore(ctx, b, nil, true); err != nil {
				return fmt.Errorf("restore-verify %s: %w", b.Label, err)
			}
		}
		fmt.Printf("restore-verify: %d backups reconstructed and content-checked\n", len(store.Backups()))
	}
	return nil
}

// runStreams ingests a multi-user schedule with p.streams concurrent backup
// streams per round: each of -gens rounds backs up every user once, up to
// p.streams of them in flight at a time. Each table row is one round's
// merged statistics.
func runStreams(ctx context.Context, p params, store *repro.Store, wcfg workload.Config, ropts *repro.RestoreOptions) error {
	sched, err := workload.NewMultiUser(p.streams, wcfg)
	if err != nil {
		return err
	}
	tb := newTable("round", ropts != nil)
	for g := 0; g < p.gens; g++ {
		round := sched.NextRound()
		inputs := make([]repro.StreamInput, len(round))
		for i, bk := range round {
			inputs[i] = repro.StreamInput{Label: bk.Label, Stream: bk.Stream}
		}
		backups, merged, err := store.BackupStreams(ctx, inputs, p.streams)
		if err != nil {
			return err
		}
		row := statsRow(g+1, merged)
		if ropts != nil {
			var mbps float64
			var frags int
			var read, restored int64
			for _, b := range backups {
				rst, err := store.RestoreWith(ctx, b, nil, *ropts)
				if err != nil {
					return err
				}
				mbps += rst.ThroughputMBps()
				frags += rst.Fragments
				read += rst.ReadBytes
				restored += rst.Bytes
			}
			if len(backups) > 0 {
				mbps /= float64(len(backups))
			}
			row = append(row, metrics.F1(mbps), fmt.Sprint(frags), readAmp(read, restored))
		}
		tb.AddRow(row...)
	}
	fmt.Printf("engine: %s  alpha: %.2f  users/streams: %d  rounds: %d\n\n",
		store.Engine(), p.engine.Alpha, p.streams, p.gens)
	return summarize(ctx, p, store, tb, false)
}

// summarize prints tb and the store's storage line, notes that restores were
// content-checked when verified says so, and with -check fscks the store.
func summarize(ctx context.Context, p params, store *repro.Store, tb *metrics.Table, verified bool) error {
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	st := store.Stats()
	fmt.Printf("\nstorage: %.1f MB logical -> %.1f MB stored in %d containers "+
		"(compression %.2fx, utilization %.1f%%), simulated time %.2fs\n",
		float64(st.LogicalBytes)/1e6, float64(st.StoredBytes)/1e6, st.Containers,
		st.CompressionRatio, st.Utilization*100, store.SimulatedTime().Seconds())
	if verified {
		fmt.Println("content verification: all restored chunks matched their fingerprints")
	}
	if !p.check {
		return nil
	}
	return fsck(ctx, store, p.verify, "")
}

// fsck checks store, re-hashing every chunk with verify, and prints the
// report's line, tail at its end; a problem found is the error.
func fsck(ctx context.Context, store *repro.Store, verify bool, tail string) error {
	rep, err := store.Check(ctx, verify)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("fsck found %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	fmt.Printf("fsck: OK (%d containers, %d recipe refs, %d chunks re-hashed%s)\n",
		rep.Containers, rep.RecipeRefs, rep.HashedChunks, tail)
	return nil
}
