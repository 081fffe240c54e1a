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
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() { cli.Main("dedupsim", realMain) }

func realMain() error {
	var (
		engineName = flag.String("engine", "defrag", "engine: defrag, ddfs, silo, sparse, idedup")
		gens       = flag.Int("gens", 10, "backup generations to ingest")
		files      = flag.Int("files", 64, "files in the synthetic file system")
		fileKB     = flag.Int64("filekb", 768, "mean file size in KiB")
		alpha      = flag.Float64("alpha", 0.1, "DeFrag SPL threshold α")
		seed       = flag.Int64("seed", 1, "workload seed")
		doRestore  = flag.Bool("restore", false, "restore every generation and report read performance")
		verify     = flag.Bool("verify", false, "store real bytes and verify restored content (implies -restore)")
		rMode      = flag.String("restore.mode", "", "restore strategy: lru, opt, pipelined (opt + coalescing + prefetch), faa (default: the store's default, opt)")
		rCache     = flag.Int("restore.cache", 0, "restore cache capacity in containers (0 = default, 8)")
		streams    = flag.Int("streams", 1, "concurrent backup streams per round (>1 switches to a multi-user schedule)")
		scenario   = flag.String("scenario", "backup", "workload scenario: backup (multi-generation file sets), primary (hot/cold block volumes), workspace (tenant directory trees)")
		filterOn   = flag.Bool("filter", false, "enable the prioritized inline filter (DeFrag): poorly clustered streams write through and are re-deduped by maintenance")
		check      = flag.Bool("check", false, "run a consistency check (fsck) at the end")
		export     = flag.String("export", "", "empty or absent directory to write the store into as a file-backend store: containers and catalog.log; reopen it with -backend file -store.dir DIR (engine defrag or ddfs)")
		backend    = flag.String("backend", "sim", "storage backend: sim (in-memory) or file (durable directory store)")
		storeDir   = flag.String("store.dir", "", "file backend root directory (required for -backend file)")
		fsckOnly   = flag.Bool("fsckonly", false, "skip ingest: reopen the store (-backend file) and run fsck only")
		repair     = flag.Bool("repair", false, "with -fsckonly: quarantine invariant-failing containers")
		telAddr    = flag.String("telemetry.addr", "", "serve live /metrics, /debug/snapshot and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		telEvents  = flag.String("telemetry.events", "", "write JSONL span events to this file")
		telHold    = flag.Bool("telemetry.hold", false, "after the run, keep the telemetry endpoint serving until interrupted")
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
	if err := run(params{*engineName, *gens, *files, *fileKB, *alpha, *seed, *doRestore, *verify, *streams, *scenario, *filterOn, *check, *export, *rMode, *rCache,
		*backend, *storeDir, *fsckOnly, *repair}); err != nil {
		return err
	}
	if *telHold && ep.Addr() != "" {
		fmt.Fprintf(os.Stderr, "telemetry: run complete, holding http://%s (Ctrl-C to exit)\n", ep.Addr())
		select {}
	}
	return nil
}

type params struct {
	engineName string
	gens       int
	files      int
	fileKB     int64
	alpha      float64
	seed       int64
	doRestore  bool
	verify     bool
	streams    int
	scenario   string
	filterOn   bool
	check      bool
	export     string

	restoreMode  string
	restoreCache int

	backend  string
	storeDir string
	fsckOnly bool
	repair   bool
}

// readAmp renders a restore's read amplification: container-section bytes
// fetched per byte restored (RestoreStats.ReadBytes / Bytes).
func readAmp(read, restored int64) string {
	if restored == 0 {
		return "-"
	}
	return metrics.F3(float64(read) / float64(restored))
}

// restoreOne restores one backup through the strategy selected by
// -restore.mode, sharing the cache knob across both the single-stream and
// multi-stream paths.
func restoreOne(ctx context.Context, p params, store *repro.Store, b *repro.Backup) (repro.RestoreStats, error) {
	opts := repro.DefaultRestoreOptions()
	opts.Verify = p.verify
	if p.restoreCache > 0 {
		opts.CacheContainers = p.restoreCache
	}
	switch p.restoreMode {
	case "": // the store's default shape
	case "pipelined":
		opts.Policy = repro.RestoreOPT
		opts.Coalesce = true
	default:
		policy, err := repro.ParseRestorePolicy(p.restoreMode)
		if err != nil {
			return repro.RestoreStats{}, fmt.Errorf("-restore.mode: %w", err)
		}
		opts.Policy = policy
	}
	return store.RestoreWith(ctx, b, nil, opts)
}

func run(p params) error {
	ctx := context.Background()
	engineName, gens, files, fileKB := p.engineName, p.gens, p.files, p.fileKB
	alpha, seed, doRestore, verify := p.alpha, p.seed, p.doRestore, p.verify
	kind, err := repro.ParseEngineKind(engineName)
	if err != nil {
		return err
	}
	bkind, err := repro.ParseBackendKind(p.backend)
	if err != nil {
		return err
	}
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumFiles = files
	wcfg.MeanFileSize = fileKB << 10

	nstreams := int64(1)
	if p.streams > 1 {
		nstreams = int64(p.streams)
	}
	sc, err := workload.ParseScenario(p.scenario)
	if err != nil {
		return err
	}
	store, err := repro.Open(repro.Options{
		Engine:          kind,
		Alpha:           alpha,
		ExpectedBytes:   nstreams * int64(gens) * int64(files) * (fileKB << 10),
		StoreData:       verify,
		TrackEfficiency: true,
		Filter:          repro.FilterOptions{Enabled: p.filterOn},
		Backend:         bkind,
		Dir:             p.storeDir,
	})
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck // error paths below surface first
	if p.fsckOnly {
		return runFsck(ctx, p, store)
	}
	if p.streams > 1 && sc == workload.ScenarioBackup {
		return runStreams(ctx, p, store, wcfg)
	}
	var sched workload.Schedule
	if sc == workload.ScenarioBackup {
		sched, err = workload.NewSingle(wcfg)
	} else {
		// Scenario streams are sized from the same -files/-filekb knobs:
		// one backup approximates the whole synthetic file set.
		users := p.streams
		if users < 1 {
			users = 1
		}
		sched, err = workload.NewScenario(sc, workload.ScenarioParams{
			Seed:           seed,
			Users:          users,
			BytesPerStream: int64(files) * (fileKB << 10),
		})
	}
	if err != nil {
		return err
	}

	cols := []string{"gen", "logical_MB", "tput_MBps", "unique_MB", "deduped_MB", "rewritten_MB", "efficiency"}
	if doRestore || verify {
		cols = append(cols, "read_MBps", "fragments", "read_amp")
	}
	tb := metrics.NewTable(cols...)

	for g := 0; g < gens; g++ {
		bk := sched.Next()
		b, err := store.Backup(ctx, bk.Label, bk.Stream)
		if err != nil {
			return err
		}
		row := []string{
			fmt.Sprint(g + 1),
			metrics.MB(b.Stats.LogicalBytes),
			metrics.F1(b.Stats.ThroughputMBps()),
			metrics.MB(b.Stats.UniqueBytes),
			metrics.MB(b.Stats.DedupedBytes),
			metrics.MB(b.Stats.RewrittenBytes),
			metrics.F3(b.Stats.Efficiency()),
		}
		if doRestore || verify {
			rst, err := restoreOne(ctx, p, store, b)
			if err != nil {
				return err
			}
			row = append(row, metrics.F1(rst.ThroughputMBps()), fmt.Sprint(rst.Fragments), readAmp(rst.ReadBytes, rst.Bytes))
		}
		tb.AddRow(row...)
	}

	fmt.Printf("engine: %s  alpha: %.2f  generations: %d\n\n", store.Engine(), alpha, gens)
	if err := summarize(ctx, p, store, tb, verify); err != nil {
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
	rep, err := store.Check(ctx, p.verify)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("fsck found %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	fmt.Printf("fsck: OK (%d containers, %d recipe refs, %d chunks re-hashed, %d backups retained)\n",
		rep.Containers, rep.RecipeRefs, rep.HashedChunks, len(store.Backups()))
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
func runStreams(ctx context.Context, p params, store *repro.Store, wcfg workload.Config) error {
	sched, err := workload.NewMultiUser(p.streams, wcfg)
	if err != nil {
		return err
	}
	cols := []string{"round", "logical_MB", "tput_MBps", "unique_MB", "deduped_MB", "rewritten_MB", "efficiency"}
	if p.doRestore || p.verify {
		cols = append(cols, "read_MBps", "fragments", "read_amp")
	}
	tb := metrics.NewTable(cols...)
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
		row := []string{
			fmt.Sprint(g + 1),
			metrics.MB(merged.LogicalBytes),
			metrics.F1(merged.ThroughputMBps()),
			metrics.MB(merged.UniqueBytes),
			metrics.MB(merged.DedupedBytes),
			metrics.MB(merged.RewrittenBytes),
			metrics.F3(merged.Efficiency()),
		}
		if p.doRestore || p.verify {
			var mbps float64
			var frags int
			var read, restored int64
			for _, b := range backups {
				rst, err := restoreOne(ctx, p, store, b)
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
		store.Engine(), p.alpha, p.streams, p.gens)
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
	rep, err := store.Check(ctx, p.verify)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("fsck found %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	fmt.Printf("fsck: OK (%d containers, %d recipe refs, %d chunks re-hashed)\n",
		rep.Containers, rep.RecipeRefs, rep.HashedChunks)
	return nil
}
