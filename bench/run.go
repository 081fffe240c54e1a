package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
)

// config is one benchmark run.
type config struct {
	spec    spec
	sz      sizing
	seed    int64
	seconds float64 // measure for at least this long
	trace   bool
	dir     string // parent of the run root (store directories) and home of the trace output
	// corruptOnce is the self-test hook: flip one byte of the first restored
	// stream before it is compared.
	corruptOnce bool
}

// report is what a run hands back: the contract's result line plus the
// detail a person reads.
type report struct {
	attempted, failed int
	failures          []string
	defs              []metricDef // the metrics this run reports, in print order
	values            map[string]float64
	notes             []string // "# ..." lines: cycle count, samples, per-cycle figures
}

func (rep *report) notef(format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

// run executes one workload: set-up (inputs, warm-up cycles), then either
// the measured cycles or the traced run. A failed op ends the run early
// with the failure in the report; the error return is for the rig's own
// troubles.
func run(ctx context.Context, cfg config) (*report, error) {
	in, err := cfg.sz.generate(cfg.spec.multiUser, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	out, err := mmapAnon(in.maxLen)
	if err != nil {
		return nil, err
	}
	touch(out)
	generated := time.Since(processStart)

	disk := cfg.spec.backend == repro.FileBackend
	if disk {
		// No cycle stores more than it ingests plus ~1 % metadata.
		if err := checkSpace(cfg.dir, in.bytes+in.bytes/10); err != nil {
			return nil, err
		}
	}
	root, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(root)

	r := &runner{spec: cfg.spec, sz: cfg.sz, in: in, out: out, root: root, rehash: cfg.trace}
	r.corruptNext.Store(cfg.corruptOnce)
	rep := &report{values: map[string]float64{}}
	if cfg.trace {
		// The ladder runs before any cycle has written to the disk: after
		// four fulls-disk cycles, with write-back still draining,
		// container.write_file_mbps read 86 MB/s against 335 on a quiet disk.
		if rep.values, err = runRungs(ctx, cfg, root); err != nil {
			return nil, err
		}
	}
	finish := func() *report {
		rep.attempted, rep.failed, rep.failures = r.attempted, r.failed, r.failures
		return rep
	}

	for i := 0; i < cfg.sz.warmups; i++ {
		res, err := r.runCycle(ctx, true)
		if err != nil {
			return finish(), nil
		}
		runtime.GC()
		if !disk {
			continue
		}
		// Disk cycles keep their directories until the run ends: removing
		// one lets the next reuse its still-cached blocks.
		ahead := max(cfg.sz.minCycles, int(math.Ceil(cfg.seconds/res.wall.Seconds()))+1)
		if cfg.trace {
			ahead = 2 * cfg.sz.tracedCycles
		}
		if err := checkSpace(cfg.dir, int64(ahead)*res.dirBytes+in.bytes); err != nil {
			return nil, err
		}
	}
	setup := time.Since(processStart)
	rep.notef("%.2f s to the first measured cycle: inputs %.2f s (%d streams, %.1f MB), %d rung metrics, %d warm-up cycle(s)",
		setup.Seconds(), generated.Seconds(), len(in.items), float64(in.bytes)/1e6, len(rep.values), cfg.sz.warmups)

	if cfg.trace {
		rep.defs = perLayer
		if err := r.traced(ctx, cfg, rep); err != nil {
			return nil, err
		}
		return finish(), nil
	}

	rep.defs = endToEnd
	var cycles []cycleResult
	start := time.Now()
	for len(cycles) < cfg.sz.minCycles || time.Since(start).Seconds() < cfg.seconds {
		res, err := r.runCycle(ctx, false)
		if err != nil {
			return finish(), nil
		}
		cycles = append(cycles, res)
		runtime.GC() // between cycles, outside every timed region
	}
	mapped := in.bytes + int64(len(out))
	endToEndValues(rep, cfg.spec, cycles, setup, peakRSS()-mapped)
	return finish(), nil
}

// checkSpace refuses a store root with less than need bytes free.
func checkSpace(dir string, need int64) error {
	h, err := probeHost(dir)
	if err != nil {
		return err
	}
	if h.FreeBytes < need {
		return fmt.Errorf("%s has %.1f GB free, the run needs %.1f GB; choose another root with -dir",
			dir, float64(h.FreeBytes)/1e9, float64(need)/1e9)
	}
	return nil
}

// perCycle maps every cycle through f.
func perCycle(cycles []cycleResult, f func(cycleResult) float64) []float64 {
	out := make([]float64, len(cycles))
	for i, c := range cycles {
		out[i] = f(c)
	}
	return out
}

// pooled concatenates one op's latencies over all cycles.
func pooled(cycles []cycleResult, op string) []time.Duration {
	var out []time.Duration
	for _, c := range cycles {
		out = append(out, c.lat[op]...)
	}
	return out
}

// endToEndValues reduces the measured cycles to the end-to-end metrics:
// throughputs, ratios and cycle time as medians over cycles, latencies
// pooled over every measured call.
func endToEndValues(rep *report, s spec, cycles []cycleResult, setup time.Duration, rssBytes int64) {
	in, rs := s.ingestOp(), s.restoreOp()
	ingest := perCycle(cycles, func(c cycleResult) float64 { return mbps(c.ingestBytes, sum(c.lat[in])) })
	restore := perCycle(cycles, func(c cycleResult) float64 { return mbps(c.restoreBytes, sum(c.lat[rs])) })
	wall := perCycle(cycles, func(c cycleResult) float64 { return c.wall.Seconds() })
	var cpu time.Duration
	var moved int64
	for _, c := range cycles {
		cpu += c.cpu
		moved += c.ingestBytes + c.restoreBytes
	}

	v := rep.values
	v["setup_s"] = setup.Seconds()
	v["ingest_wall_mbps"] = median(ingest)
	v["restore_wall_mbps"] = median(restore)
	v["ingest_p50_ms"] = median(millis(pooled(cycles, in)))
	v["restore_p50_ms"] = median(millis(pooled(cycles, rs)))
	v["cycle_s"] = median(wall)
	v["cpu_s_per_gb"] = ratio(cpu.Seconds(), float64(moved)/1e9)
	v["peak_rss_mb"] = float64(rssBytes) / 1e6
	v["stored_per_user_byte"] = median(perCycle(cycles, func(c cycleResult) float64 {
		return ratio(float64(c.storedBytes), float64(c.retainedBytes))
	}))
	v["write_amp"] = median(perCycle(cycles, func(c cycleResult) float64 {
		return ratio(float64(c.be.sealBytes.Load()), float64(c.ingestBytes))
	}))
	v["sim_ingest_mbps"] = median(perCycle(cycles, func(c cycleResult) float64 { return mbps(c.ingestBytes, c.simIngest) }))
	v["sim_restore_last_mbps"] = median(perCycle(cycles, func(c cycleResult) float64 { return c.simRestoreLast }))

	rep.notef("%d measured cycles; %d %s and %d %s samples behind the p50s",
		len(cycles), len(pooled(cycles, in)), in, len(pooled(cycles, rs)), rs)
	rep.notef("per cycle: cycle_s %.3f, ingest MB/s %.1f, restore MB/s %.1f", wall, ingest, restore)
}

// traced is the cycles of a -trace run: they alternate untraced and traced
// so both sides see the same machine state, then the spans are checked and
// written as JSON lines.
func (r *runner) traced(ctx context.Context, cfg config, rep *report) error {
	rec := newRecorder()
	var plain, traced []cycleResult
	for i := 0; i < 2*cfg.sz.tracedCycles; i++ {
		side := &plain
		if i%2 == 1 {
			side, r.rec = &traced, rec
		}
		res, err := r.runCycle(ctx, false)
		r.rec = nil
		if err != nil {
			return nil // the failed op is in the runner's counts
		}
		*side = append(*side, res)
		runtime.GC()
	}
	spans := rec.finish()
	if err := checkSpans(spans); err != nil {
		return fmt.Errorf("malformed trace: %w", err)
	}
	path := filepath.Join(cfg.dir, "trace-"+cfg.spec.name+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	rep.notef("%d traced cycles, %d spans written to %s", len(traced), len(spans), path)

	perLayerValues(rep.values, cfg.spec, traced, selfByName(spans))
	wall := func(c cycleResult) float64 { return c.wall.Seconds() }
	rep.values["trace.overhead_frac"] = median(perCycle(traced, wall))/median(perCycle(plain, wall)) - 1
	return nil
}

// perLayerValues reduces the traced cycles to the in-flow per-layer
// metrics. Counts and busy times are means per cycle; self is the summed
// self time of every op span, by name.
func perLayerValues(v map[string]float64, s spec, cycles []cycleResult, self map[string]time.Duration) {
	n := float64(len(cycles))
	avg := func(f func(cycleResult) float64) float64 {
		var t float64
		for _, c := range cycles {
			t += f(c)
		}
		return t / n
	}
	busy := func(op string) float64 { return avg(func(c cycleResult) float64 { return sum(c.lat[op]).Seconds() }) }
	in, rs := s.ingestOp(), s.restoreOp()

	v["store.open_ms"] = busy("store.open") * 1e3
	v["store.close_ms"] = busy("store.close") * 1e3
	v["store.reopen_ms"] = busy("store.reopen") * 1e3
	v["store.backup_busy_s"] = busy(in)
	v["store.backup_self_s"] = self[in].Seconds() / n
	v["store.restore_busy_s"] = busy(rs)
	v["store.restore_self_s"] = self[rs].Seconds() / n
	v["store.forget_busy_s"] = busy("store.forget")
	v["store.backup_p95_ms"] = quantile(millis(pooled(cycles, in)), 0.95)
	v["store.restore_p95_ms"] = quantile(millis(pooled(cycles, rs)), 0.95)

	v["blockstore.seal_calls"] = avg(func(c cycleResult) float64 { return float64(c.be.sealCalls.Load()) })
	v["blockstore.seal_bytes"] = avg(func(c cycleResult) float64 { return float64(c.be.sealBytes.Load()) })
	v["blockstore.seal_busy_s"] = avg(func(c cycleResult) float64 { return float64(c.be.sealNs.Load()) / 1e9 })
	v["blockstore.read_calls"] = avg(func(c cycleResult) float64 { return float64(c.be.readCalls.Load()) })
	v["blockstore.read_bytes"] = avg(func(c cycleResult) float64 { return float64(c.be.readBytes.Load()) })
	v["blockstore.read_busy_s"] = avg(func(c cycleResult) float64 { return float64(c.be.readNs.Load()) / 1e9 })
	v["blockstore.sync_calls"] = avg(func(c cycleResult) float64 { return float64(c.be.syncCalls.Load()) })
	v["blockstore.sync_busy_s"] = avg(func(c cycleResult) float64 { return float64(c.be.syncNs.Load()) / 1e9 })
	v["blockstore.drop_calls"] = avg(func(c cycleResult) float64 { return float64(c.be.dropCalls.Load()) })
	v["blockstore.drop_busy_s"] = avg(func(c cycleResult) float64 { return float64(c.be.dropNs.Load()) / 1e9 })
	v["blockstore.close_busy_s"] = avg(func(c cycleResult) float64 { return float64(c.be.closeNs.Load()) / 1e9 })
	v["blockstore.dir_files"] = avg(func(c cycleResult) float64 { return float64(c.dirFiles) })
	v["blockstore.dir_bytes"] = avg(func(c cycleResult) float64 { return float64(c.dirBytes) })
	v["device.write_syscalls"] = avg(func(c cycleResult) float64 { return float64(c.io.writeSyscalls) })
	v["device.write_bytes"] = avg(func(c cycleResult) float64 { return float64(c.io.writeBytes) })
	v["device.read_syscalls"] = avg(func(c cycleResult) float64 { return float64(c.io.readSyscalls) })

	v["core.dup_frac"] = avg(func(c cycleResult) float64 { return ratio(float64(c.dupBytes), float64(c.ingestBytes)) })
	v["core.rewritten_frac"] = avg(func(c cycleResult) float64 { return ratio(float64(c.rewrittenBytes), float64(c.ingestBytes)) })
	v["core.index_lookups_per_kchunk"] = avg(func(c cycleResult) float64 { return ratio(1e3*float64(c.indexLookups), float64(c.chunks)) })
	v["core.cache_hits_per_kchunk"] = avg(func(c cycleResult) float64 { return ratio(1e3*float64(c.cacheHits), float64(c.chunks)) })
	v["core.fragments_last"] = avg(func(c cycleResult) float64 { return float64(c.fragmentsLast) })
	v["restore.container_reads_per_gb"] = avg(func(c cycleResult) float64 {
		return ratio(float64(c.restoreReads), float64(c.restoreStatBytes)/1e9)
	})
	v["restore.cache_hit_rate"] = avg(func(c cycleResult) float64 {
		return ratio(float64(c.restoreHits), float64(c.restoreHits+c.restoreReads))
	})

	v["maintenance.epochs"] = avg(func(c cycleResult) float64 { return float64(c.maint.Epochs) })
	v["maintenance.busy_s"] = busy("store.maintenance_epoch")
	v["maintenance.bytes_moved"] = avg(func(c cycleResult) float64 { return float64(c.maint.Totals.BytesMoved) })
	v["maintenance.bytes_reclaimed"] = avg(func(c cycleResult) float64 { return float64(c.maint.Totals.BytesReclaimed) })
	v["maintenance.containers_merged"] = avg(func(c cycleResult) float64 { return float64(c.maint.Totals.ContainersMerged) })
	v["maintenance.refs_remapped"] = avg(func(c cycleResult) float64 { return float64(c.maint.Totals.RefsRemapped) })
	v["maintenance.dead_frac_end"] = avg(func(c cycleResult) float64 { return c.maint.DeadFraction })
	v["serve.status_429"] = avg(func(c cycleResult) float64 { return float64(c.status429) })

	v["go.gc_cycles"] = avg(func(c cycleResult) float64 { return float64(c.gcCycles) })
	v["go.gc_pause_ms"] = avg(func(c cycleResult) float64 { return c.gcPause.Seconds() * 1e3 })
	v["go.alloc_bytes_per_user_byte"] = avg(func(c cycleResult) float64 {
		return ratio(float64(c.allocBytes), float64(c.ingestBytes+c.restoreBytes))
	})
	v["go.heap_inuse_peak_mb"] = avg(func(c cycleResult) float64 { return float64(c.heapInusePeak) / 1e6 })
}
