package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestManifestMatches keeps the two in step.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the store sees, identical on every
// workload. reopen_ms is absent: gens-mem runs on the sim backend, which
// has nothing to reopen, and an end-to-end metric must exist on every
// workload; it is the per-layer store.reopen_ms.
//
// One bound serves all four gated workloads, so each is set by the noisiest
// and by the host: quartile range over median of ten runs is 2–7 % for the
// wall-clock metrics while the host is steady, and the host has
// minutes-long slow periods that took that to 9–12 % in one set of
// serve-mixed runs and moved medians of three by 14–18 % in one A/A. So the
// wall-clock bounds are the most the driver allows. The last four repeat to
// the last digit at any seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_wall_mbps", "MB/s", "higher", 0.25},
	{"restore_wall_mbps", "MB/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"restore_p50_ms", "ms", "lower", 0.25},
	{"cycle_s", "s", "lower", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"stored_per_user_byte", "ratio", "lower", 0.01},
	{"write_amp", "ratio", "lower", 0.01},
	{"sim_ingest_mbps", "MB/s", "higher", 0.02},
	{"sim_restore_last_mbps", "MB/s", "higher", 0.02},
}

// perLayer are the metrics of single modules, reported by the traced run.
// They carry no bound: they say where an end-to-end change came from.
var perLayer = []metricDef{
	// Ladder rungs: one layer at a time, fed the first and last generation.
	{name: "chunker.gear_mbps", unit: "MB/s", better: "higher"},
	{name: "chunk.sha256_mbps", unit: "MB/s", better: "higher"},
	{name: "bloom.probe_ns", unit: "ns", better: "lower"},
	{name: "cindex.lookup_ns", unit: "ns", better: "lower"},
	{name: "cindex.insert_ns", unit: "ns", better: "lower"},
	{name: "container.write_sim_mbps", unit: "MB/s", better: "higher"},
	{name: "container.write_file_mbps", unit: "MB/s", better: "higher"},
	{name: "container.read_range_mbps", unit: "MB/s", better: "higher"},
	{name: "restore.pipelined_mbps", unit: "MB/s", better: "higher"},
	{name: "core.backup_mbps", unit: "MB/s", better: "higher"},
	{name: "store.backup_loss_frac", unit: "ratio", better: "lower"},
	{name: "serve.post_1c_mbps", unit: "MB/s", better: "higher"},
	{name: "serve.get_1c_mbps", unit: "MB/s", better: "higher"},
	{name: "serve.ingest_loss_frac", unit: "ratio", better: "lower"},
	// In-flow: per traced cycle of the workload itself.
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.close_ms", unit: "ms", better: "lower"},
	{name: "store.reopen_ms", unit: "ms", better: "lower"},
	{name: "store.backup_busy_s", unit: "s", better: "lower"},
	{name: "store.backup_self_s", unit: "s", better: "lower"},
	{name: "store.restore_busy_s", unit: "s", better: "lower"},
	{name: "store.restore_self_s", unit: "s", better: "lower"},
	{name: "store.forget_busy_s", unit: "s", better: "lower"},
	{name: "store.backup_p95_ms", unit: "ms", better: "lower"},
	{name: "store.restore_p95_ms", unit: "ms", better: "lower"},
	{name: "blockstore.seal_calls", unit: "count", better: "lower"},
	{name: "blockstore.seal_bytes", unit: "B", better: "lower"},
	{name: "blockstore.seal_busy_s", unit: "s", better: "lower"},
	{name: "blockstore.read_calls", unit: "count", better: "lower"},
	{name: "blockstore.read_bytes", unit: "B", better: "lower"},
	{name: "blockstore.read_busy_s", unit: "s", better: "lower"},
	{name: "blockstore.sync_calls", unit: "count", better: "lower"},
	{name: "blockstore.sync_busy_s", unit: "s", better: "lower"},
	{name: "blockstore.drop_calls", unit: "count", better: "lower"},
	{name: "blockstore.drop_busy_s", unit: "s", better: "lower"},
	{name: "blockstore.close_busy_s", unit: "s", better: "lower"},
	{name: "blockstore.dir_files", unit: "count", better: "lower"},
	{name: "blockstore.dir_bytes", unit: "B", better: "lower"},
	{name: "device.write_syscalls", unit: "count", better: "lower"},
	{name: "device.write_bytes", unit: "B", better: "lower"},
	{name: "device.read_syscalls", unit: "count", better: "lower"},
	{name: "core.dup_frac", unit: "ratio", better: "higher"},
	{name: "core.rewritten_frac", unit: "ratio", better: "lower"},
	{name: "core.index_lookups_per_kchunk", unit: "count", better: "lower"},
	{name: "core.cache_hits_per_kchunk", unit: "count", better: "higher"},
	{name: "core.fragments_last", unit: "count", better: "lower"},
	{name: "restore.container_reads_per_gb", unit: "1/GB", better: "lower"},
	{name: "restore.cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "maintenance.epochs", unit: "count", better: "lower"},
	{name: "maintenance.busy_s", unit: "s", better: "lower"},
	{name: "maintenance.bytes_moved", unit: "B", better: "lower"},
	{name: "maintenance.bytes_reclaimed", unit: "B", better: "higher"},
	{name: "maintenance.containers_merged", unit: "count", better: "higher"},
	{name: "maintenance.refs_remapped", unit: "count", better: "lower"},
	{name: "maintenance.dead_frac_end", unit: "ratio", better: "lower"},
	{name: "serve.status_429", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.alloc_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "go.heap_inuse_peak_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// median returns the middle of xs (mean of the middle two for even counts).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// mbps is user bytes over wall time in the paper's unit (10^6 bytes/s).
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// ratio is a/b, 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
