package engine

import "repro/internal/telemetry"

// Per-stage wall clocks of the shared ingest pipeline (the always-on layer;
// see telemetry/stage.go). "read" is the producer filling windows from the
// stream, "hash" a worker cutting a window (CDC search and hint jumps) and
// fingerprinting its chunks, "lookup" is duplicate identification through the
// resolver (including resolver-mutex wait, so multi-stream serialization on
// the shared index shows up here).
var (
	stageRead   = telemetry.Stage("read")
	stageHash   = telemetry.Stage("hash")
	stageLookup = telemetry.Stage("lookup")
)

// Live telemetry of the shared backup pipeline and the DDFS resolver
// machinery. These are process-wide instruments on the telemetry Default
// registry (every engine in the process adds to them); the per-backup
// BackupStats remain the per-run source of truth for experiment tables.
var (
	telChunks = telemetry.NewCounter("dedup_chunks_processed_total",
		"chunks produced by the backup pipeline across all engines")
	telBytes = telemetry.NewCounter("dedup_bytes_processed_total",
		"logical bytes ingested by the backup pipeline")
	telSegments = telemetry.NewCounter("dedup_segments_total",
		"content-defined segments formed by the backup pipeline")
	telChunkSize = telemetry.NewHistogram("dedup_chunk_size_bytes",
		"CDC chunk size distribution", telemetry.SizeBuckets)
	telHintedChunks = telemetry.NewCounter("dedup_ingest_hinted_chunks_total",
		"chunks placed by a hint (the chunk that followed the same key in an earlier stream) instead of the gear search")
	telHintsRefuted = telemetry.NewCounter("dedup_ingest_hints_refuted_total",
		"hints whose chunk fingerprint differed, so the chunk was cut again by search")
	telWindowRepairs = telemetry.NewCounter("dedup_ingest_window_repairs_total",
		"ingest windows whose worker-cut chain missed the previous window's last cut, re-cut from it by search")

	telResolverCacheHits = telemetry.NewCounter("dedup_resolver_cache_hits_total",
		"duplicate chunks resolved from RAM (locality-preserved cache or current-location table)")
	telResolverBloomNeg = telemetry.NewCounter("dedup_resolver_bloom_negatives_total",
		"chunks the summary vector ruled out without any disk access")
	telResolverLookups = telemetry.NewCounter("dedup_resolver_index_lookups_total",
		"charged full-index lookups (the paper's disk-bottleneck events)")
	telResolverPrefetches = telemetry.NewCounter("dedup_resolver_meta_prefetches_total",
		"container-metadata prefetch reads into the locality-preserved cache")
	telLPCEvictions = telemetry.NewCounter("dedup_lpc_evictions_total",
		"locality-preserved-cache container evictions")
)
