package repro

import (
	"time"

	"repro/internal/engine"
)

// BackupStats are the measurements of one backup through the store. All
// byte counts are logical-stream bytes; all times are simulated-disk time.
type BackupStats struct {
	Label        string
	LogicalBytes int64
	Chunks       int64
	Segments     int64

	UniqueBytes     int64 // new unique chunk bytes written
	DedupedBytes    int64 // redundant bytes removed by reference
	RewrittenBytes  int64 // redundant bytes deliberately written (DeFrag)
	RewrittenChunks int64
	MissedDupBytes  int64 // redundancy the engine failed to detect (SiLo)
	SpilledBytes    int64 // probable duplicates written through by the inline filter
	SpilledChunks   int64
	FilterSpilled   bool // the inline filter demoted this stream to write-through

	Duration time.Duration

	// Mechanism counters.
	IndexLookups   int64 // on-disk full-index lookups (DDFS/DeFrag)
	MetaPrefetches int64 // container-metadata prefetches (DDFS/DeFrag)
	CacheHits      int64 // duplicates resolved from RAM caches
	BlockReads     int64 // block-metadata reads (SiLo)
	SHTHits        int64 // similar-segment detections (SiLo); champions loaded (Sparse-Index)

	// Ground truth (only when Options.TrackEfficiency).
	OracleRedundantBytes  int64
	PartialRedundantBytes int64
	RemovedInPartialBytes int64
}

// ThroughputMBps returns the backup's deduplication throughput in MB/s —
// the paper's Fig. 2/Fig. 4 metric.
func (s BackupStats) ThroughputMBps() float64 {
	sec := s.Duration.Seconds()
	if sec == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / sec / 1e6
}

// Efficiency returns the paper's Fig. 3/Fig. 5 deduplication-efficiency
// metric: redundant bytes removed over redundant bytes present, restricted
// to partially-redundant segments. Requires Options.TrackEfficiency; 0
// otherwise.
func (s BackupStats) Efficiency() float64 {
	es := engine.BackupStats{
		OracleRedundantBytes:  s.OracleRedundantBytes,
		PartialRedundantBytes: s.PartialRedundantBytes,
		RemovedInPartialBytes: s.RemovedInPartialBytes,
	}
	return es.Efficiency()
}

// WrittenBytes returns the physical bytes this backup added.
func (s BackupStats) WrittenBytes() int64 {
	return s.UniqueBytes + s.RewrittenBytes + s.SpilledBytes
}

func fromEngineStats(st engine.BackupStats) BackupStats {
	return BackupStats{
		Label:        st.Label,
		LogicalBytes: st.LogicalBytes,
		Chunks:       st.Chunks,
		Segments:     st.Segments,

		UniqueBytes:     st.UniqueBytes,
		DedupedBytes:    st.DedupedBytes,
		RewrittenBytes:  st.RewrittenBytes,
		RewrittenChunks: st.RewrittenChunks,
		MissedDupBytes:  st.MissedDupBytes,
		SpilledBytes:    st.SpilledBytes,
		SpilledChunks:   st.SpilledChunks,
		FilterSpilled:   st.FilterSpilled,

		Duration: st.Duration,

		IndexLookups:   st.IndexLookups,
		MetaPrefetches: st.MetaPrefetches,
		CacheHits:      st.CacheHits,
		BlockReads:     st.BlockReads,
		SHTHits:        st.SHTHits,

		OracleRedundantBytes:  st.OracleRedundantBytes,
		PartialRedundantBytes: st.PartialRedundantBytes,
		RemovedInPartialBytes: st.RemovedInPartialBytes,
	}
}

// RestoreStats are the measurements of one restore — the paper's Fig. 6
// metric plus the fragmentation evidence behind Eq. 1. Field for field it is
// restore.Stats, which converts to it.
type RestoreStats struct {
	Label          string
	Bytes          int64
	Chunks         int64
	ContainerReads int64 // restore-cache misses: container fetches
	// ReadBytes is what those fetches asked the backend for: on the file
	// backend the ranges of each section the backup's chunks lie in, else —
	// the sim backend, no buffer to spare — whole sections. ReadBytes / Bytes is the read
	// amplification; simulated time is charged for whole containers.
	ReadBytes int64
	CacheHits int64
	// ExtentReads is the count of physical discontiguous reads (Eq. 1's N
	// after coalescing); equals ContainerReads on uncoalesced paths.
	ExtentReads int64
	// CoalescedContainers is the number of container fetches folded into a
	// preceding sequential extent read — the seeks saved by coalescing.
	CoalescedContainers int64
	Fragments           int // placement fragments (Eq. 1's N)
	Duration            time.Duration
}

// ThroughputMBps returns the restore bandwidth in MB/s.
func (s RestoreStats) ThroughputMBps() float64 {
	sec := s.Duration.Seconds()
	if sec == 0 {
		return 0
	}
	return float64(s.Bytes) / sec / 1e6
}
