package engine

import (
	"repro/internal/cindex"
	"repro/internal/segment"
)

// observeSegment runs the ground-truth oracle over one segment in stream
// order (if an oracle is attached), accumulates the backup-level
// OracleRedundantBytes, and returns the segment's oracle-redundant bytes.
// The shell calls this once per segment before the engine's rule runs.
func observeSegment(o *cindex.Oracle, seg *segment.Segment, stats *BackupStats) int64 {
	if o == nil {
		return 0
	}
	var dup int64
	for _, c := range seg.Chunks {
		if o.Observe(c.FP, c.Size) {
			dup += int64(c.Size)
		}
	}
	stats.OracleRedundantBytes += dup
	return dup
}

// accountPartialSegment applies the paper's Fig. 3/Fig. 5 restriction: only
// segments that are *partially* redundant (0 < redundant < total) count
// toward the efficiency metric. removed is the number of redundant bytes the
// engine actually removed within this segment.
func accountPartialSegment(o *cindex.Oracle, seg *segment.Segment, oracleDup, removed int64, stats *BackupStats) {
	if o == nil || oracleDup == 0 || oracleDup >= seg.Bytes {
		return
	}
	stats.PartialRedundantBytes += oracleDup
	if removed > oracleDup {
		removed = oracleDup // an engine cannot remove more than exists
	}
	stats.RemovedInPartialBytes += removed
}
