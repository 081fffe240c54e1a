package engine

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/segment"
)

func randBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestCostModelCharge(t *testing.T) {
	var clk disk.Clock
	m := CostModel{CPUBandwidth: 100e6}
	m.ChargeCPU(&clk, 100e6)
	if got := clk.Now(); got != time.Second {
		t.Fatalf("ChargeCPU = %v, want 1s", got)
	}
}

func TestDefaultCostModelCalibration(t *testing.T) {
	// DESIGN.md documents the calibration: CPU 750 MB/s + write 300 MB/s
	// compose to ~214 MB/s for an all-unique backup, matching the paper's
	// 213 MB/s generation-1 DDFS measurement.
	cpu := DefaultCostModel().CPUBandwidth
	wbw := disk.DefaultModel().WriteBW
	combined := 1 / (1/cpu + 1/wbw)
	if combined < 200e6 || combined > 230e6 {
		t.Fatalf("calibrated gen-1 throughput %.0f MB/s outside 200-230 band", combined/1e6)
	}
}

func TestBackupStatsThroughput(t *testing.T) {
	s := BackupStats{LogicalBytes: 100e6, Duration: time.Second}
	if s.ThroughputMBps() != 100 {
		t.Fatalf("ThroughputMBps = %v", s.ThroughputMBps())
	}
	if (BackupStats{}).ThroughputMBps() != 0 {
		t.Fatal("zero duration must yield zero throughput")
	}
}

func TestBackupStatsWrittenAndString(t *testing.T) {
	s := BackupStats{UniqueBytes: 10, RewrittenBytes: 5}
	if s.WrittenBytes() != 15 {
		t.Fatalf("WrittenBytes = %d", s.WrittenBytes())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestEfficiencyEdgeCases(t *testing.T) {
	if (BackupStats{}).Efficiency() != 0 {
		t.Fatal("no oracle → 0")
	}
	s := BackupStats{OracleRedundantBytes: 100}
	if s.Efficiency() != 1 {
		t.Fatal("no partial segments → 1 (nothing to miss)")
	}
	s.PartialRedundantBytes = 50
	s.RemovedInPartialBytes = 25
	if s.Efficiency() != 0.5 {
		t.Fatalf("Efficiency = %v", s.Efficiency())
	}
	s.RemovedInPartialBytes = 80 // clamp
	if s.Efficiency() != 1 {
		t.Fatal("efficiency must clamp at 1")
	}
}

func TestPipelineConservation(t *testing.T) {
	data := randBytes(3<<20, 1)
	var clk disk.Clock
	var total int64
	var segBytes int64
	logical, chunks, segs, err := Pipeline(context.Background(),
		bytes.NewReader(data), chunker.DefaultParams(),
		segment.DefaultParams(), &clk, DefaultCostModel(), false,
		func(s *segment.Segment) error {
			segBytes += s.Bytes
			for _, c := range s.Chunks {
				total += int64(c.Size)
				if c.Data != nil {
					t.Fatal("keepData=false must drop chunk data")
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if logical != int64(len(data)) || total != logical || segBytes != logical {
		t.Fatalf("conservation violated: logical=%d total=%d segBytes=%d input=%d",
			logical, total, segBytes, len(data))
	}
	if chunks == 0 || segs == 0 {
		t.Fatal("no chunks or segments")
	}
	if clk.Now() == 0 {
		t.Fatal("pipeline must charge CPU time")
	}
}

func TestPipelineKeepData(t *testing.T) {
	data := randBytes(1<<20, 2)
	var clk disk.Clock
	var rebuilt []byte
	_, _, _, err := Pipeline(context.Background(),
		bytes.NewReader(data), chunker.DefaultParams(),
		segment.DefaultParams(), &clk, DefaultCostModel(), true,
		func(s *segment.Segment) error {
			for _, c := range s.Chunks {
				if c.Data == nil {
					t.Fatal("keepData=true must retain data")
				}
				if chunk.Of(c.Data) != c.FP {
					t.Fatal("fingerprint mismatch")
				}
				rebuilt = append(rebuilt, c.Data...)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, data) {
		t.Fatal("pipeline chunks do not reassemble input")
	}
}

type failReader struct{ err error }

func (r failReader) Read([]byte) (int, error) { return 0, r.err }

func TestPipelineErrorPropagation(t *testing.T) {
	var clk disk.Clock
	_, _, _, err := Pipeline(context.Background(),
		failReader{io.ErrClosedPipe}, chunker.DefaultParams(),
		segment.DefaultParams(), &clk, DefaultCostModel(), false,
		func(*segment.Segment) error { return nil })
	if err != io.ErrClosedPipe {
		t.Fatalf("err = %v, want ErrClosedPipe", err)
	}
}

func TestPipelineProcessError(t *testing.T) {
	var clk disk.Clock
	sentinel := io.ErrShortWrite
	_, _, _, err := Pipeline(context.Background(),
		bytes.NewReader(randBytes(2<<20, 3)), chunker.DefaultParams(),
		segment.DefaultParams(), &clk, DefaultCostModel(), false,
		func(*segment.Segment) error { return sentinel })
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestPipelineBadParams(t *testing.T) {
	var clk disk.Clock
	if _, _, _, err := Pipeline(context.Background(), bytes.NewReader(nil),
		chunker.Params{}, segment.DefaultParams(), &clk, DefaultCostModel(), false,
		func(*segment.Segment) error { return nil }); err == nil {
		t.Fatal("bad chunk params must error")
	}
	if _, _, _, err := Pipeline(context.Background(), bytes.NewReader(nil),
		chunker.DefaultParams(), segment.Params{}, &clk, DefaultCostModel(), false,
		func(*segment.Segment) error { return nil }); err == nil {
		t.Fatal("bad segment params must error")
	}
}

// --- Resolver ---

// newResolverRig builds a resolver over a fresh store and returns it bound to
// the serial path: the resolver's own devices and the store's serial writer.
func newResolverRig(t *testing.T) (*StreamResolver, *container.Store, *disk.Clock) {
	t.Helper()
	var clk disk.Clock
	store, err := container.NewStore(disk.NewDevice(disk.DefaultModel(), &clk, false), container.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cindex.New(disk.NewDevice(disk.DefaultModel(), &clk, false), cindex.DefaultConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	return NewResolver(ix, store, 4, 10000).Stream(nil, store.SerialWriter()), store, &clk
}

func mkChunk(i byte) chunk.Chunk { return chunk.Meta(chunk.Of([]byte{i}), 100) }

// resolveOne resolves c as a batch of one.
func resolveOne(r *StreamResolver, c chunk.Chunk, stats *BackupStats) (chunk.Location, bool) {
	res := r.ResolveBatch([]chunk.Chunk{c}, stats)[0]
	return res.Loc, res.Dup
}

func TestResolverNewChunkIsFree(t *testing.T) {
	r, _, clk := newResolverRig(t)
	var stats BackupStats
	before := clk.Now()
	if _, dup := resolveOne(r, mkChunk(1), &stats); dup {
		t.Fatal("unknown chunk must not be a duplicate")
	}
	if clk.Now() != before {
		t.Fatal("bloom-negative resolve must be free")
	}
	if stats.IndexLookups != 0 {
		t.Fatal("no index lookup expected")
	}
}

func TestResolverDuplicatePath(t *testing.T) {
	r, store, _ := newResolverRig(t)
	var stats BackupStats
	c := mkChunk(2)
	loc := mustWrite(store, c, 7)
	r.RegisterNew(c.FP, loc)
	store.SerialWriter().Finish(context.Background())

	got, dup := resolveOne(r, c, &stats)
	if !dup || got != loc {
		t.Fatalf("resolve = %v,%v want %v,true", got, dup, loc)
	}
	if stats.IndexLookups != 1 || stats.MetaPrefetches != 1 {
		t.Fatalf("stats = %+v, want one lookup + one prefetch", stats)
	}
	// Second resolve: LPC hit, free.
	_, dup = resolveOne(r, c, &stats)
	if !dup || stats.CacheHits != 1 || stats.IndexLookups != 1 {
		t.Fatalf("second resolve should be a cache hit: %+v", stats)
	}
}

func TestResolverPrefetchCoversNeighbours(t *testing.T) {
	r, store, _ := newResolverRig(t)
	var stats BackupStats
	// Write several chunks into the same container.
	var cs []chunk.Chunk
	for i := byte(10); i < 20; i++ {
		c := mkChunk(i)
		loc := mustWrite(store, c, 1)
		r.RegisterNew(c.FP, loc)
		cs = append(cs, c)
	}
	store.SerialWriter().Finish(context.Background())
	// Resolving the first pays; the rest ride the prefetched metadata.
	resolveOne(r, cs[0], &stats)
	for _, c := range cs[1:] {
		if _, dup := resolveOne(r, c, &stats); !dup {
			t.Fatal("neighbour must be duplicate")
		}
	}
	if stats.IndexLookups != 1 {
		t.Fatalf("IndexLookups = %d, want 1 (locality-preserved caching)", stats.IndexLookups)
	}
	if stats.CacheHits != int64(len(cs)-1) {
		t.Fatalf("CacheHits = %d, want %d", stats.CacheHits, len(cs)-1)
	}
}

func TestResolverRepointWinsOverStaleMetadata(t *testing.T) {
	r, store, _ := newResolverRig(t)
	var stats BackupStats
	c := mkChunk(30)
	oldLoc := mustWrite(store, c, 1)
	r.RegisterNew(c.FP, oldLoc)
	store.SerialWriter().Finish(context.Background())
	// Cache the old container metadata.
	resolveOne(r, c, &stats)
	// Rewrite the chunk elsewhere.
	newLoc := mustWrite(store, c, 2)
	r.Repoint(c.FP, newLoc)
	store.SerialWriter().Finish(context.Background())
	got, dup := resolveOne(r, c, &stats)
	if !dup || got != newLoc {
		t.Fatalf("resolve after Repoint = %v, want the rewritten location %v", got, newLoc)
	}
}

// --- oracle helpers ---

func TestObserveSegmentNilOracle(t *testing.T) {
	var stats BackupStats
	seg := &segment.Segment{Chunks: []chunk.Chunk{mkChunk(1)}, Bytes: 100}
	if got := observeSegment(nil, seg, &stats); got != 0 {
		t.Fatal("nil oracle must observe nothing")
	}
}

func TestObserveSegmentCounts(t *testing.T) {
	o := cindex.NewOracle()
	var stats BackupStats
	seg := &segment.Segment{Chunks: []chunk.Chunk{mkChunk(1), mkChunk(1), mkChunk(2)}, Bytes: 300}
	dup := observeSegment(o, seg, &stats)
	if dup != 100 {
		t.Fatalf("dup = %d, want 100 (second occurrence of chunk 1)", dup)
	}
	if stats.OracleRedundantBytes != 100 {
		t.Fatalf("OracleRedundantBytes = %d", stats.OracleRedundantBytes)
	}
}

func TestAccountPartialSegment(t *testing.T) {
	o := cindex.NewOracle()
	seg := &segment.Segment{Bytes: 300}
	var stats BackupStats

	accountPartialSegment(nil, seg, 100, 50, &stats) // nil oracle: no-op
	accountPartialSegment(o, seg, 0, 0, &stats)      // no redundancy: no-op
	accountPartialSegment(o, seg, 300, 300, &stats)  // fully redundant: excluded
	if stats.PartialRedundantBytes != 0 {
		t.Fatalf("excluded cases leaked: %+v", stats)
	}
	accountPartialSegment(o, seg, 100, 150, &stats) // removal clamps to oracle dup
	if stats.PartialRedundantBytes != 100 || stats.RemovedInPartialBytes != 100 {
		t.Fatalf("clamping wrong: %+v", stats)
	}
}

// mustWrite appends c through the store frontier; the in-memory backends
// used by these tests cannot fail, so any error is a test bug.
func mustWrite(s *container.Store, c chunk.Chunk, seg uint64) chunk.Location {
	loc, err := s.SerialWriter().Write(context.Background(), c, seg)
	if err != nil {
		panic(err)
	}
	return loc
}
