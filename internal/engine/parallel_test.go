package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/segment"
)

// pipelineTrace collects everything a pipeline run produces, for equivalence
// comparison.
type pipelineTrace struct {
	logical, chunks, segments int64
	clock                     disk.Clock
	fps                       []chunk.Fingerprint
	segSizes                  []int64
	rebuilt                   []byte // the chunk bytes in order, with keepData
}

// observe is the process callback of both the pipeline under test and the
// reference: it records a segment and holds every chunk to the keepData
// contract (bytes present, unrecycled and matching their fingerprint, or
// absent).
func (tr *pipelineTrace) observe(t *testing.T, keepData bool) func(*segment.Segment) error {
	return func(s *segment.Segment) error {
		tr.segSizes = append(tr.segSizes, s.Bytes)
		for _, c := range s.Chunks {
			tr.fps = append(tr.fps, c.FP)
			switch {
			case !keepData && c.Data != nil:
				t.Fatal("data should be dropped")
			case keepData && chunk.Of(c.Data) != c.FP:
				t.Fatal("chunk bytes lost, or their buffer recycled too early")
			}
			tr.rebuilt = append(tr.rebuilt, c.Data...)
		}
		return nil
	}
}

func tracePipeline(t *testing.T, kind chunker.Kind, data []byte, workers int, keepData bool) *pipelineTrace {
	t.Helper()
	tr := &pipelineTrace{}
	cost := DefaultCostModel()
	cost.Workers = workers
	var err error
	tr.logical, tr.chunks, tr.segments, err = Pipeline(context.Background(),
		bytes.NewReader(data), kind, chunker.DefaultParams(),
		segment.DefaultParams(), &tr.clock, cost, keepData, tr.observe(t, keepData))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceReference is the oracle now that the pipeline has no serial body of
// its own to compare against: the straight-line loop that body was. One chunk
// at a time out of the chunker, a private copy of its bytes, fingerprint,
// charge, segment.
func traceReference(t *testing.T, kind chunker.Kind, data []byte, keepData bool) *pipelineTrace {
	t.Helper()
	ck, err := chunker.New(kind, bytes.NewReader(data), chunker.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sg, err := segment.New(segment.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := &pipelineTrace{}
	process := tr.observe(t, keepData)
	emit := func(s *segment.Segment) {
		if s != nil {
			tr.segments++
			process(s)
		}
	}
	for {
		raw, err := ck.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		c := chunk.New(append([]byte(nil), raw...))
		if !keepData {
			c.Data = nil
		}
		DefaultCostModel().ChargeCPU(&tr.clock, int64(c.Size))
		tr.logical += int64(c.Size)
		tr.chunks++
		emit(sg.Add(c))
	}
	emit(sg.Finish())
	return tr
}

func (tr *pipelineTrace) mustEqual(t *testing.T, want *pipelineTrace) {
	t.Helper()
	if tr.logical != want.logical || tr.chunks != want.chunks || tr.segments != want.segments {
		t.Fatalf("counters differ: %d B %d chunks %d segments, want %d %d %d",
			tr.logical, tr.chunks, tr.segments, want.logical, want.chunks, want.segments)
	}
	if tr.clock.Now() != want.clock.Now() {
		t.Fatalf("simulated time differs: %v vs %v", tr.clock.Now(), want.clock.Now())
	}
	if len(tr.fps) != len(want.fps) || len(tr.segSizes) != len(want.segSizes) {
		t.Fatalf("%d chunks in %d segments, want %d in %d", len(tr.fps), len(tr.segSizes), len(want.fps), len(want.segSizes))
	}
	for i := range tr.fps {
		if tr.fps[i] != want.fps[i] {
			t.Fatalf("chunk %d differs or is out of order", i)
		}
	}
	for i := range tr.segSizes {
		if tr.segSizes[i] != want.segSizes[i] {
			t.Fatalf("segment %d differs", i)
		}
	}
	if !bytes.Equal(tr.rebuilt, want.rebuilt) {
		t.Fatal("chunk bytes differ from the stream")
	}
}

// setProcs sets GOMAXPROCS for the rest of the test, so the fan-out actually
// runs even on single-core hosts (the pipeline clamps workers to GOMAXPROCS).
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPipelineMatchesReference: chunks, segments, counters, chunk bytes and
// the simulated clock are those of the straight-line reference for every
// worker count, inline or fanned out, at every GOMAXPROCS, with and without
// chunk data; and for every chunker kind.
func TestPipelineMatchesReference(t *testing.T) {
	data := randBytes(6<<20, 1)
	for _, keepData := range []bool{false, true} {
		want := traceReference(t, chunker.KindGear, data, keepData)
		if keepData && !bytes.Equal(want.rebuilt, data) {
			t.Fatal("reference does not reassemble the stream")
		}
		for _, procs := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("keep=%v/procs=%d/workers=%d", keepData, procs, workers), func(t *testing.T) {
					setProcs(t, procs)
					tracePipeline(t, chunker.KindGear, data, workers, keepData).mustEqual(t, want)
				})
			}
		}
	}
	for _, kind := range []chunker.Kind{chunker.KindRabin, chunker.KindFixed, chunker.KindTTTD} {
		t.Run(kind.String(), func(t *testing.T) {
			setProcs(t, 2)
			small := data[:1<<20]
			want := traceReference(t, kind, small, true)
			for _, workers := range []int{1, 2} {
				tracePipeline(t, kind, small, workers, true).mustEqual(t, want)
			}
		})
	}
}

func BenchmarkPipelineSerial(b *testing.B) {
	benchPipeline(b, 1, false)
}

func BenchmarkPipelineParallel4(b *testing.B) {
	benchPipeline(b, 4, false)
}

// BenchmarkPipelineIngest is the full data-carrying ingest front half
// (chunk → hash → segment with keepData, auto worker pool), the number the
// wall-clock scaling work optimizes; b.SetBytes reports it as MB/s.
func BenchmarkPipelineIngest(b *testing.B) {
	benchPipeline(b, 0, true)
}

func benchPipeline(b *testing.B, workers int, keepData bool) {
	data := randBytes(16<<20, 7)
	cost := DefaultCostModel()
	cost.Workers = workers
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		var clk disk.Clock
		_, _, _, err := Pipeline(context.Background(),
			bytes.NewReader(data), chunker.KindGear, chunker.DefaultParams(),
			segment.DefaultParams(), &clk, cost, keepData,
			func(s *segment.Segment) error { sink += s.Bytes; return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}
