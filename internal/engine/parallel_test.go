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

// traceHints is the hint table every tracePipeline reads and teaches, as a
// Store's backups share theirs: after the first run over a stream, the runs
// that follow jump over its chunks.
var traceHints = NewHints()

// tracePipeline runs Pipeline over data with a pool of workers hash
// goroutines (inline at one), at the current GOMAXPROCS, on traceHints.
func tracePipeline(t *testing.T, data []byte, workers int, keepData bool) *pipelineTrace {
	t.Helper()
	prev := hashWorkers
	hashWorkers = func() int { return workers }
	defer func() { hashWorkers = prev }()
	tr := &pipelineTrace{}
	var err error
	tr.logical, tr.chunks, tr.segments, err = Pipeline(context.Background(),
		bytes.NewReader(data), chunker.DefaultParams(),
		segment.DefaultParams(), &tr.clock, DefaultCostModel(), keepData, traceHints, tr.observe(t, keepData))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceReference is the oracle now that the pipeline has no serial body of
// its own to compare against: the straight-line loop that body was. One chunk
// at a time out of the chunker, a private copy of its bytes, fingerprint,
// charge, segment.
func traceReference(t *testing.T, data []byte, keepData bool) *pipelineTrace {
	t.Helper()
	ck, err := chunker.NewGear(bytes.NewReader(data), chunker.DefaultParams())
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

// setProcs sets GOMAXPROCS, which sizes the hash pool, for the rest of the
// test or benchmark, so the fan-out actually runs even on single-core hosts
// and the inline path even on many-core ones. Never under t.Parallel.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPipelineMatchesReference: chunks, segments, counters, chunk bytes and
// the simulated clock are those of the straight-line reference inline (one
// worker) and fanned out (2 to 8, more than GOMAXPROCS included), at
// GOMAXPROCS 1, 2 and 4, with and without chunk data. Outside tests the pool
// is GOMAXPROCS wide; the workers dimension reaches past that.
func TestPipelineMatchesReference(t *testing.T) {
	data := randBytes(6<<20, 1)
	for _, keepData := range []bool{false, true} {
		want := traceReference(t, data, keepData)
		if keepData && !bytes.Equal(want.rebuilt, data) {
			t.Fatal("reference does not reassemble the stream")
		}
		for _, procs := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("keep=%v/procs=%d/workers=%d", keepData, procs, workers), func(t *testing.T) {
					setProcs(t, procs)
					tracePipeline(t, data, workers, keepData).mustEqual(t, want)
				})
			}
		}
	}
}

func BenchmarkPipelineSerial(b *testing.B) {
	benchPipeline(b, 1, false, randBytes(16<<20, 7))
}

func BenchmarkPipelineParallel4(b *testing.B) {
	benchPipeline(b, 4, false, randBytes(16<<20, 7))
}

// BenchmarkPipelineIngest is the full data-carrying ingest front half
// (chunk → hash → segment with keepData, a pool of GOMAXPROCS hash workers),
// the number the wall-clock scaling work optimizes; b.SetBytes reports it as
// MB/s.
func BenchmarkPipelineIngest(b *testing.B) {
	benchPipeline(b, 0, true, randBytes(16<<20, 7))
}

// BenchmarkPipelineZeroRuns is BenchmarkPipelineIngest over 32 MiB of random
// bytes with 2 MiB of zeros every 8 MiB. Each run starts after a
// content-defined cut, out of phase with the windows' chains, so every window
// inside it misses its join and is repaired on the consumer.
func BenchmarkPipelineZeroRuns(b *testing.B) {
	data := randBytes(32<<20, 8)
	for at := 6 << 20; at < len(data); at += 8 << 20 {
		clear(data[at : at+2<<20])
	}
	benchPipeline(b, 0, true, data)
}

// benchPipeline runs the pipeline over data, with a fresh hint table each
// time, at GOMAXPROCS procs, or at the host's when procs is 0.
func benchPipeline(b *testing.B, procs int, keepData bool, data []byte) {
	if procs > 0 {
		setProcs(b, procs)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		var clk disk.Clock
		_, _, _, err := Pipeline(context.Background(),
			bytes.NewReader(data), chunker.DefaultParams(),
			segment.DefaultParams(), &clk, DefaultCostModel(), keepData, NewHints(),
			func(s *segment.Segment) error { sink += s.Bytes; return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}
