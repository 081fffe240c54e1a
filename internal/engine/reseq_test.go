package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/segment"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base, failing with a full stack dump on a leak. The pipeline must not
// strand its producer or workers no matter how it exits.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, want <= %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestPipelineAllocsPerChunk pins the zero-copy ingest hot path: chunks are
// cut and hashed inside pooled job buffers, with no per-chunk allocation
// (the first pipeline allocated a buffer per chunk, >= 1 alloc/chunk).
func TestPipelineAllocsPerChunk(t *testing.T) {
	data := randBytes(4<<20, 11)
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		var chunks int64
		h := NewHints() // shared by the runs, as by a Store's backups
		run := func() {
			var clk disk.Clock
			var sink int64
			_, n, _, err := Pipeline(context.Background(),
				bytes.NewReader(data), chunker.DefaultParams(),
				segment.DefaultParams(), &clk, DefaultCostModel(), true, h,
				func(s *segment.Segment) error {
					for _, c := range s.Chunks {
						sink += int64(len(c.Data))
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			chunks = n
		}
		allocs := testing.AllocsPerRun(3, run)
		if perChunk := allocs / float64(chunks); perChunk > 0.5 {
			t.Fatalf("procs=%d: %.2f allocs/chunk (%.0f allocs, %d chunks); the per-chunk copy is back",
				procs, perChunk, allocs, chunks)
		}
	}
}

// TestInlinePipelineStartsNoGoroutine: at GOMAXPROCS 1 the producer, hash
// and consumer steps run in turn on the caller's goroutine.
func TestInlinePipelineStartsNoGoroutine(t *testing.T) {
	setProcs(t, 1)
	base := runtime.NumGoroutine()
	var clk disk.Clock
	segs := 0
	_, _, _, err := Pipeline(context.Background(),
		bytes.NewReader(randBytes(4<<20, 15)), chunker.DefaultParams(),
		segment.DefaultParams(), &clk, DefaultCostModel(), true, NewHints(),
		func(*segment.Segment) error {
			segs++
			// A goroutine of an earlier test may still be on its way out, so
			// fewer than before is fine; more is not.
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines while ingesting, %d before", n, base)
			}
			return nil
		})
	if err != nil || segs == 0 {
		t.Fatalf("%d segments, err %v", segs, err)
	}
}

// failAfter delivers n bytes of a stream and then fails.
func failAfter(data []byte, n int, err error) io.Reader {
	return io.MultiReader(bytes.NewReader(data[:n]), failReader{err})
}

// TestPipelineAbortPaths cuts a stream short in each way a backup can die —
// the engine's process callback fails, the context is cancelled mid-stream,
// the reader fails — inline (GOMAXPROCS 1)
// and fanned out across four hash workers (GOMAXPROCS 4).
// Every time the cause must surface, what was processed before it must be an
// in-order prefix of the full run, and the pipeline must leave nothing
// behind: no goroutine, and every job buffer back in the pool.
func TestPipelineAbortPaths(t *testing.T) {
	setProcs(t, 4)
	data := randBytes(24<<20, 12)
	full := tracePipeline(t, data, 4, false)
	sentinel := errors.New("injected failure")

	type run struct {
		ctx     context.Context
		cancel  context.CancelFunc
		r       io.Reader
		segs    int
		process func() error // called per segment, after it is recorded
	}
	causes := []struct {
		name  string
		want  error
		setup func(*run)
	}{
		{"process error", sentinel, func(r *run) {
			r.process = func() error {
				if r.segs == 3 {
					return sentinel
				}
				return nil
			}
		}},
		{"ctx cancel", context.Canceled, func(r *run) {
			r.process = func() error {
				if r.segs == 2 {
					r.cancel()
				}
				return nil
			}
		}},
		{"read error", sentinel, func(r *run) { r.r = failAfter(data, 5<<20+123, sentinel) }},
	}
	for _, cause := range causes {
		for _, workers := range []int{1, 4} {
			for _, keepData := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/keep=%v", cause.name, workers, keepData), func(t *testing.T) {
					setProcs(t, workers)
					baseG, baseJobs := runtime.NumGoroutine(), hashJobsLive.Load()
					r := &run{r: bytes.NewReader(data), process: func() error { return nil }}
					r.ctx, r.cancel = context.WithCancel(context.Background())
					defer r.cancel()
					cause.setup(r)

					var clk disk.Clock
					var fps []chunk.Fingerprint
					_, _, _, err := Pipeline(r.ctx, r.r, chunker.DefaultParams(),
						segment.DefaultParams(), &clk, DefaultCostModel(), keepData, traceHints,
						func(s *segment.Segment) error {
							r.segs++
							for _, c := range s.Chunks {
								fps = append(fps, c.FP)
							}
							return r.process()
						})
					if !errors.Is(err, cause.want) {
						t.Fatalf("err = %v, want %v", err, cause.want)
					}
					if len(fps) >= len(full.fps) {
						t.Fatalf("the stream was not cut short (%d chunks processed)", len(fps))
					}
					for i, fp := range fps {
						if fp != full.fps[i] {
							t.Fatalf("chunk %d is not the full run's: not an in-order prefix", i)
						}
					}
					if cause.name == "read error" && len(fps) == 0 {
						t.Fatal("bytes read before the failure were not processed")
					}
					waitGoroutines(t, baseG)
					if n := hashJobsLive.Load(); n != baseJobs {
						t.Fatalf("%d job buffers not returned to the pool", n-baseJobs)
					}
				})
			}
		}
	}
}
