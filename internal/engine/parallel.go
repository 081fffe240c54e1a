package engine

import (
	"context"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/segment"
)

// hashBatchChunks is how many chunks ride in one hash job: SHA-256 of an
// 8 KiB chunk is far cheaper than a channel round trip, so per-chunk handoff
// would make the pool slower than the serial loop.
const hashBatchChunks = 64

// hashJob is one batch of chunks on its way through the hash workers.
type hashJob struct {
	data []byte // concatenated chunk bytes
	ends []int  // end offset of each chunk within data
	res  []chunk.Chunk
	err  error // injected worker fault (hashFaultHook)
	out  chan []chunk.Chunk
}

// hashJobs recycles job buffers (chunk bytes, end offsets, result slices,
// handoff channels) across every pipeline of the process, not per call: a
// pool built per backup starts each stream with empty buffers and regrows
// them by doubling on the chunker goroutine, which is ingest's critical
// path. A job is only ever Put once its result has been received and, with
// keepData, once a processed segment has consumed every chunk aliasing its
// bytes, so a job drawn by another stream is never still in use.
var hashJobs = sync.Pool{New: func() any { return &hashJob{out: make(chan []chunk.Chunk, 1)} }}

// getHashJob draws an empty job whose byte buffer already holds a batch of
// target-sized chunks (a batch of larger chunks grows it once, and the pool
// keeps the growth).
func getHashJob(targetChunk int) *hashJob {
	j := hashJobs.Get().(*hashJob)
	if want := hashBatchChunks * targetChunk; cap(j.data) < want {
		j.data = make([]byte, 0, want)
		j.ends = make([]int, 0, hashBatchChunks)
		j.res = make([]chunk.Chunk, 0, hashBatchChunks)
	}
	j.data = j.data[:0]
	j.ends = j.ends[:0]
	j.err = nil
	return j
}

// hashFaultHook, when non-nil, is called by hash workers for every chunk
// they fingerprint and lets tests inject a mid-batch worker failure. It must
// be set before a pipeline starts and cleared after it finishes.
var hashFaultHook func(chunk.Chunk) error

// ParallelPipeline is Pipeline with the fingerprinting stage fanned out
// across worker goroutines (the P-Dedupe idea the paper's venue literature
// describes: chunking is sequential by nature, hashing is embarrassingly
// parallel, dedup decisions must stay in stream order).
//
// Structure:
//
//	chunker (sequential) → bounded SPMC queue → [workers × SHA-256] →
//	in-order resequencing → segmenter → process (sequential)
//
// The simulated-time accounting is identical to Pipeline — the CPU cost
// model charges the same bytes; parallelism buys real wall-clock time for
// the simulation itself, not simulated time (a real system would also
// divide the modeled CPU term, which the CostModel caller can express by
// raising CPUBandwidth). Results are bit-identical to Pipeline for the
// same input.
//
// Chunk bytes flow zero-copy end to end: the producer copies each chunk
// once from the chunker window into a pooled job buffer, workers and the
// segment path alias that buffer, and the job is recycled once every chunk
// in it has passed through a processed segment.
func ParallelPipeline(
	ctx context.Context,
	r io.Reader,
	kind chunker.Kind,
	cp chunker.Params,
	sp segment.Params,
	clock *disk.Clock,
	cost CostModel,
	keepData bool,
	workers int,
	process func(*segment.Segment) error,
) (logicalBytes, chunks, segments int64, err error) {
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		// One lane (or a single-core host): the worker machinery is pure
		// overhead — run the serial pipeline. Workers = 1 means "explicitly
		// serial" (0 would re-resolve to GOMAXPROCS and recurse).
		serial := cost
		serial.Workers = 1
		return Pipeline(ctx, r, kind, cp, sp, clock, serial, keepData, process)
	}
	cost.Workers = 1 // the charge below is already per-chunk; avoid re-dispatch

	ck, err := chunker.New(kind, r, cp)
	if err != nil {
		return 0, 0, 0, err
	}
	sg, err := segment.New(sp)
	if err != nil {
		return 0, 0, 0, err
	}

	// Jobs recycle through hashJobs: steady-state ingest allocates no
	// per-batch buffers. Without keepData a job recycles as soon as the
	// consumer drains it; with keepData the emitted chunks alias job.data,
	// so drained jobs park on a retire list until the next processed
	// segment proves every chunk added so far has been consumed.
	// Bounded queue: the chunker stays ahead of the hashers without
	// buffering the whole stream.
	jobs := make(chan *hashJob, workers*2)
	// Order-preserving handoff: each job carries its own result channel;
	// the consumer reads jobs' channels in submission order.
	pending := make(chan *hashJob, workers*2)
	// stop tells the producer the consumer gave up (process error, ctx
	// cancellation) so it cuts the stream short instead of chunking to EOF.
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t0 := time.Now()
				out := j.res[:0]
				start := 0
				for _, end := range j.ends {
					c := chunk.New(j.data[start:end:end])
					if !keepData {
						c.Data = nil
					}
					if hashFaultHook != nil {
						if ferr := hashFaultHook(c); ferr != nil {
							j.err = ferr
							break
						}
					}
					out = append(out, c)
					start = end
				}
				j.res = out
				stageHash.Observe(t0) // one observation per batch of chunks
				j.out <- out
			}
		}()
	}

	var chunkErr error
	go func() {
		defer close(jobs)
		defer close(pending)
		cur := getHashJob(cp.Target)
		flush := func() {
			if len(cur.ends) == 0 {
				return
			}
			pending <- cur
			jobs <- cur
			cur = getHashJob(cp.Target)
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cerr := ctx.Err(); cerr != nil {
				chunkErr = cerr
				return
			}
			t0 := time.Now()
			raw, cerr := ck.Next()
			stageChunk.Observe(t0)
			if cerr == io.EOF {
				flush()
				return
			}
			if cerr != nil {
				flush()
				chunkErr = cerr
				return
			}
			// The chunker reuses its window; the job owns the single copy.
			cur.data = append(cur.data, raw...)
			cur.ends = append(cur.ends, len(cur.data))
			if len(cur.ends) >= hashBatchChunks {
				flush()
			}
		}
	}()

	var retired []*hashJob
	emit := func(seg *segment.Segment) error {
		if seg == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		segments++
		telSegments.Inc()
		if err := process(seg); err != nil {
			return err
		}
		// The processed segment contained every chunk added since the last
		// emit, so all drained jobs' bytes are dead — recycle them.
		for _, rj := range retired {
			hashJobs.Put(rj)
		}
		retired = retired[:0]
		return nil
	}
	abort := func(err error) (int64, int64, int64, error) {
		// Stop the producer, then drain it so all goroutines exit before
		// returning (no leaks even when the stream is far from EOF).
		close(stop)
		go func() {
			for j := range pending {
				<-j.out
			}
		}()
		wg.Wait()
		return logicalBytes, chunks, segments, err
	}
	for j := range pending {
		res := <-j.out
		if j.err != nil {
			return abort(j.err)
		}
		for _, c := range res {
			cost.ChargeCPU(clock, int64(c.Size))
			logicalBytes += int64(c.Size)
			chunks++
			telChunks.Inc()
			telBytes.Add(int64(c.Size))
			telChunkSize.Observe(float64(c.Size))
			if err := emit(sg.Add(c)); err != nil {
				return abort(err)
			}
		}
		if !keepData {
			hashJobs.Put(j)
		} else {
			retired = append(retired, j)
		}
	}
	wg.Wait()
	if chunkErr != nil {
		return logicalBytes, chunks, segments, chunkErr
	}
	if err := emit(sg.Finish()); err != nil {
		return logicalBytes, chunks, segments, err
	}
	return logicalBytes, chunks, segments, nil
}
