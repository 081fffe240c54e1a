package engine

import (
	"context"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/fanout"
	"repro/internal/segment"
)

// hashBatchChunks is how many target-sized chunks ride in one hash job:
// SHA-256 of an 8 KiB chunk is far cheaper than a channel round trip, so
// per-chunk handoff would make the pool slower than hashing inline.
const hashBatchChunks = 64

// hashJob is one buffer of the stream on its way through the pipeline: the
// producer reads and cuts it in place, a worker fingerprints its chunks, the
// consumer segments them.
type hashJob struct {
	data []byte // the scan buffer, always used at full length
	n    int    // valid bytes; before the scan, the bytes carried in
	ends []int  // end offset of each chunk within data
	res  []chunk.Chunk

	// Scratch for chunk.OfEach: each chunk's view of data, its fingerprint.
	views [][]byte
	fps   []chunk.Fingerprint
}

// hashJobs recycles job buffers (stream bytes, end offsets, result slices)
// across every pipeline of the process, not per call: a pool built per
// backup would allocate and zero fresh buffers on the producer, which is
// ingest's critical path. A job is only ever put back once it has been
// hashed and, with keepData, once a processed segment has consumed every
// chunk aliasing its bytes, so a job drawn by another stream is never still
// in use.
var hashJobs = sync.Pool{New: func() any { return &hashJob{} }}

// hashJobsLive counts jobs drawn and not yet put back; the abort-path tests
// read it.
var hashJobsLive atomic.Int64

// getHashJob draws a job whose buffer holds size bytes.
func getHashJob(size int) *hashJob {
	hashJobsLive.Add(1)
	j := hashJobs.Get().(*hashJob)
	if len(j.data) != size {
		j.data = make([]byte, size)
	}
	j.n = 0
	return j
}

func putHashJob(j *hashJob) {
	hashJobsLive.Add(-1)
	hashJobs.Put(j)
}

// hashWorkers sizes Pipeline's hash pool; tests widen it past GOMAXPROCS.
var hashWorkers = func() int { return runtime.GOMAXPROCS(0) }

// hash fingerprints the job's chunks, all in one chunk.OfEach call; they
// alias its buffer.
func (j *hashJob) hash(keepData bool) {
	t0 := time.Now()
	j.views = j.views[:0]
	start := 0
	for _, end := range j.ends {
		j.views = append(j.views, j.data[start:end:end])
		start = end
	}
	j.fps = slices.Grow(j.fps[:0], len(j.views))[:len(j.views)]
	chunk.OfEach(j.views, j.fps)
	out := j.res[:0]
	for k, d := range j.views {
		c := chunk.Chunk{FP: j.fps[k], Size: uint32(len(d)), Data: d}
		if !keepData {
			c.Data = nil
		}
		out = append(out, c)
	}
	j.res = out
	stageHash.Observe(t0) // one observation per job
}

// ingest is the state of one Pipeline call. next is the producer's step,
// hashJob.hash the worker's, consume the consumer's; Pipeline runs the three
// in turn on one goroutine or on several.
type ingest struct {
	ctx     context.Context
	sc      *chunker.Scanner
	sg      *segment.Segmenter
	clock   *disk.Clock
	cost    CostModel
	process func(*segment.Segment) error

	// Producer side.
	jobSize int
	cur     *hashJob // the job the next scan fills, holding the carried tail
	readErr error    // why the producer stopped short of the end of the stream

	// Consumer side.
	logicalBytes, chunks, segments int64
	// With keepData the chunks handed to process alias their job's buffer,
	// so consumed jobs wait here, the one being consumed last, until a
	// processed segment has taken every chunk added so far.
	retired []*hashJob
}

// next reads and cuts the next job's worth of the stream in place: the bytes
// go from the reader into the buffer they are hashed in, and only the tail
// past the last certain boundary (shorter than the longest chunk) is copied
// once more, into the job after. It returns nil when the stream is used up,
// has failed, or ctx is done.
func (p *ingest) next() *hashJob {
	j := p.cur
	if j == nil {
		return nil
	}
	p.cur = nil
	if p.readErr = p.ctx.Err(); p.readErr != nil {
		putHashJob(j)
		return nil
	}
	t0 := time.Now()
	j.n, j.ends = p.sc.Scan(j.data, j.n, j.ends[:0])
	if err := p.sc.Err(); err == nil {
		// The carried tail moves now, while this job is still the
		// producer's alone: once dispatched it may be recycled at any time.
		p.cur = getHashJob(p.jobSize)
		p.cur.n = copy(p.cur.data, j.data[j.ends[len(j.ends)-1]:j.n])
	} else if err != io.EOF {
		p.readErr = err
	}
	stageChunk.Observe(t0) // one observation per job, read time included
	if len(j.ends) == 0 {
		putHashJob(j)
		return nil
	}
	return j
}

// consume charges and segments one hashed job in stream order, handing each
// completed segment to process.
func (p *ingest) consume(j *hashJob) (err error) {
	p.retired = append(p.retired, j)
	bytes, chunks := p.logicalBytes, p.chunks
	for _, c := range j.res {
		p.cost.ChargeCPU(p.clock, int64(c.Size))
		p.logicalBytes += int64(c.Size)
		p.chunks++
		telChunkSize.Observe(float64(c.Size))
		if err = p.emit(p.sg.Add(c)); err != nil {
			break
		}
	}
	telBytes.Add(p.logicalBytes - bytes)
	telChunks.Add(p.chunks - chunks)
	return err
}

func (p *ingest) emit(seg *segment.Segment) error {
	if seg == nil {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return err
	}
	p.segments++
	telSegments.Inc()
	if err := p.process(seg); err != nil {
		return err
	}
	// The processed segment contained every chunk added since the last
	// emit, so the bytes of every job but the one being consumed are dead.
	if n := len(p.retired) - 1; n > 0 {
		for _, j := range p.retired[:n] {
			putHashJob(j)
		}
		p.retired[0] = p.retired[n]
		p.retired = p.retired[:1]
	}
	return nil
}

// release puts back every job the consumer and the producer still hold.
func (p *ingest) release() {
	for _, j := range p.retired {
		putHashJob(j)
	}
	if p.cur != nil {
		putHashJob(p.cur)
	}
}

// Pipeline runs the shared front half of a backup — chunking, hashing, CPU
// charging, segmenting — and hands each completed segment to process. It
// returns the logical byte count and chunk/segment counts.
//
// There is one body. The producer cuts the stream in place inside pooled job
// buffers, each job's chunks are fingerprinted, and the consumer charges and
// segments them in stream order:
//
//	read + cut (sequential) → [workers × SHA-256] → in-order segmenter → process
//
// The producer runs on the calling goroutine and submits each job to a
// fanout.Pool of GOMAXPROCS hash workers behind bounded queues (the P-Dedupe
// idea: chunking is sequential by nature, hashing is embarrassingly
// parallel, dedup decisions must stay in stream order), whose one consumer
// takes jobs back in submission order. With GOMAXPROCS at one the pool runs
// the three steps in turn on the calling goroutine: no goroutine, no
// channel. Chunks, recipes and simulated time are bit-identical either way —
// the CPU cost model charges the same bytes; parallelism buys wall-clock time
// for the simulation itself, not simulated time.
//
// keepData controls whether chunk bytes are retained into the segments
// (true when the engine's container backend stores data). Chunk Data slices
// handed to process live in pooled buffers that are recycled once a later
// segment has been processed: an engine that retains chunk bytes past its
// process callback must copy them (every in-tree engine copies into its
// container writer synchronously).
//
// Cancelling ctx stops the pipeline at the next segment boundary with
// ctx's error; segments already handed to process are fully applied. A read
// failure is returned after the bytes read before it have been processed.
func Pipeline(
	ctx context.Context,
	r io.Reader,
	cp chunker.Params,
	sp segment.Params,
	clock *disk.Clock,
	cost CostModel,
	keepData bool,
	process func(*segment.Segment) error,
) (logicalBytes, chunks, segments int64, err error) {
	sc, err := chunker.NewScanner(r, cp)
	if err != nil {
		return 0, 0, 0, err
	}
	sg, err := segment.New(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	p := &ingest{
		ctx: ctx, sc: sc, sg: sg, clock: clock, cost: cost, process: process,
		jobSize: hashBatchChunks*cp.Target + sc.MaxChunk(),
	}
	p.cur = getHashJob(p.jobSize)
	defer p.release()

	// The queues let the producer run two jobs per worker ahead of the
	// hashers without buffering the whole stream.
	workers := hashWorkers()
	hashing := fanout.New(workers, 2*workers, func(j *hashJob) { j.hash(keepData) }, p.consume, putHashJob)
	for j := p.next(); j != nil; j = p.next() {
		if !hashing.Submit(j) {
			break // the consumer failed
		}
	}
	err = hashing.Close()
	if err == nil {
		err = p.readErr
	}
	if err == nil {
		err = p.emit(sg.Finish())
	}
	return p.logicalBytes, p.chunks, p.segments, err
}
