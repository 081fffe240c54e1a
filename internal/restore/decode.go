package restore

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/fanout"
)

// decodeBatchSize is the number of chunk refs grouped into one decode unit.
// Batching amortizes channel operations over many chunks so the per-chunk
// cost of the parallel path stays allocation-free (batches recycle through
// a pool) and far below one synchronization per chunk.
const decodeBatchSize = 64

// decodeJob is one chunk awaiting verify/emit. data is a zero-copy view
// into the fetched container section — never a private copy.
type decodeJob struct {
	idx    int // ref index, for error attribution and the sink
	fp     chunk.Fingerprint
	size   uint32
	data   []byte
	charge []uint32 // the one-lane extent read to charge before data is written
}

// decodeBatch is the unit the decode pool carries: the assembler fills it in
// stream order, a worker verifies it, the pool's consumer emits it.
type decodeBatch struct {
	jobs    []decodeJob
	retired []byte // a section no batch after this one views (see retire)
	err     error  // first verify failure in the batch...
	errIdx  int    // ...at jobs[errIdx]

	// Scratch for chunk.OfEach: each job's data, its fingerprint.
	views [][]byte
	fps   []chunk.Fingerprint
}

// decodeBatches recycles batches across restores. It is the package's, not
// the restore's: the runtime keeps a used sync.Pool reachable until the
// collection after next, and one per restore would keep the restore — and
// through it its whole section set — alive that long. Batches go back empty
// (see recycle), so the pool itself views no section.
var decodeBatches = sync.Pool{New: func() any {
	return &decodeBatch{jobs: make([]decodeJob, 0, decodeBatchSize)}
}}

// startDecode gives the assembly its decode pool: workers goroutines
// SHA-256-verify whole batches in any order, and the pool's consumer emits
// them in submission order, stopping at the first error — so the bytes on
// the wire, the error the caller sees and the Bytes/Chunks tallies are the
// same at every worker count. Four batches per worker may queue ahead of the
// workers, and as many ahead of the consumer.
func (as *assembly) startDecode(workers int) {
	as.decode = fanout.New(workers, 4*workers, as.verify, as.emit, as.recycle)
}

// push appends one chunk to the current batch and submits the batch once it
// is full. It reports false once the decode pool has failed: the assembler
// stops producing and finishDecode surfaces the error.
func (as *assembly) push(idx int, ref *chunk.Ref, piece []byte, charge []uint32) bool {
	b := as.batch()
	b.jobs = append(b.jobs, decodeJob{idx: idx, fp: ref.FP, size: ref.Size, data: piece, charge: charge})
	return len(b.jobs) < decodeBatchSize || as.submit()
}

func (as *assembly) batch() *decodeBatch {
	if as.cur == nil {
		as.cur = decodeBatches.Get().(*decodeBatch)
	}
	return as.cur
}

// submit hands the current batch to the decode pool, whose queues are
// bounded: slow workers or a slow writer hold the assembler back.
func (as *assembly) submit() bool {
	b := as.cur
	as.cur = nil
	b.err, b.errIdx = nil, 0
	if as.restore {
		telDecodeQueueDepth.Observe(float64(as.decode.Queued()))
	}
	return as.decode.Submit(b)
}

// finishDecode submits the tail batch, joins the decode pool and returns the
// first in-order verify/write error (nil if none).
func (as *assembly) finishDecode() error {
	if as.cur != nil {
		as.submit()
	}
	return as.decode.Close()
}

// verify is the decode pool's work: it hashes b's chunks in one
// chunk.OfEach call and finds the first that does not match its
// fingerprint.
func (as *assembly) verify(b *decodeBatch) {
	t0 := time.Now()
	if as.cfg.Verify {
		b.views = b.views[:0]
		for k := range b.jobs {
			b.views = append(b.views, b.jobs[k].data)
		}
		b.fps = slices.Grow(b.fps[:0], len(b.views))[:len(b.views)]
		chunk.OfEach(b.views, b.fps)
		for k := range b.jobs {
			j := &b.jobs[k]
			if got := b.fps[k]; got != j.fp {
				b.err = fmt.Errorf("restore: chunk %d fingerprint mismatch (%s != %s)",
					j.idx, got.Short(), j.fp.Short())
				b.errIdx = k
				break // chunks past the first bad one are never emitted
			}
		}
	}
	stageDecode.Observe(t0)
}

// emit is the decode pool's consumer: it charges each one-lane extent read
// just before the first chunk cut from it, hands b's chunks to the sink and
// counts them, up to b's first verify or sink failure, then recycles b.
func (as *assembly) emit(b *decodeBatch) (err error) {
	var bytes, chunks int64
	for k := range b.jobs {
		if b.err != nil && k == b.errIdx {
			err = b.err
			break
		}
		j := &b.jobs[k]
		if j.charge != nil {
			as.store.AccountDataRange(j.charge, as.clk)
		}
		if as.sink != nil {
			t1 := time.Now()
			err = as.sink(j.idx, j.data)
			stageCopy.Observe(t1)
			if err != nil {
				break
			}
		}
		bytes += int64(j.size)
		chunks++
	}
	// Added once a batch: the assembler writes the same Stats for every ref.
	as.stats.Bytes += bytes
	as.stats.Chunks += chunks
	as.recycle(b)
	return err
}

// recycle returns the section b retired to the set — every chunk viewing it
// is in b or an earlier batch, so nothing reads it any more — and b, viewing
// nothing, to decodeBatches. It is also the pool's discard, for the batches
// after a failure.
func (as *assembly) recycle(b *decodeBatch) {
	as.sections.giveBack(b.retired)
	clear(b.jobs)
	clear(b.views)
	b.jobs, b.views, b.retired = b.jobs[:0], b.views[:0], nil
	decodeBatches.Put(b)
}
