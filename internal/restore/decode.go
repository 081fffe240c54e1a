package restore

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
)

// decodeBatchSize is the number of chunk refs grouped into one decode unit.
// Batching amortizes channel operations over many chunks so the per-chunk
// cost of the parallel path stays allocation-free (batches recycle through
// a pool) and far below one synchronization per chunk.
const decodeBatchSize = 64

// decodeJob is one chunk awaiting verify/emit. data is a zero-copy view
// into the fetched container section — never a private copy.
type decodeJob struct {
	idx  int // ref index, for error attribution
	fp   chunk.Fingerprint
	size uint32
	data []byte
}

// decodeBatch is the unit flowing through the pool: the assembler fills it
// in stream order, one worker verifies it, the resequencer emits it.
type decodeBatch struct {
	jobs    []decodeJob
	retired []byte        // a section no batch after this one views (see retire)
	done    chan struct{} // closed by the verifying worker
	err     error         // first verify failure in the batch...
	errIdx  int           // ...at jobs[errIdx]
}

// decodeBatches recycles batches across restores. It is the package's, not
// the pipe's: the runtime keeps a used sync.Pool reachable until the
// collection after next, and one inside the pipe would keep the pipe — and
// through it the restore's whole section set — alive that long. Batches go
// back empty (see resequence), so the pool itself views no section.
var decodeBatches = sync.Pool{New: func() any {
	return &decodeBatch{jobs: make([]decodeJob, 0, decodeBatchSize)}
}}

// decodePipe is the wall-clock decode/verify pool of the restore pipeline:
// the assembler pushes chunk views in stream order, `workers` goroutines
// SHA-256-verify whole batches concurrently, and a single resequencer
// goroutine consumes batches strictly in submission order, writing chunks
// to the output and stopping at the first in-order error — so the bytes on
// the wire, the error the caller sees, and the Bytes/Chunks tallies are all
// bit-identical to the inline serial path. Only wall-clock time changes.
type decodePipe struct {
	verify   bool
	w        io.Writer
	sections *sectionSet       // where retired sections go once emitted
	jobs     chan *decodeBatch // unordered, to the verify workers
	ordered  chan *decodeBatch // submission order, to the resequencer
	cur      *decodeBatch
	failed   atomic.Bool // resequencer hit an error; assembler should stop

	writerDone    chan struct{}
	bytes, chunks int64 // resequencer tallies (in-order, pre-error)
	werr          error // first in-order verify/write error
}

func newDecodePipe(workers int, verify bool, w io.Writer, sections *sectionSet) *decodePipe {
	depth := workers * 4 // batches that may queue between the assembler and the resequencer
	p := &decodePipe{
		verify:     verify,
		w:          w,
		sections:   sections,
		jobs:       make(chan *decodeBatch, depth),
		ordered:    make(chan *decodeBatch, depth),
		writerDone: make(chan struct{}),
	}
	for k := 0; k < workers; k++ {
		go p.worker()
	}
	go p.resequence()
	return p
}

// push appends one chunk to the current batch, flushing full batches into
// the pool. It reports false once the resequencer has failed — the
// assembler stops producing and close() surfaces the error.
func (p *decodePipe) push(idx int, ref *chunk.Ref, piece []byte) bool {
	if p.failed.Load() {
		return false
	}
	if p.cur == nil {
		p.cur = decodeBatches.Get().(*decodeBatch)
	}
	p.cur.jobs = append(p.cur.jobs, decodeJob{idx: idx, fp: ref.FP, size: ref.Size, data: piece})
	if len(p.cur.jobs) >= decodeBatchSize {
		p.submit()
	}
	return true
}

// retire takes a section the assembler has cut its last chunk from. Every
// chunk that views it was pushed before this call, so it sits in the current
// batch or an earlier one. The section rides on the current batch, which
// goes out now — a loan may be waiting for it (sectionSet.owe) — and the
// resequencer, which finishes batches in submission order and each only after
// its verification, returns it to the set once that batch's last chunk is
// written: from then on nothing reads it.
func (p *decodePipe) retire(section []byte) {
	if p.cur == nil {
		p.cur = decodeBatches.Get().(*decodeBatch)
	}
	p.cur.retired = section
	p.submit()
}

// submit hands the current batch to the pool: ordered first (the
// resequencer must see submission order), then jobs. Both channels are
// bounded, so a slow writer or slow workers backpressure the assembler.
func (p *decodePipe) submit() {
	b := p.cur
	p.cur = nil
	b.done = make(chan struct{})
	b.err, b.errIdx = nil, 0
	telDecodeQueueDepth.Observe(float64(len(p.jobs)))
	p.ordered <- b
	p.jobs <- b
}

// close flushes the tail batch, joins the pool, and returns the in-order
// Bytes/Chunks written plus the first in-order error (nil if none).
func (p *decodePipe) close() (bytes, chunks int64, err error) {
	if p.cur != nil && len(p.cur.jobs) > 0 {
		p.submit()
	}
	close(p.jobs)
	close(p.ordered)
	<-p.writerDone
	return p.bytes, p.chunks, p.werr
}

// worker verifies batches; order does not matter here, the resequencer
// re-imposes it.
func (p *decodePipe) worker() {
	for b := range p.jobs {
		t0 := time.Now()
		if p.verify {
			for k := range b.jobs {
				j := &b.jobs[k]
				if got := chunk.Of(j.data); got != j.fp {
					b.err = fmt.Errorf("restore: chunk %d fingerprint mismatch (%s != %s)",
						j.idx, got.Short(), j.fp.Short())
					b.errIdx = k
					break // chunks past the first bad one are never emitted
				}
			}
		}
		stageDecode.Observe(t0)
		close(b.done)
	}
}

// resequence consumes batches in submission order, waiting each one's
// verification, and emits chunks until the first error; everything after is
// drained (and recycled) without writing.
func (p *decodePipe) resequence() {
	defer close(p.writerDone)
	for b := range p.ordered {
		<-b.done
		if p.werr == nil {
			for k := range b.jobs {
				if b.err != nil && k == b.errIdx {
					p.fail(b.err)
					break
				}
				j := &b.jobs[k]
				if p.w != nil {
					t1 := time.Now()
					_, err := p.w.Write(j.data)
					stageCopy.Observe(t1)
					if err != nil {
						p.fail(err)
						break
					}
				}
				p.bytes += int64(j.size)
				p.chunks++
			}
		}
		p.sections.giveBack(b.retired)
		// A recycled batch must not keep viewing sections of a restore that
		// is over.
		clear(b.jobs)
		b.jobs, b.retired = b.jobs[:0], nil
		decodeBatches.Put(b)
	}
}

func (p *decodePipe) fail(err error) {
	p.werr = err
	p.failed.Store(true)
}
