// Package fanout is the order-preserving worker pool both wall-clock
// pipelines run on: ingest fingerprints its stream buffers on it, a restore
// verifies its chunk batches on it. A producer submits items, a fixed set of
// workers runs the expensive step on them in any order, and one consumer
// takes them back in the order they were submitted — the P-Dedupe shape:
// hashing is embarrassingly parallel, the decisions around it stay in stream
// order.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Pool runs work over the items a producer submits and hands each to
// consume, in submission order, until consume fails; from then on each
// remaining item goes to discard instead, in the same order, so that a
// caller recycling its items gets every one of them back exactly once.
//
// With more than one worker, work runs on that many goroutines and consume
// and discard on one more; with one, all three run in turn inside Submit,
// on the producer's goroutine, and the pool starts no goroutine. Submitting
// allocates nothing.
//
// Submit and Close belong to the producer: one goroutine, and Close last.
type Pool[T any] struct {
	work    func(T)
	consume func(T) error
	discard func(T)

	err    error       // the first consume error; the consumer's until Close returns
	failed atomic.Bool // err is set, for Submit

	// With more than one worker.
	slots   []slot[T]     // items in flight, by submission number modulo len
	next    int           // the next submission number
	jobs    chan *slot[T] // to the workers
	ordered chan *slot[T] // to the consumer, in submission order
	wg      sync.WaitGroup
}

type slot[T any] struct {
	item T
	done chan struct{} // a worker's word that work(item) returned; one buffered
}

// New starts a pool of workers goroutines (below two, none) that lets depth
// items queue ahead of the workers and depth more ahead of the consumer, so
// that a slow worker or a slow consumer holds the producer back.
func New[T any](workers, depth int, work func(T), consume func(T) error, discard func(T)) *Pool[T] {
	p := &Pool[T]{work: work, consume: consume, discard: discard}
	if workers < 2 {
		return p
	}
	// An item holds its slot from Submit until consume or discard returns:
	// the one the consumer has, depth queued behind it, and the one a
	// Submit blocked on a full queue has already written.
	p.slots = make([]slot[T], depth+2)
	for i := range p.slots {
		p.slots[i].done = make(chan struct{}, 1)
	}
	p.jobs = make(chan *slot[T], depth)
	p.ordered = make(chan *slot[T], depth)
	p.wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for s := range p.jobs {
				p.work(s.item)
				s.done <- struct{}{}
			}
		}()
	}
	go func() {
		defer p.wg.Done()
		for s := range p.ordered {
			<-s.done
			p.finish(s.item)
		}
	}()
	return p
}

// Submit hands item to the pool, which now owns it. It reports false once a
// consume has failed: the producer should stop, and the item, like every
// other after the failure, reaches discard in its turn.
func (p *Pool[T]) Submit(item T) bool {
	if p.jobs == nil {
		p.work(item)
		p.finish(item)
		return p.err == nil
	}
	s := &p.slots[p.next%len(p.slots)]
	p.next++
	s.item = item
	p.ordered <- s
	p.jobs <- s
	return !p.failed.Load()
}

// Queued is the number of items waiting for a worker.
func (p *Pool[T]) Queued() int { return len(p.jobs) }

// Close waits until every submitted item has been consumed or discarded and
// every goroutine of the pool has exited, and returns the first consume
// error.
func (p *Pool[T]) Close() error {
	if p.jobs != nil {
		close(p.jobs)
		close(p.ordered)
		p.wg.Wait()
	}
	return p.err
}

// finish takes one worked item in submission order.
func (p *Pool[T]) finish(item T) {
	if p.err != nil {
		p.discard(item)
	} else if p.err = p.consume(item); p.err != nil {
		p.failed.Store(true)
	}
}
