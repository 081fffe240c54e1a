package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/fanout"
	"repro/internal/segment"
)

// hashBatchChunks is how many target-sized chunks of new bytes ride in one
// window: SHA-256 of an 8 KiB chunk is far cheaper than a channel round trip,
// so per-chunk handoff would make the pool slower than hashing inline.
const hashBatchChunks = 64

// hashJob is one window of the stream on its way through the pipeline: the
// producer reads it, a worker cuts and fingerprints it, the consumer joins it
// to the window before and segments its chunks.
//
// A window opens with a copy of the last 2·Max bytes of the one before (head
// of them) and goes on with new bytes. Its chain of chunks runs from cuts[0]
// to the last of cuts: chunk k is data[cuts[k]:cuts[k+1]], keys[k] is the
// chunker.Key before it, fps[k] its fingerprint, and want[k], when not zero,
// the fingerprint of the hint that placed it; src[k] is the stored copy of
// want[k], when one is lent and holds chunk k's bytes.
type hashJob struct {
	data []byte // the window buffer, always used at full length
	n    int    // valid bytes
	head int    // of them, the bytes carried in from the window before
	off  int64  // the stream offset of data[0]
	last bool   // the stream ends in this window

	cuts  []int
	keys  []uint64
	fps   []chunk.Fingerprint
	want  []chunk.Fingerprint
	src   []container.Lent
	views [][]byte            // scratch for chunk.OfEach: the chunks to hash,
	into  []int               // which chunk each is,
	sums  []chunk.Fingerprint // and their fingerprints
}

// hashJobs recycles windows across every pipeline of the process, not per
// call: a pool built per backup would allocate and zero fresh buffers on the
// producer, which is ingest's critical path. A window is only ever put back
// once it has been consumed and, with keepData, once a processed segment has
// consumed every chunk aliasing its bytes, so a window drawn by another
// stream is never still in use.
var hashJobs = sync.Pool{New: func() any { return &hashJob{} }}

// hashJobsLive counts windows drawn and not yet put back; the abort-path
// tests read it.
var hashJobsLive atomic.Int64

// getHashJob draws an empty window whose buffer holds size bytes.
func getHashJob(size int) *hashJob {
	hashJobsLive.Add(1)
	j := hashJobs.Get().(*hashJob)
	if len(j.data) != size {
		j.data = make([]byte, size)
	}
	j.n, j.head, j.off, j.last = 0, 0, 0, false
	return j
}

func putHashJob(j *hashJob) {
	hashJobsLive.Add(-1)
	hashJobs.Put(j)
}

// hashWorkers sizes Pipeline's hash pool; tests widen it past GOMAXPROCS.
var hashWorkers = func() int { return runtime.GOMAXPROCS(0) }

// more reports whether the window's chain goes on past the cut at pos: a chunk
// is cut only with Max bytes in view, unless the stream ends in the window.
func (j *hashJob) more(pos, maxChunk int) bool {
	if j.last {
		return pos < j.n
	}
	return j.n-pos >= maxChunk
}

// work is a hash worker's step: cut the window, fingerprint its chunks, and
// re-cut the chunks whose hint the fingerprints disprove.
//
// A chunk a hint placed takes the hint's fingerprint without a hash when the
// copy stored under it is lent (Hints.copies), holds the same bytes, and is
// verified: a window before has seen bytes equal to it hash to that
// fingerprint. Every other chunk is hashed, in one batch; a lent copy with the
// same bytes becomes verified when its chunk's hash is the hint's.
func (j *hashJob) work(c *chunker.Cutter, h *Hints, maxChunk int) {
	t0 := time.Now()
	j.chain(c, h, maxChunk)
	n := len(j.cuts) - 1
	j.fps = slices.Grow(j.fps[:0], n)[:n]
	j.src = slices.Grow(j.src[:0], n)[:n] // all zero: each window clears what it set
	j.lend(h.copies)
	j.views, j.into = j.views[:0], j.into[:0]
	confirmed := int64(0)
	for k := range n {
		if j.src[k].Verified() {
			j.fps[k] = j.want[k]
			confirmed++
		} else {
			j.views, j.into = append(j.views, j.data[j.cuts[k]:j.cuts[k+1]]), append(j.into, k)
		}
	}
	j.sums = slices.Grow(j.sums[:0], len(j.views))[:len(j.views)]
	chunk.OfEach(j.views, j.sums)
	for x, k := range j.into {
		j.fps[k] = j.sums[x]
		if j.src[k].Data != nil && j.fps[k] == j.want[k] && j.src[k].Verify() {
			telSourcesVerified.Inc()
		}
	}
	telHintsCompared.Add(confirmed)
	clear(j.src) // nor may a pooled window keep a Store's sections alive
	for k := 0; k < len(j.fps); k++ {
		if !j.want[k].IsZero() && j.want[k] != j.fps[k] {
			telHintsRefuted.Inc()
			j.resync(c, k, j.cuts[k], maxChunk, hint{})
		}
	}
	stageHash.Observe(t0) // one observation per window, cutting included
}

// lend sets src[k] for each chunk a hint placed whose stored copy copies
// lends and whose bytes are the copy's. The lent views are read inside
// blockstore.Guard; a fault in one leaves every chunk to be hashed.
func (j *hashJob) lend(copies *storedCopies) {
	if !copies.lending() {
		return
	}
	err := blockstore.Guard(func() error {
		for k, fp := range j.want {
			if fp.IsZero() {
				continue
			}
			if src, ok := copies.of(fp); ok && bytes.Equal(src.Data, j.data[j.cuts[k]:j.cuts[k+1]]) {
				j.src[k] = src
			}
		}
		return nil
	})
	if err != nil {
		clear(j.src)
	}
}

// chain cuts the window from its first byte, by the gear search or, where the
// hint table names the chunk that followed the key before the cut and the
// chunk's end could be a cut, by jumping to that end. The window before ended
// on the first cut of the stream past head-Max, so the chunks that start no
// later than that are dropped: if this chain has met the stream's by then
// (started Max bytes and more before, it nearly always has), it starts on
// that cut. The consumer checks.
func (j *hashJob) chain(c *chunker.Cutter, h *Hints, maxChunk int) {
	j.cuts, j.keys, j.want = append(j.cuts[:0], 0), j.keys[:0], j.want[:0]
	key := chunker.Key(j.data, 0)
	for pos := 0; j.more(pos, maxChunk); {
		size, want, next := 0, chunk.Fingerprint{}, uint64(0)
		// A key is the stream's where the window holds the KeyLen bytes
		// before it.
		if j.off == 0 || pos >= chunker.KeyLen {
			if s, fp := h.lookup(key); s > 0 && s <= j.n-pos {
				if k := chunker.Key(j.data, pos+s); c.Ends(k, s) {
					size, want, next = s, fp, k
				}
			}
		}
		if size == 0 {
			size = c.Cut(j.data[pos:j.n])
			next = chunker.Key(j.data, pos+size)
		}
		if pos <= j.head-maxChunk {
			j.cuts, j.keys, j.want = append(j.cuts[:0], pos+size), j.keys[:0], j.want[:0]
		} else {
			j.cuts, j.keys, j.want = append(j.cuts, pos+size), append(j.keys, key), append(j.want, want)
		}
		pos, key = pos+size, next
	}
}

// resync cuts from pos, a cut of the stream no later than cuts[i], until it
// lands on a cut of the chain or the chain's end, and puts the chunks it cut
// in place of the chain's from chunk i to there. prev is the chunk of the
// stream that ends at pos, or has size 0 when unknown.
//
// A chunk that starts like a chunk of the stream it knows — prev, one it has
// re-cut, one of the chain the worker cut or verified — with the same Key and
// the same bytes for that chunk's length is that chunk again, with no search
// and no hash: both were cut with Max bytes in view (neither is the stream's
// last), and a cut depends on the chunk's own bytes alone. That is every
// chunk of a run of zeros or of a short repeated pattern, where a chain out of
// phase with the stream's never meets it. The rest are cut by the gear search
// and fingerprinted in one batch.
func (j *hashJob) resync(c *chunker.Cutter, i, pos, maxChunk int, prev hint) {
	var cuts []int
	var keys []uint64
	var fps []chunk.Fingerprint
	var rep []int      // per chunk: the re-cut chunk it repeats, or -1
	var views [][]byte // the chunks to fingerprint,
	var into []int     // and where their fingerprints go
	m := i             // the first cut of the chain not before the last re-cut end
	for a := pos; ; {
		// same reports whether the s bytes at a are those at from.
		same := func(from, s int) bool {
			return s > 0 && from >= 0 && a+s <= j.n && bytes.Equal(j.data[a:a+s], j.data[from:from+s])
		}
		key := chunker.Key(j.data, a)
		b, fp, r := 0, chunk.Fingerprint{}, -1
		if key == prev.key && same(pos-prev.size, prev.size) {
			b, fp = a+prev.size, prev.fp
		}
		for k := 0; b == 0 && k < len(cuts); k++ {
			end := a
			if k+1 < len(cuts) {
				end = cuts[k+1]
			}
			if keys[k] == key && same(cuts[k], end-cuts[k]) {
				b, r = a+end-cuts[k], k
			}
		}
		for x := 0; b == 0 && x < len(j.fps); x++ {
			// Not a chunk whose hint is yet to be checked, nor the stream's last.
			known := (j.want[x].IsZero() || j.want[x] == j.fps[x]) && !(j.last && x == len(j.fps)-1)
			if s := j.cuts[x+1] - j.cuts[x]; j.keys[x] == key && known && same(j.cuts[x], s) {
				b, fp = a+s, j.fps[x]
			}
		}
		if b == 0 {
			b = a + c.Cut(j.data[a:j.n])
			if i < len(j.fps) && a == j.cuts[i] && b == j.cuts[i+1] {
				fp = j.fps[i] // chunk i's bytes: its hint alone was wrong
			} else {
				views, into = append(views, j.data[a:b]), append(into, len(fps))
			}
		}
		for m < len(j.cuts) && j.cuts[m] < b {
			m++
		}
		cuts, keys, fps, rep = append(cuts, a), append(keys, key), append(fps, fp), append(rep, r)
		if m < len(j.cuts) && j.cuts[m] == b {
			break
		}
		if !j.more(b, maxChunk) {
			m, cuts = len(j.cuts), append(cuts, b)
			break
		}
		a = b
	}
	hashed := make([]chunk.Fingerprint, len(views))
	chunk.OfEach(views, hashed)
	for n, k := range into {
		fps[k] = hashed[n]
	}
	for k, r := range rep {
		if r >= 0 {
			fps[k] = fps[r]
		}
	}
	chunks := min(m, len(j.fps))
	j.cuts = slices.Replace(j.cuts, i, m, cuts...)
	j.keys = slices.Replace(j.keys, i, chunks, keys...)
	j.fps = slices.Replace(j.fps, i, chunks, fps...)
	j.want = slices.Replace(j.want, i, chunks, make([]chunk.Fingerprint, len(fps))...)
}

// ingest is the state of one Pipeline call. next is the producer's step,
// hashJob.work the worker's, consume the consumer's; Pipeline runs the three
// in turn on one goroutine or on several.
type ingest struct {
	ctx      context.Context
	r        io.Reader
	cutter   *chunker.Cutter
	maxChunk int
	hints    *Hints
	keepData bool
	sg       *segment.Segmenter
	clock    *disk.Clock
	cost     CostModel
	process  func(*segment.Segment) error

	// Producer side.
	cur     *hashJob // the window the next read fills, holding the carried overlap
	readErr error    // why the producer stopped short of the end of the stream

	// Consumer side.
	cut     int64 // the stream offset of the last cut taken
	learned hint  // the last chunk taken: it enters the hint table once another follows

	logicalBytes, chunks, segments int64
	// With keepData the chunks handed to process alias their window's buffer,
	// so consumed windows wait here, the one being consumed last, until a
	// processed segment has taken every chunk added so far.
	retired []*hashJob
}

// next reads the next window: the last 2·Max bytes of the window before, then
// new bytes up to its end, or up to the end of the stream. It returns nil when
// the stream is used up, has failed, or ctx is done.
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
	m, err := chunker.Fill(p.r, j.data[j.n:])
	j.n += m
	if err == nil {
		// The overlap moves now, while this window is still the producer's
		// alone: once dispatched it may be recycled at any time.
		p.cur = getHashJob(len(j.data))
		p.cur.head = copy(p.cur.data, j.data[j.n-2*p.maxChunk:j.n])
		p.cur.n, p.cur.off = p.cur.head, j.off+int64(j.n-p.cur.head)
	} else {
		j.last = true
		if err != io.EOF {
			p.readErr = err
		}
	}
	stageRead.Observe(t0) // one observation per window
	return j
}

// consume joins one window to the chunks taken before it, enters them into
// the hint table, and charges and segments them in stream order, handing each
// completed segment to process.
//
// The window joins where the last one taken ends: on a cut of its chain, or,
// when the worker's chain had not met the stream's by there, after the gear
// search has cut from that end until it lands on one (a window repair).
func (p *ingest) consume(j *hashJob) (err error) {
	p.retired = append(p.retired, j)
	from := int(p.cut - j.off)
	i, joined := slices.BinarySearch(j.cuts, from)
	if !joined {
		telWindowRepairs.Inc()
		j.resync(p.cutter, i, from, p.maxChunk, p.learned)
	}
	p.cut = j.off + int64(j.cuts[len(j.cuts)-1])
	bytes, chunks, hinted := p.logicalBytes, p.chunks, int64(0)
	for k := i; k < len(j.fps); k++ {
		a, b := j.cuts[k], j.cuts[k+1]
		c := chunk.Chunk{FP: j.fps[k], Size: uint32(b - a)}
		if p.keepData {
			c.Data = j.data[a:b:b]
		}
		if !j.want[k].IsZero() {
			hinted++
		}
		p.learn(hint{key: j.keys[k], size: b - a, fp: c.FP})
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
	telHintedChunks.Add(hinted)
	return err
}

// learn enters the chunk taken before h into the hint table, now that h
// follows it: a stream's last chunk may have been cut short by the stream's
// end, and never enters.
func (p *ingest) learn(h hint) {
	if p.learned.size > 0 {
		p.hints.put(p.learned)
	}
	p.learned = h
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
// returns the logical byte count and chunk/segment counts. h is the hint table
// the stream reads and teaches: Base's backups pass their Store's, so a
// backup jumps over the chunks the ones before it cut.
//
// There is one body. The producer only reads: it fills pooled windows of
// hashBatchChunks·Target new bytes, each behind a copy of the last 2·Max
// bytes of the one before. A worker cuts a window and fingerprints its
// chunks, and the one consumer joins the windows and charges and segments
// their chunks in stream order:
//
//	read (sequential) → [workers × cut + SHA-256] → in-order join, segmenter → process
//
// The producer runs on the calling goroutine and submits each window to a
// fanout.Pool of GOMAXPROCS workers behind bounded queues (the P-Dedupe
// idea: dedup decisions must stay in stream order, the rest need not), whose
// one consumer takes windows back in submission order. With GOMAXPROCS at
// one the pool runs the three steps in turn on the calling goroutine: no
// goroutine, no channel.
//
// Every chunk is the one a chunker.Stream over the same bytes cuts, whatever
// the hints say. A worker cuts its window from the window's first byte (the
// SS-CDC idea: a chain of content-defined cuts started anywhere meets the
// stream's within a chunk or two) and drops what lies before the point where
// the window before ended; the consumer checks that the chain passes through
// that point, and cuts from it by search until it meets the chain when not
// (consume). A chain out of phase with a run of equal chunks (zeros, say)
// never meets it inside the run; there the repair takes each chunk as a
// repeat of the one before, with neither a search nor a hash (resync). Inside
// a window the worker jumps over a chunk it has seen before
// (the RapidCDC idea): the hint table maps the chunker.Key before a cut to the
// size and fingerprint of the chunk that followed it, and a worker whose key
// hits takes the hinted end, when Cutter.Ends allows it, in place of the
// search. The chunk's fingerprint decides: equal to the hint's, the bytes are
// those of a chunk that Cut, with Max bytes in view, ended at the same length
// and would again (a cut depends on the chunk's own bytes alone); unequal,
// the chunk is cut again by search (resync). Where the Store lends the copy
// stored under the hint's fingerprint (on the in-memory sim backend), bytes
// equal to a copy already seen to hash to it have that fingerprint with no
// hash; the first chunk compared with a copy is hashed all the same, and only
// then does the copy count as verified (work). So chunks, recipes and
// simulated time are bit-identical whatever the table holds, at any
// GOMAXPROCS — the CPU cost model charges the same bytes; parallelism, hints
// and comparison buy wall-clock time for the simulation itself, not simulated
// time.
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
func Pipeline(ctx context.Context, r io.Reader, cp chunker.Params, sp segment.Params, clock *disk.Clock,
	cost CostModel, keepData bool, h *Hints, process func(*segment.Segment) error,
) (logicalBytes, chunks, segments int64, err error) {
	cutter, err := chunker.NewCutter(cp)
	if err != nil {
		return 0, 0, 0, err
	}
	sg, err := segment.New(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	p := &ingest{
		ctx: ctx, r: r, cutter: cutter, maxChunk: cp.Max, hints: h, keepData: keepData,
		sg: sg, clock: clock, cost: cost, process: process,
	}
	p.cur = getHashJob(2*cp.Max + hashBatchChunks*cp.Target)
	defer p.release()

	// The queues let the producer run two windows per worker ahead of the
	// workers without buffering the whole stream.
	workers := hashWorkers()
	work := func(j *hashJob) { j.work(cutter, h, cp.Max) }
	hashing := fanout.New(workers, 2*workers, work, p.consume, putHashJob)
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

// hintBits sizes a hint table: 1<<16 slots of 48 bytes, 3 MiB a Store. A
// backup jumps over the last one's chunks only while their entries are still
// in the table, so the hints serve streams of up to about 1<<16 chunks (some
// 0.5 GiB at the default 8 KiB target); past that a stream overwrites its own
// early entries before the next backup reads them (EXPERIMENTS.md, PR 41).
const hintBits = 16

// Hints is the table of the chunks a Store's backups have cut, for the next
// backup to jump over: direct-mapped, by the chunker.Key before the cut, each
// slot the size and fingerprint of the chunk that followed the last time its
// key was seen. Backups read and write it at once without a lock: every word
// is loaded and stored atomically, so a slot read mid-write may mix two
// entries. Such a hint, like a stale one, is taken only when the bytes it
// names have the fingerprint it carries — hashed, or equal to a stored copy
// already seen to hash to it — and a fingerprint names its bytes, length
// included.
type Hints struct {
	slots []hintSlot
	// copies, when set, lends the stored copy a hinted fingerprint names, for
	// a worker to compare with the chunk instead of hashing it (NewIndexed).
	copies *storedCopies
}

// storedCopies finds the copy of a fingerprint a Store keeps: the index says
// where it lives, without charging time, and the container store lends it.
type storedCopies struct {
	ix    *cindex.Index
	store *container.Store
}

func (c *storedCopies) lending() bool { return c != nil && c.store.Lends() }

func (c *storedCopies) of(fp chunk.Fingerprint) (container.Lent, bool) {
	loc, ok := c.ix.Peek(fp)
	if !ok {
		return container.Lent{}, false
	}
	return c.store.Lend(fp, loc)
}

type hint struct {
	key  uint64
	size int
	fp   chunk.Fingerprint
}

type hintSlot struct {
	key, size atomic.Uint64
	fp        [chunk.FingerprintSize / 8]atomic.Uint64
}

// NewHints returns an empty hint table.
func NewHints() *Hints { return &Hints{slots: make([]hintSlot, 1<<hintBits)} }

// slot spreads keys by all their bits: a key taken at a cut has its top bits
// clear (the gear masks are top-aligned).
func (t *Hints) slot(key uint64) *hintSlot {
	return &t.slots[key*0x9E3779B97F4A7C15>>(64-hintBits)]
}

// lookup returns the size and fingerprint of the chunk that followed key, or
// a size of 0.
func (t *Hints) lookup(key uint64) (int, chunk.Fingerprint) {
	var fp chunk.Fingerprint
	s := t.slot(key)
	if s.key.Load() != key {
		return 0, fp
	}
	size := int(s.size.Load())
	for w := range s.fp {
		binary.LittleEndian.PutUint64(fp[8*w:], s.fp[w].Load())
	}
	return size, fp
}

// put enters h, unless its slot already holds it.
func (t *Hints) put(h hint) {
	s := t.slot(h.key)
	if s.key.Load() == h.key && s.size.Load() == uint64(h.size) && s.fp[0].Load() == binary.LittleEndian.Uint64(h.fp[:]) {
		return
	}
	s.key.Store(h.key)
	s.size.Store(uint64(h.size))
	for w := range s.fp {
		s.fp[w].Store(binary.LittleEndian.Uint64(h.fp[8*w:]))
	}
}
