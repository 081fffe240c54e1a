package restore

import (
	"slices"
	"sync"
	"time"
)

// sectionSet is the memory one restore reads container sections into when
// the backend copies them out of files: at most max slabs of one container's
// data capacity, each drawn the first time it is needed. The fetcher lends the
// backend (blockstore.WithLender) a piece of a slab the size of the packed
// section it asks for — the smallest gap between the pieces out that fits —
// and a section that comes back in one is this restore's alone. The piece
// returns to its slab once the last ref the section serves has been emitted,
// and with it every chunk viewing it. When no slab has room, even after the
// sections due back (owe), and all max are drawn, lend returns nil and that
// section is read whole into a buffer of its own, as on a backend that lends
// nothing. The slabs outlive the set: it draws them from sectionBufs, and
// release returns them there.
type sectionSet struct {
	size int64 // bytes per slab
	max  int

	mu       sync.Mutex
	slabs    []*slab
	out      map[*byte]piece // pieces lent or holding a section, by first byte
	lent     []*byte         // lent during the fetch in progress
	reused   int64           // loans into a slab that had held a section before
	held     heldBytes       // the slabs with a piece out
	peak     heldBytes       // held at its most bytes, and of those moments the fullest
	returned int             // sections given back, in the order they were retired
	due      int             // how many a loan that finds no room waits for (owe)
	back     *sync.Cond      // on mu: one came back
}

// readAheadPatience is how long a loan waits for sections due back: under 1 ms
// into memory, 30 ms over loopback HTTP, unless the writer stands still.
const readAheadPatience = 100 * time.Millisecond

type slab struct {
	buf    []byte
	pieces []piece // out, by offset
}

type piece struct {
	s      *slab
	off, n int64
}

// heldBytes is the bytes of some slabs, and the sections in them and theirs.
type heldBytes struct {
	bytes, want int64
	sections    int
}

// sectionBufs keeps slabs from one restore to the next, and lets the
// collector have them when nobody restores: making and clearing ≈ 50 MB of them
// per restore cost more than the reads they are for. No cap: the sets are
// capped, and a cap below what a restore uses loses the gain (EXPERIMENTS.md, PR 20).
var sectionBufs sync.Pool // of *[]byte

// sectionSetReleased, when set (by a test, while no restore runs), sees every
// set as its restore ends.
var sectionSetReleased func(*sectionSet)

func newSectionSet(size int64, max int) *sectionSet {
	s := &sectionSet{size: size, max: max, out: make(map[*byte]piece)}
	s.back = sync.NewCond(&s.mu)
	return s
}

// lend hands the restore's fetcher a buffer for a section of n bytes.
func (s *sectionSet) lend(n int64) []byte {
	if n <= 0 || n > s.size {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, k := s.fit(n)
	if p.s == nil && s.returned < s.due {
		p, k = s.awaitRoom(n)
	}
	if p.s == nil {
		if len(s.slabs) >= s.max {
			return nil
		}
		p, k = piece{s: s.draw(), n: n}, 0
	} else {
		s.reused++
	}
	if len(p.s.pieces) == 0 {
		s.held.bytes += s.size
	}
	s.held.want += n
	s.held.sections++
	if s.held.bytes > s.peak.bytes || s.held.bytes == s.peak.bytes && s.held.want > s.peak.want {
		s.peak = s.held
	}
	p.s.pieces = slices.Insert(p.s.pieces, k, p)
	buf := p.s.buf[p.off : p.off+n : p.off+n]
	s.out[&buf[0]] = p
	s.lent = append(s.lent, &buf[0])
	return buf
}

// awaitRoom is fit once it fits, the sections due are back or readAheadPatience
// has passed. Caller holds s.mu.
func (s *sectionSet) awaitRoom(n int64) (p piece, k int) {
	end := time.Now().Add(readAheadPatience)
	t := time.AfterFunc(readAheadPatience, func() { s.mu.Lock(); s.back.Broadcast(); s.mu.Unlock() })
	defer t.Stop()
	for p.s == nil && s.returned < s.due && time.Now().Before(end) {
		s.back.Wait()
		p, k = s.fit(n)
	}
	return p, k
}

// fit returns the smallest gap of n bytes or more between the pieces out, as
// a piece and its index among its slab's; no slab when there is none.
func (s *sectionSet) fit(n int64) (best piece, at int) {
	gap := s.size + 1
	for _, sl := range s.slabs {
		end := int64(0)
		for k := 0; k <= len(sl.pieces); k++ {
			next, after := s.size, s.size
			if k < len(sl.pieces) {
				next, after = sl.pieces[k].off, sl.pieces[k].off+sl.pieces[k].n
			}
			if g := next - end; g >= n && g < gap {
				best, at, gap = piece{sl, end, n}, k, g
			}
			end = after
		}
	}
	return best, at
}

// draw adds a slab to the set: a kept one if there is one.
func (s *sectionSet) draw() *slab {
	sl := &slab{}
	if kept, _ := sectionBufs.Get().(*[]byte); kept != nil && int64(cap(*kept)) >= s.size {
		sl.buf = (*kept)[:s.size]
		s.reused++
	} else {
		sl.buf = make([]byte, s.size)
	}
	s.slabs = append(s.slabs, sl)
	return sl
}

// release ends the restore: nothing views a section any more, and every
// slab the set drew goes to sectionBufs.
func (s *sectionSet) release() {
	s.mu.Lock()
	for _, sl := range s.slabs {
		sectionBufs.Put(&sl.buf)
	}
	s.mu.Unlock()
	if sectionSetReleased != nil {
		sectionSetReleased(s)
	}
}

// settle ends one fetch: a piece lent during it that did not come back as
// one of the fetched sections (the read failed, or was retried into another)
// is free again.
func (s *sectionSet) settle(datas [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, first := range s.lent {
		if !slices.ContainsFunc(datas, func(d []byte) bool { return len(d) > 0 && &d[0] == first }) {
			s.free(first)
		}
	}
	s.lent = s.lent[:0]
}

// owns reports whether data is a section held in one of the set's slabs.
func (s *sectionSet) owns(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.out[&data[0]]
	return ok
}

// giveBack frees the piece holding data, which nothing may view any more.
// A section the set does not own — a shared view — is left to the collector.
func (s *sectionSet) giveBack(data []byte) {
	if len(data) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free(&data[0])
	s.returned++
	s.back.Broadcast()
}

// owe sets how many retired sections a loan that finds no room waits for.
func (s *sectionSet) owe(n int) {
	s.mu.Lock()
	s.due = n
	s.mu.Unlock()
}

// free returns the piece at first to its slab. Caller holds s.mu.
func (s *sectionSet) free(first *byte) {
	p, ok := s.out[first]
	if !ok {
		return
	}
	delete(s.out, first)
	p.s.pieces = slices.DeleteFunc(p.s.pieces, func(q piece) bool { return q.off == p.off })
	if len(p.s.pieces) == 0 {
		s.held.bytes -= s.size
	}
	s.held.want -= p.n
	s.held.sections--
}
