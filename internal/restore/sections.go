package restore

import "sync"

// sectionSet is the memory one restore reads container sections into when
// the backend copies them out of files: at most max buffers of one
// container's data capacity, each drawn the first time it is needed. The
// fetcher lends them to the backend (blockstore.WithLender); a section that
// comes back in one of them is this restore's alone, and the buffer returns to
// the set when the cache evicts the section and every chunk viewing it has
// been emitted.
//
// The set is a fixed budget: it never holds more than max. When all max are
// out — the resequencer is further behind the fetcher than the budget allows
// for — lend returns nil and that one section is read whole into a buffer of
// its own, collected like any other, exactly as every section is on a backend
// that lends nothing.
//
// The buffers outlive the set: it draws them from sectionBufs and release
// returns them all there when the restore is over.
type sectionSet struct {
	size int64 // bytes per buffer
	max  int

	mu     sync.Mutex
	mine   map[*byte][]byte // every buffer drawn, by its first byte
	free   [][]byte
	lent   [][]byte // out with the backend during the fetch in progress
	reused int64    // loans of a buffer that had held a section before
}

// sectionBufs keeps section buffers from one restore to the next, and lets the
// collector have them when nobody restores: making and clearing ≈ 50 MB of them
// per restore cost more than the reads they are for. No cap: the sets are
// capped, and a cap below what a restore uses loses the gain (EXPERIMENTS.md, PR 20).
var sectionBufs sync.Pool // of *[]byte

func newSectionSet(size int64, max int) *sectionSet {
	return &sectionSet{size: size, max: max, mine: make(map[*byte][]byte, max)}
}

// lend hands the restore's fetcher a buffer for one section of n bytes.
func (s *sectionSet) lend(n int64) []byte {
	if n <= 0 || n > s.size {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	if k := len(s.free); k > 0 {
		buf, s.free = s.free[k-1], s.free[:k-1]
		s.reused++
	} else if len(s.mine) < s.max {
		if kept, _ := sectionBufs.Get().(*[]byte); kept != nil && int64(cap(*kept)) >= s.size {
			buf = (*kept)[:s.size]
			s.reused++
		} else {
			buf = make([]byte, s.size)
		}
		s.mine[&buf[0]] = buf
	} else {
		return nil
	}
	s.lent = append(s.lent, buf)
	return buf
}

// release ends the restore: nothing views a section any more, and every
// buffer the set drew goes to sectionBufs.
func (s *sectionSet) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, buf := range s.mine {
		sectionBufs.Put(&buf)
	}
}

// settle ends one fetch: a buffer lent during it that did not come back as
// one of the fetched sections (the read failed, or was retried into another)
// is free again.
func (s *sectionSet) settle(datas [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, buf := range s.lent {
		held := false
		for _, d := range datas {
			if len(d) > 0 && &d[0] == &buf[0] {
				held = true
				break
			}
		}
		if !held {
			s.free = append(s.free, buf)
		}
	}
	s.lent = s.lent[:0]
}

// owns reports whether data is a section held in one of the set's buffers.
func (s *sectionSet) owns(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mine[&data[0]]
	return ok
}

// giveBack frees the buffer holding data, which nothing may view any more.
// A section the set does not own — a shared view — is left to the collector.
func (s *sectionSet) giveBack(data []byte) {
	if len(data) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf, ok := s.mine[&data[0]]; ok {
		s.free = append(s.free, buf)
	}
}
