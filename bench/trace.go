package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans nest run → cycle → op →
// backend call; all spans of one cycle share its cycle number.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the run span
	Cycle  int    `json:"cycle"`  // 0 outside any cycle
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// side says which client an op belongs to, so a backend call can find its
// parent without the context crossing the HTTP boundary: seals, syncs and
// drops descend from the writing op, reads from the reading op. The serial
// workloads run one op at a time and register it on both sides.
type side int

const (
	writeSide side = iota
	readSide
	numSides
)

// recorder keeps a traced run's spans in memory until the run ends. A nil
// *recorder records nothing, which is how the untraced run uses the same
// code path.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span        // closed spans, in order of closing
	open   map[int]*span // run, cycle and op spans not yet closed
	nextID int
	run    int
	cycle  int // open cycle span's id, or 0
	cycleN int
	active [numSides]int // open op span per side, or 0
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), open: map[int]*span{}}
	r.run = r.beginLocked("run", 0)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// beginLocked opens a span under parent; the caller holds r.mu (or is the
// constructor).
func (r *recorder) beginLocked(name string, parent int) int {
	r.nextID++
	r.open[r.nextID] = &span{ID: r.nextID, Parent: parent, Cycle: r.cycleN, Name: name, Start: r.now()}
	return r.nextID
}

func (r *recorder) endLocked(id int) {
	s := r.open[id]
	s.End = r.now()
	delete(r.open, id)
	r.spans = append(r.spans, *s)
}

func (r *recorder) beginCycle() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cycleN++
	r.cycle = r.beginLocked("cycle", r.run)
}

func (r *recorder) endCycle() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(r.cycle)
	r.cycle = 0
}

// beginOp opens an op span under the current cycle and makes it the parent
// of backend calls on the given sides.
func (r *recorder) beginOp(name string, sides []side) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.beginLocked(name, r.cycle)
	for _, s := range sides {
		r.active[s] = id
	}
	return id
}

func (r *recorder) endOp(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.active {
		if r.active[s] == id {
			r.active[s] = 0
		}
	}
	r.endLocked(id)
}

// call records one finished backend call. Its parent is the op that was
// active on its side when the call began, unless that op has ended since
// (an asynchronous seal outliving its backup): then the cycle adopts it, so
// children always lie inside their parents.
func (r *recorder) call(name string, parent int, start time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, stillOpen := r.open[parent]; !stillOpen {
		parent = r.cycle
	}
	cycle := r.cycleN
	if parent == 0 {
		parent, cycle = r.run, 0
	}
	r.nextID++
	r.spans = append(r.spans, span{
		ID: r.nextID, Parent: parent, Cycle: cycle, Name: name,
		Start: int64(start.Sub(r.t0)), End: r.now(),
	})
}

// parentFor returns the op a backend call starting now on side s belongs to.
func (r *recorder) parentFor(s side) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id := r.active[s]; id != 0 {
		return id
	}
	return r.cycle
}

// finish closes the run span and returns every span, ordered by start.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(r.run)
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	return r.spans
}

// selfTime is a span's duration minus the part of it that its children
// cover (their union, so overlapping asynchronous seals count once).
func selfTime(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var covered, hi int64 = 0, parent.Start
	for _, c := range children {
		lo, end := max(c.Start, hi), min(c.End, parent.End)
		if end > lo {
			covered += end - lo
			hi = end
		}
	}
	return parent.dur() - time.Duration(covered)
}

// selfByName sums the self time of every span, by span name.
func selfByName(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += selfTime(s, kids[s.ID])
	}
	return out
}

// checkSpans verifies the tree is well-formed: unique ids, every parent
// exists, children lie inside their parents, and no self time is negative.
func checkSpans(spans []span) error {
	byID := map[int]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name != "run" {
				return fmt.Errorf("span %d (%s) has no parent", s.ID, s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if p.Cycle != 0 && s.Cycle != p.Cycle {
			return fmt.Errorf("span %d (%s) in cycle %d, parent in cycle %d", s.ID, s.Name, s.Cycle, p.Cycle)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range spans {
		if self := selfTime(s, kids[s.ID]); self < 0 {
			return fmt.Errorf("span %d (%s): self time %v < 0", s.ID, s.Name, self)
		}
	}
	return nil
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
