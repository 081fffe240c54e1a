package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/disk"
	"repro/internal/segment"
)

// windowParams make windows small (hashBatchChunks·256 new bytes behind 2 KiB
// of overlap), so a stream of a few hundred KiB crosses dozens of joins.
var windowParams = []chunker.Params{
	{Min: 64, Target: 256, Max: 1024},
	{Min: 32, Target: 256, Max: 1024}, // Min below chunker.KeyLen
}

// cuts is where a pass put a stream's chunks, and what it said about them.
type cuts struct {
	ends                     []int
	fps                      []chunk.Fingerprint
	hinted, refuted, repairs int64
}

// streamCuts is the oracle: one plain chunker.Stream pass.
func streamCuts(t testing.TB, data []byte, p chunker.Params) cuts {
	t.Helper()
	s, err := chunker.NewGear(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	var c cuts
	end := 0
	for {
		ch, err := s.Next()
		if err == io.EOF {
			return c
		}
		if err != nil {
			t.Fatal(err)
		}
		end += len(ch)
		c.ends, c.fps = append(c.ends, end), append(c.fps, chunk.Of(ch))
	}
}

// windowCuts ingests data through the pipeline with hint table h, and counts
// what the ingest counters moved by (meaningful while nothing else ingests).
func windowCuts(t testing.TB, data []byte, p chunker.Params, h *Hints) cuts {
	t.Helper()
	var c cuts
	hinted, refuted, repairs := telHintedChunks.Value(), telHintsRefuted.Value(), telWindowRepairs.Value()
	end := 0
	var clk disk.Clock
	_, _, _, err := Pipeline(context.Background(), bytes.NewReader(data), p,
		segment.DefaultParams(), &clk, DefaultCostModel(), true, h,
		func(s *segment.Segment) error {
			for _, ch := range s.Chunks {
				if chunk.Of(ch.Data) != ch.FP {
					return fmt.Errorf("chunk at %d: bytes and fingerprint differ", end)
				}
				end += len(ch.Data)
				c.ends, c.fps = append(c.ends, end), append(c.fps, ch.FP)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	c.hinted = telHintedChunks.Value() - hinted
	c.refuted = telHintsRefuted.Value() - refuted
	c.repairs = telWindowRepairs.Value() - repairs
	return c
}

func (c cuts) mustEqual(t testing.TB, want cuts) {
	t.Helper()
	if len(c.ends) != len(want.ends) {
		t.Fatalf("%d chunks, want %d", len(c.ends), len(want.ends))
	}
	for i := range c.ends {
		if c.ends[i] != want.ends[i] || c.fps[i] != want.fps[i] {
			t.Fatalf("chunk %d ends at %d, want %d (or its fingerprint differs)", i, c.ends[i], want.ends[i])
		}
	}
}

// Edits of a stream, seeded.
func insertBytes(data []byte, rng *rand.Rand, n int) []byte {
	out := slices.Clone(data)
	for range n {
		at := rng.Intn(len(out) + 1)
		ins := make([]byte, 1+rng.Intn(300))
		rng.Read(ins)
		out = slices.Insert(out, at, ins...)
	}
	return out
}

func overwriteBytes(data []byte, rng *rand.Rand, n int) []byte {
	out := slices.Clone(data)
	for range n {
		at := rng.Intn(len(out))
		rng.Read(out[at:min(at+1+rng.Intn(200), len(out))])
	}
	return out
}

// learned is a table that has seen the streams.
func learned(t testing.TB, p chunker.Params, streams ...[]byte) *Hints {
	h := NewHints()
	for _, s := range streams {
		windowCuts(t, s, p, h)
	}
	return h
}

// wrongHints is a table of plausible lies about data: under the key before
// each of its cuts, a size the gear masks allow there — that chunk's own, or
// it and the next together — and a fingerprint of other bytes. Every jump the
// table offers lands on a cut and must be refuted.
func wrongHints(t testing.TB, data []byte, p chunker.Params) *Hints {
	h := NewHints()
	want := streamCuts(t, data, p)
	for k := 0; k+2 < len(want.ends); k++ {
		start := 0
		if k > 0 {
			start = want.ends[k-1]
		}
		size := want.ends[k] - start
		if k%2 == 1 && want.ends[k+1]-start <= p.Max {
			size = want.ends[k+1] - start
		}
		h.put(hint{key: chunker.Key(data, start), size: size, fp: want.fps[k+1]})
	}
	return h
}

// TestWindowsCutWhereTheStreamDoes: whatever the hint table holds — nothing
// but what the stream teaches it as it goes, the chunks of an edited copy of the stream, its own chunks, or plausible
// lies — and however many workers cut the windows, the pipeline's chunks are
// a plain chunker.Stream's, bit for bit. Rows must take the repair paths:
// "misaligned-runs", "zero-runs" and the "period" rows have windows' chains
// miss the join (runs of Max-long chunks out of phase with the windows), "lies"
// has every hint refuted.
func TestWindowsCutWhereTheStreamDoes(t *testing.T) {
	base := randBytes(300<<10, 41)
	rng := rand.New(rand.NewSource(42))
	inserted := insertBytes(base, rng, 12)
	overwritten := overwriteBytes(base, rng, 12)
	misaligned := append(slices.Clone(base[:5000]), bytes.Repeat([]byte("abcdefgh"), 16<<10)...)
	// Zero runs after a content-defined cut, a run whose period (7) divides
	// no chunk length, and one whose period (1000) no window's chunks repeat:
	// the repair takes the chunks of the first two as repeats of chunks it
	// knows, and must search and hash through the third.
	var zeroRuns []byte
	for k := range 4 {
		zeroRuns = append(zeroRuns, base[k*20000:k*20000+5000+k*777]...)
		zeroRuns = append(zeroRuns, make([]byte, 40<<10)...)
	}
	period7 := append(slices.Clone(base[:5000]), bytes.Repeat([]byte("abcdefg"), 16<<10)...)
	// A stream that ends in zeros, where a repair's chunk matches the
	// window's last, which the stream's end cut short.
	zeroTail := append(slices.Clone(base[:31916]), make([]byte, 2912)...)
	pattern := make([]byte, 1000)
	pattern[999] = 4 // every chunk of the run is Max long, at either Min
	period1000 := append(slices.Clone(base[:5000]), bytes.Repeat(pattern, 100)...)
	for _, p := range windowParams {
		rows := []struct {
			name    string
			data    []byte
			hints   func() *Hints
			repairs bool // the row must see a window repair
			refuted bool // the row must see a refuted hint
			hinted  bool // the row must see a hinted chunk
		}{
			{name: "fresh-table", data: base, hints: NewHints},
			{name: "empty", data: nil, hints: func() *Hints { return learned(t, p, base) }},
			{name: "shorter-than-min", data: base[:p.Min-1], hints: func() *Hints { return learned(t, p, base) }},
			{name: "one-max", data: base[:p.Max], hints: func() *Hints { return learned(t, p, base) }},
			{name: "itself", data: base, hints: func() *Hints { return learned(t, p, base) }, hinted: true},
			{name: "insertions", data: inserted, hints: func() *Hints { return learned(t, p, base) }, hinted: true},
			{name: "overwrites", data: overwritten, hints: func() *Hints { return learned(t, p, base) }, hinted: true},
			{name: "truncated", data: base[:len(base)/3+17], hints: func() *Hints { return learned(t, p, base) }, hinted: true},
			{name: "base-after-edits", data: base, hints: func() *Hints { return learned(t, p, inserted, overwritten) }, hinted: true},
			{name: "lies", data: overwritten, hints: func() *Hints { return wrongHints(t, overwritten, p) }, refuted: true},
			{name: "misaligned-runs", data: misaligned, hints: NewHints, repairs: true},
			{name: "misaligned-runs-learned", data: misaligned, hints: func() *Hints { return learned(t, p, misaligned) }, repairs: true},
			{name: "zero-runs", data: zeroRuns, hints: NewHints, repairs: true},
			{name: "zero-runs-learned", data: zeroRuns, hints: func() *Hints { return learned(t, p, zeroRuns) }, repairs: true},
			{name: "zero-tail", data: zeroTail, hints: NewHints, repairs: true},
			{name: "period-7-run", data: period7, hints: NewHints, repairs: true},
			{name: "period-1000-run", data: period1000, hints: NewHints, repairs: true},
		}
		for _, row := range rows {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%d-%d-%d/%s/workers=%d", p.Min, p.Target, p.Max, row.name, workers), func(t *testing.T) {
					setProcs(t, max(workers, 2))
					prev := hashWorkers
					hashWorkers = func() int { return workers }
					defer func() { hashWorkers = prev }()
					got := windowCuts(t, row.data, p, row.hints())
					got.mustEqual(t, streamCuts(t, row.data, p))
					if row.repairs && got.repairs == 0 {
						t.Error("no window was repaired")
					}
					if row.refuted && got.refuted == 0 {
						t.Error("no hint was refuted")
					}
					if row.hinted && got.hinted == 0 {
						t.Error("no chunk was placed by a hint")
					}
				})
			}
		}
	}
}

// TestWindowsShareOneHintTable: two streams ingested at once over one table,
// each teaching it what the other reads, both cut where the stream does. CI
// runs it under -race, many times over.
func TestWindowsShareOneHintTable(t *testing.T) {
	setProcs(t, 4)
	p := windowParams[0]
	base := randBytes(200<<10, 43)
	rng := rand.New(rand.NewSource(44))
	streams := [][]byte{overwriteBytes(base, rng, 8), insertBytes(base, rng, 8)}
	h := learned(t, p, base)
	var wg sync.WaitGroup
	got := make([]cuts, len(streams))
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got[i] = windowCuts(t, s, p, h)
			}
		}()
	}
	wg.Wait()
	for i, s := range streams {
		got[i].mustEqual(t, streamCuts(t, s, p))
	}
}

// FuzzWindowedCuts: for any bytes, and a table taught an edited copy of them
// or told lies about them, the pipeline cuts where chunker.Stream does. The
// chunks are tiny, so a few KiB cross several windows.
func FuzzWindowedCuts(f *testing.F) {
	f.Add([]byte("tiny"), uint16(0), int64(1))
	f.Add(bytes.Repeat([]byte{0}, 3000), uint16(17), int64(2))
	f.Add(randBytes(6000, 3), uint16(100), int64(3))
	f.Add(randBytes(9000, 4), uint16(4000), int64(-4))
	f.Fuzz(func(t *testing.T, data []byte, at uint16, seed int64) {
		p := chunker.Params{Min: 8, Target: 32, Max: 128}
		rng := rand.New(rand.NewSource(seed))
		h := NewHints()
		switch {
		case seed < 0:
			h = wrongHints(t, data, p)
		case len(data) > 0:
			edited := slices.Clone(data)
			i := int(at) % len(edited)
			rng.Read(edited[i:min(i+1+rng.Intn(64), len(edited))])
			h = learned(t, p, insertBytes(edited, rng, 2))
		}
		windowCuts(t, data, p, h).mustEqual(t, streamCuts(t, data, p))
	})
}
