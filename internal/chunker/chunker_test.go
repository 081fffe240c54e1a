package chunker

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// randBytes returns n deterministic pseudo-random bytes.
func randBytes(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// collect runs a chunker to exhaustion, returning copies of all chunks.
func collect(t testing.TB, c Chunker) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(ch) == 0 {
			t.Fatal("chunker returned empty chunk")
		}
		out = append(out, append([]byte(nil), ch...))
	}
}

// Several tests of this package run their body as the one subtest "gear":
// test history is keyed on those names.

func reassemble(chunks [][]byte) []byte {
	var buf bytes.Buffer
	for _, c := range chunks {
		buf.Write(c)
	}
	return buf.Bytes()
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{DefaultParams(), true},
		{Params{Min: 0, Target: 8, Max: 16}, false},
		{Params{Min: 4, Target: 2, Max: 16}, false},
		{Params{Min: 4, Target: 8, Max: 4}, false},
		{Params{Min: 4, Target: 12, Max: 16}, false}, // not power of two
		{Params{Min: 1, Target: 1, Max: 1}, true},
	}
	for i, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%+v) err=%v, want ok=%v", i, c.p, err, c.ok)
		}
	}
}

func TestReassemblyIdentity(t *testing.T) {
	data := randBytes(t, 1<<20, 42)
	t.Run("gear", func(t *testing.T) {
		c, err := NewGear(bytes.NewReader(data), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		chunks := collect(t, c)
		if !bytes.Equal(reassemble(chunks), data) {
			t.Fatal("reassembled chunks differ from input")
		}
	})
}

func TestEmptyInput(t *testing.T) {
	t.Run("gear", func(t *testing.T) {
		c, err := NewGear(bytes.NewReader(nil), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if chunks := collect(t, c); len(chunks) != 0 {
			t.Fatalf("empty input produced %d chunks", len(chunks))
		}
	})
}

func TestTinyInput(t *testing.T) {
	data := []byte("tiny")
	t.Run("gear", func(t *testing.T) {
		c, err := NewGear(bytes.NewReader(data), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		chunks := collect(t, c)
		if len(chunks) != 1 || !bytes.Equal(chunks[0], data) {
			t.Fatalf("tiny input chunks = %v", chunks)
		}
	})
}

func TestSizeBounds(t *testing.T) {
	p := DefaultParams()
	data := randBytes(t, 4<<20, 7)
	t.Run("gear", func(t *testing.T) {
		c, err := NewGear(bytes.NewReader(data), p)
		if err != nil {
			t.Fatal(err)
		}
		chunks := collect(t, c)
		for i, ch := range chunks {
			if len(ch) > p.Max {
				t.Fatalf("chunk %d size %d exceeds max %d", i, len(ch), p.Max)
			}
			if i < len(chunks)-1 && len(ch) < p.Min {
				t.Fatalf("non-final chunk %d size %d below min %d", i, len(ch), p.Min)
			}
		}
	})
}

func TestAverageChunkSizeNearTarget(t *testing.T) {
	p := DefaultParams()
	data := randBytes(t, 8<<20, 3)
	t.Run("gear", func(t *testing.T) {
		c, err := NewGear(bytes.NewReader(data), p)
		if err != nil {
			t.Fatal(err)
		}
		chunks := collect(t, c)
		avg := float64(len(data)) / float64(len(chunks))
		// Accept a broad band: CDC averages land within ~2x of target.
		if avg < float64(p.Target)/2 || avg > float64(p.Target)*2 {
			t.Fatalf("average chunk size %.0f too far from target %d", avg, p.Target)
		}
	})
}

// TestShiftTolerance is the core CDC property: inserting bytes near the
// front of a stream must leave the vast majority of chunk boundaries (and
// hence chunks) unchanged.
func TestShiftTolerance(t *testing.T) {
	base := randBytes(t, 2<<20, 11)
	shifted := append(append(append([]byte(nil), base[:1000]...), []byte("INSERTED BYTES")...), base[1000:]...)

	t.Run("gear", func(t *testing.T) {
		c1, _ := NewGear(bytes.NewReader(base), DefaultParams())
		c2, _ := NewGear(bytes.NewReader(shifted), DefaultParams())
		set := make(map[string]bool)
		var total int
		for _, ch := range collect(t, c1) {
			set[string(ch)] = true
			total++
		}
		var common int
		for _, ch := range collect(t, c2) {
			if set[string(ch)] {
				common++
			}
		}
		if frac := float64(common) / float64(total); frac < 0.95 {
			t.Fatalf("only %.1f%% of chunks survive a front insertion; CDC should preserve >95%%", frac*100)
		}
	})
}

func TestDeterminism(t *testing.T) {
	data := randBytes(t, 1<<20, 21)
	t.Run("gear", func(t *testing.T) {
		c1, _ := NewGear(bytes.NewReader(data), DefaultParams())
		c2, _ := NewGear(bytes.NewReader(data), DefaultParams())
		a, b := collect(t, c1), collect(t, c2)
		if len(a) != len(b) {
			t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("chunk %d differs between runs", i)
			}
		}
	})
}

// TestBoundaryIndependence verifies chunk boundaries after a cut point do
// not depend on data before it (the localized-boundary property): chunking
// the suffix starting at a boundary yields the same chunks.
func TestBoundaryIndependence(t *testing.T) {
	data := randBytes(t, 2<<20, 31)
	c, _ := NewGear(bytes.NewReader(data), DefaultParams())
	chunks := collect(t, c)
	if len(chunks) < 10 {
		t.Skip("not enough chunks")
	}
	// Re-chunk starting from the 5th boundary.
	off := 0
	for i := 0; i < 5; i++ {
		off += len(chunks[i])
	}
	c2, _ := NewGear(bytes.NewReader(data[off:]), DefaultParams())
	rest := collect(t, c2)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(rest[i], chunks[5+i]) {
			t.Fatalf("suffix chunk %d differs: boundaries not local", i)
		}
	}
}

// drip is a reader that returns one byte per Read call, exercising the
// buffered refill logic.
type drip struct{ data []byte }

func (d *drip) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	p[0] = d.data[0]
	d.data = d.data[1:]
	return 1, nil
}

func TestDrippingReader(t *testing.T) {
	data := randBytes(t, 200*1024, 5)
	c, err := NewGear(&drip{data: data}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassemble(collect(t, c)), data) {
		t.Fatal("dripping reader reassembly failed")
	}
}

// errReader fails after some bytes.
type errReader struct{ n int }

func (e *errReader) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	k := min(e.n, len(p))
	for i := 0; i < k; i++ {
		p[i] = byte(i)
	}
	e.n -= k
	return k, nil
}

func TestReaderErrorPropagates(t *testing.T) {
	c, err := NewGear(&errReader{n: 100}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := c.Next()
		if err == io.ErrUnexpectedEOF {
			return // propagated
		}
		if err == io.EOF {
			t.Fatal("error was swallowed as EOF")
		}
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
	}
}
