package chunker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// cutAll is the oracle of the in-place tests: the whole stream in memory and
// one cut after another over what is left of it, so no buffer, carried tail
// or read size is involved.
func cutAll(t testing.TB, p Params, data []byte) []int {
	t.Helper()
	c, err := NewCutter(p)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for pos := 0; pos < len(data); {
		pos += c.Cut(data[pos:])
		ends = append(ends, pos)
	}
	return ends
}

// scanInPlace drives a Stream whose window holds bufSize bytes: the tail past
// the last boundary is carried to the front of it each time it is filled
// again. It returns every chunk's end offset in the stream, the bytes it saw,
// and how the stream ended.
func scanInPlace(t testing.TB, p Params, r io.Reader, bufSize int) (ends []int, seen []byte, err error) {
	t.Helper()
	s, serr := newStream(r, p, bufSize)
	if serr != nil {
		t.Fatal(serr)
	}
	for rounds := 0; ; rounds++ {
		if rounds > 1<<20 {
			t.Fatal("stream makes no progress")
		}
		ch, err := s.Next()
		if err != nil {
			if s.start != s.n {
				t.Fatalf("stream ended with %d bytes left uncut", s.n-s.start)
			}
			return ends, seen, err
		}
		if len(ch) == 0 {
			t.Fatal("empty chunk before the end of the stream")
		}
		seen = append(seen, ch...)
		ends = append(ends, len(seen))
	}
}

// randomReader returns between 1 and max bytes per Read.
type randomReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (r *randomReader) Read(p []byte) (int, error) {
	if k := 1 + r.rng.Intn(r.max); k < len(p) {
		p = p[:k]
	}
	return r.r.Read(p)
}

func equalEnds(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: boundary %d at %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestCutInPlaceMatchesReference: whatever the read sizes and however often
// a window rolls over, Stream cuts exactly where the in-memory oracle and the
// straight-line boundariesRef do.
func TestCutInPlaceMatchesReference(t *testing.T) {
	p := Params{Min: 64, Target: 256, Max: 1024}
	data := randBytes(t, 96<<10, 21)
	lowent := bytes.Repeat([]byte("abcdefgh"), 4<<10) // never matches: every chunk runs to Max
	streams := map[string][]byte{
		"random": data, "lowent": lowent, "one-max": data[:p.Max], "max+1": data[:p.Max+1],
		"short": data[:p.Min-1], "min": data[:p.Min], "one": data[:1], "empty": nil,
	}
	readers := map[string]func([]byte) io.Reader{
		"whole":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"onebyte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":    func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"dataerr": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"random": func(b []byte) io.Reader {
			return &randomReader{r: bytes.NewReader(b), rng: rand.New(rand.NewSource(5)), max: 3 * p.Max}
		},
	}
	t.Run("gear", func(t *testing.T) {
		for sname, data := range streams {
			want := cutAll(t, p, data)
			equalEnds(t, sname+": oracle against boundariesRef", want, boundariesRef(data, p))
			for rname, mk := range readers {
				// The smallest window, one that fits a few chunks, and one
				// that takes the stream whole.
				for _, bufSize := range []int{p.Max, 3*p.Max + 17, len(data) + p.Max} {
					what := fmt.Sprintf("%s/%s/buf=%d", sname, rname, bufSize)
					got, seen, err := scanInPlace(t, p, mk(data), bufSize)
					if err != io.EOF {
						t.Fatalf("%s: stream ended with %v", what, err)
					}
					equalEnds(t, what, got, want)
					if !bytes.Equal(seen, data) {
						t.Fatalf("%s: chunks do not reassemble the stream", what)
					}
				}
				c, err := NewGear(mk(data), p)
				if err != nil {
					t.Fatal(err)
				}
				var got []int
				pos := 0
				for _, ch := range collect(t, c) {
					pos += len(ch)
					got = append(got, pos)
				}
				equalEnds(t, sname+"/"+rname+"/Next", got, want)
			}
		}
	})
}

// emptyReader returns (0, nil) for ever: no bytes, no end, no error.
type emptyReader struct{ reads int }

func (r *emptyReader) Read([]byte) (int, error) { r.reads++; return 0, nil }

// TestStuckReaderReturnsNoProgress: a reader that never delivers used to
// spin the chunker for ever; it must give up like bufio does.
func TestStuckReaderReturnsNoProgress(t *testing.T) {
	t.Run("gear", func(t *testing.T) {
		r := &emptyReader{}
		c, err := NewGear(r, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if ch, err := c.Next(); err != io.ErrNoProgress || ch != nil {
			t.Fatalf("Next = %d bytes, %v; want io.ErrNoProgress", len(ch), err)
		}
		if r.reads != maxEmptyReads {
			t.Fatalf("gave up after %d empty reads, want %d", r.reads, maxEmptyReads)
		}
		// Bytes delivered before the reader got stuck are still cut first.
		data := randBytes(t, 3000, 8)
		c, err = NewGear(io.MultiReader(bytes.NewReader(data), &emptyReader{}), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for {
			ch, err := c.Next()
			if err != nil {
				if err != io.ErrNoProgress {
					t.Fatalf("err = %v, want io.ErrNoProgress", err)
				}
				break
			}
			got = append(got, ch...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d bytes cut before the stuck reader, want %d", len(got), len(data))
		}
	})
}

// TestReadErrorAfterBufferedBytes: a read failure surfaces only once the
// bytes read before it have been cut, from the default window and from a
// small one, and an empty read in between is not an error.
func TestReadErrorAfterBufferedBytes(t *testing.T) {
	p := Params{Min: 64, Target: 256, Max: 1024}
	data := randBytes(t, 10<<10, 9)
	t.Run("gear", func(t *testing.T) {
		// TimeoutReader fails its second Read; OneByteReader in front of it
		// makes the first one deliver a single byte.
		c, err := NewGear(iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(data))), p)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := c.Next()
		if err != nil || !bytes.Equal(ch, data[:1]) {
			t.Fatalf("first Next = %q, %v; want the one byte read before the timeout", ch, err)
		}
		if _, err := c.Next(); !errors.Is(err, iotest.ErrTimeout) {
			t.Fatalf("second Next err = %v, want ErrTimeout", err)
		}
		if _, err := c.Next(); !errors.Is(err, iotest.ErrTimeout) {
			t.Fatalf("the failure is not sticky: %v", err)
		}

		// In place: several buffers' worth, then the failure. Everything read
		// is cut as if the stream had ended there.
		cutoff := 5*p.Max + 123
		r := io.MultiReader(bytes.NewReader(data[:cutoff]), iotest.ErrReader(io.ErrClosedPipe))
		got, seen, err := scanInPlace(t, p, r, 2*p.Max)
		if err != io.ErrClosedPipe {
			t.Fatalf("scan ended with %v, want ErrClosedPipe", err)
		}
		equalEnds(t, "before the failure", got, cutAll(t, p, data[:cutoff]))
		if !bytes.Equal(seen, data[:cutoff]) {
			t.Fatal("bytes read before the failure were not all cut")
		}
	})
}

// FuzzCutInPlace: for any bytes, window size and read pattern Stream cuts
// where the in-memory oracle does.
func FuzzCutInPlace(f *testing.F) {
	// Small seeds and small chunks: the fuzzer minimizes every input that
	// reaches new code, one run per byte it tries to drop.
	f.Add([]byte("tiny"), uint16(0), int64(1))
	f.Add(bytes.Repeat([]byte{0}, 700), uint16(17), int64(2))
	f.Add(randBytes(f, 1500, 3), uint16(100), int64(3))
	f.Add(randBytes(f, 900, 4), uint16(1), int64(4))
	f.Add(randBytes(f, 300, 5), uint16(4096), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, extra uint16, seed int64) {
		p := Params{Min: 8, Target: 32, Max: 128}
		want := cutAll(t, p, data)
		r := &randomReader{r: bytes.NewReader(data), rng: rand.New(rand.NewSource(seed)), max: 2 * p.Max}
		got, seen, err := scanInPlace(t, p, r, p.Max+int(extra))
		if err != io.EOF {
			t.Fatalf("stream ended with %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d chunks, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("boundary %d at %d, want %d", i, got[i], want[i])
			}
		}
		if !bytes.Equal(seen, data) {
			t.Fatal("chunks do not reassemble the stream")
		}
	})
}
