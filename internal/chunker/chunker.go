// Package chunker splits byte streams into content-defined chunks with a
// gear rolling hash and FastCDC-style normalization (two masks around the
// target size plus a hard minimum/maximum). It is fast and shift-tolerant, so
// an insertion early in a file only disturbs chunk boundaries locally.
//
// The boundary search works over bytes in memory. A Cutter cuts one chunk at
// a time out of a buffer its caller owns (the ingest pipeline cuts its windows
// with one), and says whether a point could end a chunk at all, from the Key
// of the bytes before it; a Stream is the Chunker over a reader, whose Next
// returns one chunk at a time until io.EOF.
package chunker

import (
	"errors"
	"io"
)

// Default chunking parameters, matching common backup-dedup practice
// (the paper's systems use variable chunks of a few KB).
const (
	DefaultMin    = 2 * 1024  // minimum chunk size
	DefaultTarget = 8 * 1024  // target average chunk size
	DefaultMax    = 64 * 1024 // maximum chunk size
)

// Chunker produces successive chunk byte-slices from a stream. The returned
// slice is only valid until the next call to Next.
type Chunker interface {
	// Next returns the next chunk. It returns io.EOF when the stream is
	// exhausted (with a nil chunk).
	Next() ([]byte, error)
}

// Params configures a content-defined chunker.
type Params struct {
	Min    int // no boundary before Min bytes
	Target int // average chunk size (must be a power of two for Gear masks)
	Max    int // forced boundary at Max bytes
}

// DefaultParams returns the package defaults.
func DefaultParams() Params {
	return Params{Min: DefaultMin, Target: DefaultTarget, Max: DefaultMax}
}

var errBadParams = errors.New("chunker: require 0 < Min <= Target <= Max and Target a power of two")

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Min <= 0 || p.Target < p.Min || p.Max < p.Target {
		return errBadParams
	}
	if p.Target&(p.Target-1) != 0 {
		return errBadParams
	}
	return nil
}

// maxEmptyReads bounds a run of (0, nil) reads before the stream counts as
// stuck, as bufio does.
const maxEmptyReads = 100

// Fill reads r into buf until buf is full or the stream ends. It returns the
// bytes read and nil when buf is full, else how the stream ended: io.EOF after
// a clean end, the read failure, or io.ErrNoProgress for a reader that keeps
// returning no bytes and no error.
func Fill(r io.Reader, buf []byte) (int, error) {
	n := 0
	for empty := 0; n < len(buf); {
		m, err := r.Read(buf[n:])
		n += m
		switch {
		case err != nil:
			return n, err
		case m > 0:
			empty = 0
		default:
			if empty++; empty == maxEmptyReads {
				return n, io.ErrNoProgress
			}
		}
	}
	return n, nil
}

// Stream is the Chunker over a reader: it cuts in place inside a window of
// its own, and only the tail past the last certain boundary (shorter than the
// longest chunk) is copied to the front before the window is filled again. A
// stream that ends, cleanly or not, has all of its bytes cut first.
type Stream struct {
	r     io.Reader
	c     *Cutter
	err   error  // how the stream ended: io.EOF or the read failure; nil until then
	buf   []byte // the window
	start int    // buf[start:n] is read and not yet handed out
	n     int
}

// streamWindow sizes a Stream's window in longest chunks: the tail carried
// from one fill to the next is just under one of them.
const streamWindow = 4

// NewGear returns a chunker over r. Params must validate.
func NewGear(r io.Reader, p Params) (*Stream, error) {
	return newStream(r, p, streamWindow*p.Max)
}

// newStream returns a Stream whose window holds size bytes, at least p.Max.
func newStream(r io.Reader, p Params, size int) (*Stream, error) {
	c, err := NewCutter(p)
	if err != nil {
		return nil, err
	}
	return &Stream{r: r, c: c, buf: make([]byte, size)}, nil
}

// Next returns the next chunk or io.EOF. A read failure is returned once the
// bytes read before it have been handed out.
func (s *Stream) Next() ([]byte, error) {
	if s.n-s.start < s.c.p.Max && s.err == nil {
		s.n = copy(s.buf, s.buf[s.start:s.n])
		s.start = 0
		m, err := Fill(s.r, s.buf[s.n:])
		s.n += m
		s.err = err
	}
	if s.start == s.n {
		return nil, s.err
	}
	end := s.start + s.c.Cut(s.buf[s.start:s.n])
	chunk := s.buf[s.start:end]
	s.start = end
	return chunk, nil
}
