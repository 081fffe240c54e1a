// Package chunker splits byte streams into content-defined chunks with a
// gear rolling hash and FastCDC-style normalization (two masks around the
// target size plus a hard minimum/maximum). It is fast and shift-tolerant, so
// an insertion early in a file only disturbs chunk boundaries locally.
//
// The boundary search works over bytes in memory. A Scanner runs it over a
// stream, cutting in place in the caller's buffers (the ingest pipeline's way
// in); a Stream wraps a Scanner as a Chunker, whose Next returns one chunk at
// a time until io.EOF.
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

// Scanner cuts a stream into chunks inside buffers its caller owns: bytes go
// from the reader to where they are hashed with no window of the chunker's in
// between. The ingest pipeline scans straight into its pooled hash-job
// buffers; Stream is the same over one buffer of its own.
type Scanner struct {
	r   io.Reader
	g   *gear
	err error // how the stream ended: io.EOF or the read failure; nil until then
}

// NewScanner returns a scanner over r. Params must validate.
func NewScanner(r io.Reader, p Params) (*Scanner, error) {
	g, err := newGear(p)
	if err != nil {
		return nil, err
	}
	return &Scanner{r: r, g: g}, nil
}

// MaxChunk is the longest chunk the scanner cuts, and the least buffer Scan
// accepts.
func (s *Scanner) MaxChunk() int { return s.g.p.Max }

// Err reports how the stream ended: nil while it has not, io.EOF after a
// clean end, else the read failure (io.ErrNoProgress for a reader that keeps
// returning no bytes and no error).
func (s *Scanner) Err() error { return s.err }

// Scan reads the stream into buf[n:], the caller having put the bytes left
// over from its last call at buf[:n], and cuts every chunk whose end is
// certain: it appends their exclusive end offsets to ends and returns the
// count of valid bytes with it. What lies past the last end is shorter than
// MaxChunk and opens the caller's next buffer, unless the stream has ended
// (Err is then non-nil): a stream that ends, cleanly or not, has all of its
// bytes cut first. No end appended means the stream is over and empty.
// len(buf) must be at least MaxChunk.
func (s *Scanner) Scan(buf []byte, n int, ends []int) (int, []int) {
	for empty := 0; n < len(buf) && s.err == nil; {
		m, err := s.r.Read(buf[n:])
		n += m
		switch {
		case err != nil:
			s.err = err
		case m > 0:
			empty = 0
		default:
			if empty++; empty == maxEmptyReads {
				s.err = io.ErrNoProgress
			}
		}
	}
	need := s.MaxChunk()
	if s.err != nil {
		need = 1
	}
	for pos := 0; n-pos >= need; {
		pos += s.g.cut(buf[pos:n])
		ends = append(ends, pos)
	}
	return n, ends
}

// Stream adapts a Scanner to the Chunker interface over a window of its own,
// for callers that want one chunk at a time.
type Stream struct {
	s    *Scanner
	buf  []byte
	n    int   // valid bytes in buf
	ends []int // chunks cut by the last Scan
	next int   // index into ends of the chunk Next returns
}

// streamWindow sizes a Stream's buffer in longest chunks: the tail carried
// from one Scan to the next is just under one of them.
const streamWindow = 4

// NewGear returns a chunker over r. Params must validate.
func NewGear(r io.Reader, p Params) (*Stream, error) {
	s, err := NewScanner(r, p)
	if err != nil {
		return nil, err
	}
	return &Stream{s: s, buf: make([]byte, streamWindow*s.MaxChunk())}, nil
}

// Next returns the next chunk or io.EOF. A read failure is returned once the
// bytes read before it have been handed out.
func (c *Stream) Next() ([]byte, error) {
	start := 0
	if c.next > 0 {
		start = c.ends[c.next-1]
	}
	if c.next == len(c.ends) {
		c.n = copy(c.buf, c.buf[start:c.n])
		c.n, c.ends = c.s.Scan(c.buf, c.n, c.ends[:0])
		start, c.next = 0, 0
		if len(c.ends) == 0 {
			return nil, c.s.Err()
		}
	}
	end := c.ends[c.next]
	c.next++
	return c.buf[start:end], nil
}
