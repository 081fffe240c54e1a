package chunker

import "io"

// fixed splits the stream into fixed-size chunks. It is the degenerate
// baseline: a single-byte insertion shifts every later boundary, destroying
// deduplication across shifted copies. Used in tests and ablations to
// demonstrate why content-defined chunking matters.
type fixed struct{ size int }

func newFixed(size int) (*fixed, error) {
	if size <= 0 {
		return nil, errBadParams
	}
	return &fixed{size: size}, nil
}

// NewFixed returns a fixed-size chunker with the given chunk size.
func NewFixed(r io.Reader, size int) (*Stream, error) {
	return New(KindFixed, r, Params{Target: size})
}

func (f *fixed) maxLen() int { return f.size }

func (f *fixed) cut(data []byte) int { return min(len(data), f.size) }

// Kind selects a chunker implementation by name.
type Kind int

const (
	KindGear Kind = iota // FastCDC-style gear chunking (default)
	KindRabin
	KindFixed
	KindTTTD // two-threshold two-divisor
)

func (k Kind) String() string {
	switch k {
	case KindGear:
		return "gear"
	case KindRabin:
		return "rabin"
	case KindFixed:
		return "fixed"
	case KindTTTD:
		return "tttd"
	}
	return "unknown"
}
