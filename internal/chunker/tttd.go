package chunker

import "io"

// tttd is the Two-Threshold Two-Divisor chunker (Eshghi & Tang, HP Labs
// 2005): like basic content-defined chunking it cuts where a rolling hash
// matches a divisor, but it also tracks the last position that matched a
// smaller *backup divisor*; when the main divisor finds nothing before the
// maximum size, the backup cut is used instead of a hard truncation. This
// trims the fat right tail of the chunk-size distribution that plain CDC
// truncation creates, at the same shift tolerance.
//
// Included as the fourth chunking reference (gear/FastCDC, Rabin, fixed,
// TTTD); engines default to gear.
type tttd struct {
	p Params
	// Main divisor ≈ target; backup divisor is main/2 (twice as likely to
	// fire), per the original paper's recommendation.
	mainMask   uint64
	backupMask uint64
}

// NewTTTD returns a TTTD chunker over r.
func NewTTTD(r io.Reader, p Params) (*Stream, error) { return New(KindTTTD, r, p) }

func newTTTD(p Params) (*tttd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bits := uint(0)
	for s := p.Target; s > 1; s >>= 1 {
		bits++
	}
	backupBits := bits - 1
	if backupBits < 1 {
		backupBits = 1
	}
	return &tttd{
		p:          p,
		mainMask:   uint64(1)<<bits - 1,
		backupMask: uint64(1)<<backupBits - 1,
	}, nil
}

func (c *tttd) maxLen() int { return c.p.Max }

func (c *tttd) cut(data []byte) int {
	if len(data) <= c.p.Min {
		return len(data)
	}
	if len(data) > c.p.Max {
		data = data[:c.p.Max]
	}
	var h uint64
	n := len(data)
	backup := -1
	warm := c.p.Min - 64
	if warm < 0 {
		warm = 0
	}
	for j := warm; j < c.p.Min; j++ {
		h = h<<1 + gearTable[data[j]]
	}
	for i := c.p.Min; i < n; i++ {
		h = h<<1 + gearTable[data[i]]
		if h&c.mainMask == c.mainMask {
			return i + 1
		}
		if h&c.backupMask == c.backupMask {
			backup = i + 1
		}
	}
	if n < c.p.Max {
		return n // end of stream: no cut needed
	}
	if backup > 0 {
		return backup // soft landing instead of hard truncation
	}
	return n
}
