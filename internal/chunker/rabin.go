package chunker

import "io"

// rabin implements classic Rabin-fingerprint content-defined chunking with a
// fixed 48-byte sliding window over an irreducible polynomial in GF(2). It
// is slower than Gear and kept as a reference implementation: tests verify
// that both chunkers are shift-tolerant and produce the configured average
// chunk size.
type rabin struct {
	p Params
	// outTable[b] is the precomputed contribution of byte b once it reaches
	// the leaving edge of the window, so sliding is one XOR + one append.
	outTable  [256]uint64
	mask      uint64
	windowLen int
}

// rabinPoly is an irreducible polynomial of degree 53 over GF(2), the same
// degree family used by LBFS-lineage chunkers.
const rabinPoly uint64 = 0x3DA3358B4DC173

const rabinWindow = 48

// polyDegree returns the degree of p (position of highest set bit).
func polyDegree(p uint64) int {
	d := -1
	for i := 0; i < 64; i++ {
		if p&(1<<uint(i)) != 0 {
			d = i
		}
	}
	return d
}

// polyMod reduces value modulo poly in GF(2).
func polyMod(value, poly uint64, deg int) uint64 {
	for i := 63; i >= deg; i-- {
		if value&(1<<uint(i)) != 0 {
			value ^= poly << uint(i-deg)
		}
	}
	return value
}

// NewRabin returns a Rabin chunker over r.
func NewRabin(r io.Reader, p Params) (*Stream, error) { return New(KindRabin, r, p) }

func newRabin(p Params) (*rabin, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &rabin{
		p:         p,
		mask:      uint64(p.Target - 1),
		windowLen: rabinWindow,
	}
	deg := polyDegree(rabinPoly)
	// outTable[b]: contribution of byte b after windowLen-1 shifts.
	for b := 0; b < 256; b++ {
		h := c.appendByteRaw(0, byte(b), deg)
		for i := 0; i < c.windowLen-1; i++ {
			h = c.appendByteRaw(h, 0, deg)
		}
		c.outTable[b] = h
	}
	return c, nil
}

// appendByteRaw appends one byte to the rolling fingerprint.
func (c *rabin) appendByteRaw(h uint64, b byte, deg int) uint64 {
	h <<= 8
	h |= uint64(b)
	return polyMod(h, rabinPoly, deg)
}

func (c *rabin) maxLen() int { return c.p.Max }

func (c *rabin) cut(data []byte) int {
	if len(data) <= c.p.Min {
		return len(data)
	}
	if len(data) > c.p.Max {
		data = data[:c.p.Max]
	}
	deg := polyDegree(rabinPoly)
	n := len(data)
	var h uint64
	// Prime the window over the bytes immediately before Min (append only —
	// nothing has fallen out of the window yet) so the boundary decision at
	// position Min sees a full window of local content. Keeping the hash a
	// pure function of the trailing windowLen bytes is what makes boundaries
	// content-local and lets chunking resynchronize after an insertion.
	start := c.p.Min - c.windowLen
	if start < 0 {
		start = 0
	}
	for j := start; j < c.p.Min; j++ {
		h = c.appendByteRaw(h, data[j], deg)
	}
	for i := c.p.Min; i < n; i++ {
		if out := i - c.windowLen; out >= start {
			h ^= c.outTable[data[out]]
		}
		h = c.appendByteRaw(h, data[i], deg)
		if h&c.mask == c.mask { // boundary condition: low bits all ones
			return i + 1
		}
	}
	return n
}
