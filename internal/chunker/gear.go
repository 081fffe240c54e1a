package chunker

// gearTable is the 256-entry random table driving the gear rolling hash.
// Entries are fixed (generated once from a splitmix64 sequence, seed 1) so
// chunk boundaries are stable across runs and machines.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	// splitmix64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// warmWindow is the effective window of the gear hash: h = h<<1 + t[b]
// shifts a byte's contribution out after 64 steps, so warming 64 bytes
// before the minimum-size point makes boundaries independent of where Min
// falls (the localized-boundary property the tests pin).
const warmWindow = 64

// gear is a FastCDC-style content-defined chunker: a gear hash
// (h = h<<1 + table[byte]) with normalized chunking — a stricter boundary
// mask before the target size and a looser one after, which tightens the
// chunk-size distribution around Target without sacrificing shift tolerance.
//
// The production cut-point loop is the branch-reduced form (min-size
// skip-ahead, per-phase sub-slicing, an 8-way unroll free of bounds checks);
// cutpointRef in gear_ref.go keeps the straight-line reference the property
// tests compare it against byte for byte.
type gear struct {
	p          Params
	maskStrict uint64 // used before Target: ~4x fewer boundaries
	maskLoose  uint64 // used after Target: ~4x more boundaries
}

func newGear(p Params) (*gear, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strictBits, looseBits := normalizedBits(p.Target)
	return &gear{p: p, maskStrict: maskForBits(strictBits), maskLoose: maskForBits(looseBits)}, nil
}

// normalizedBits derives the two FastCDC normalization mask widths from the
// target size: 2 extra bits below target, 2 fewer above.
func normalizedBits(target int) (strict, loose uint) {
	bits := uint(0)
	for s := target; s > 1; s >>= 1 {
		bits++
	}
	strict, loose = bits+2, bits-2
	if loose < 1 {
		loose = 1
	}
	if strict > 63 {
		strict = 63
	}
	return strict, loose
}

// maskForBits builds the top-aligned boundary mask of the given width.
func maskForBits(bits uint) uint64 {
	return (uint64(1)<<bits - 1) << (64 - bits)
}

// cut returns the length of the first chunk of data: at least 1 and at most
// p.Max. The caller passes either p.Max or more bytes, of which only the first
// p.Max are looked at, or all that is left of the stream; never none. It is
// the hot loop of the ingest path; boundaries are pinned bit-identical to
// cutpointRef by TestGearCutpointMatchesReference and the golden fixture.
func (g *gear) cut(data []byte) int {
	if len(data) <= g.p.Min {
		return len(data)
	}
	if len(data) > g.p.Max {
		data = data[:g.p.Max]
	}
	n := len(data)
	normal := g.p.Target
	if normal > n {
		normal = n
	}
	// Min-size skip-ahead (FastCDC): no boundary may land before Min, so no
	// byte before Min-warmWindow contributes to any boundary decision — jump
	// straight there and only warm the hash over the trailing window.
	i := g.p.Min
	warm := i - warmWindow
	if warm < 0 {
		warm = 0
	}
	var h uint64
	for _, b := range data[warm:i] {
		h = h<<1 + gearTable[b]
	}
	// Phase 1: below target — strict mask; phase 2: past it — loose mask.
	cut, h := scanMask(data[:normal], i, h, g.maskStrict)
	if cut == 0 {
		cut, _ = scanMask(data, normal, h, g.maskLoose)
	}
	if cut == 0 {
		return n
	}
	return cut
}

// scanMask rolls the gear hash h over d[i:], returning the first position
// (exclusive) where the hash lands on mask, or 0 and the hash at the end of d
// for the caller to chain the next phase from.
//
// Four instructions a byte (load it, load its table entry, shift-add, test),
// unrolled eight times over a slice that is advanced eight bytes at a go:
// indexing p[0..7] under len(p) >= 8 needs no bounds check, where indexing
// d[i+k] cost a compare and branch for every byte. Evaluation is byte at a
// time, so the cut point is that of the straight loop. Ingest runs with every
// CPU busy, and there the instructions issued per byte are what this loop
// costs, not the latency of its shift-add chain: a form that halves the chain
// by rolling two bytes per step (h<<2 + (t[a]<<1 + t[b])) scans 1.3x faster on
// an otherwise idle host and 0.85x as fast beside a busy sibling thread, and
// lost 8 % of ingest_wall_mbps on fulls-mem (EXPERIMENTS.md, PR 14).
func scanMask(d []byte, i int, h uint64, mask uint64) (int, uint64) {
	t := &gearTable
	p := d[i:]
	for len(p) >= 8 {
		h = h<<1 + t[p[0]]
		if h&mask == 0 {
			return len(d) - len(p) + 1, h
		}
		h = h<<1 + t[p[1]]
		if h&mask == 0 {
			return len(d) - len(p) + 2, h
		}
		h = h<<1 + t[p[2]]
		if h&mask == 0 {
			return len(d) - len(p) + 3, h
		}
		h = h<<1 + t[p[3]]
		if h&mask == 0 {
			return len(d) - len(p) + 4, h
		}
		h = h<<1 + t[p[4]]
		if h&mask == 0 {
			return len(d) - len(p) + 5, h
		}
		h = h<<1 + t[p[5]]
		if h&mask == 0 {
			return len(d) - len(p) + 6, h
		}
		h = h<<1 + t[p[6]]
		if h&mask == 0 {
			return len(d) - len(p) + 7, h
		}
		h = h<<1 + t[p[7]]
		if h&mask == 0 {
			return len(d) - len(p) + 8, h
		}
		p = p[8:]
	}
	for j, b := range p {
		h = h<<1 + t[b]
		if h&mask == 0 {
			return len(d) - len(p) + j + 1, h
		}
	}
	return 0, h
}
