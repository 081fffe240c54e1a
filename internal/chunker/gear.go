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

// Cutter is a FastCDC-style content-defined chunker: a gear hash
// (h = h<<1 + table[byte]) with normalized chunking — a stricter boundary
// mask before the target size and a looser one after, which tightens the
// chunk-size distribution around Target without sacrificing shift tolerance.
//
// The production cut-point loop is the branch-reduced form (min-size
// skip-ahead, per-phase sub-slicing, an 8-way unroll free of bounds checks);
// cutpointRef in gear_ref.go keeps the straight-line reference the property
// tests compare it against byte for byte.
type Cutter struct {
	p          Params
	maskStrict uint64 // used before Target: ~4x fewer boundaries
	maskLoose  uint64 // used after Target: ~4x more boundaries
}

// NewCutter returns the cutter of p, which must validate.
func NewCutter(p Params) (*Cutter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strictBits, looseBits := normalizedBits(p.Target)
	return &Cutter{p: p, maskStrict: maskForBits(strictBits), maskLoose: maskForBits(looseBits)}, nil
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

// Cut returns the length of the first chunk of data: at least 1 and at most
// p.Max. The caller passes either p.Max or more bytes, of which only the first
// p.Max are looked at, or all that is left of the stream; never none. It is
// the hot loop of the ingest path; boundaries are pinned bit-identical to
// cutpointRef by TestGearCutpointMatchesReference and the golden fixture.
//
// A chunk other than a stream's last depends on its own bytes alone: Cut
// returns the first point past Min where the hash of the warmWindow bytes
// before it meets the mask, or Max, and looks at no byte past that point.
// So bytes equal to a chunk once cut with Max bytes in view are cut to the
// same length again wherever they recur, which is what lets ingest skip the
// search for a chunk it has seen before (see engine.Pipeline).
func (g *Cutter) Cut(data []byte) int {
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

// KeyLen is how many bytes before a point its Key hashes: the gear hash's
// window.
const KeyLen = warmWindow

// Key returns the gear hash of the KeyLen bytes of data before at (of all of
// them when there are fewer). At the end of a chunk of KeyLen bytes or more
// it is the hash Cut tested there.
func Key(data []byte, at int) uint64 {
	var h uint64
	for _, b := range data[max(at-KeyLen, 0):at] {
		h = h<<1 + gearTable[b]
	}
	return h
}

// Ends reports whether Cut could end a chunk of n bytes, other than a
// stream's last, at a point whose Key is key: n is Max, or past Min and the
// key meets the mask of n's phase. For a chunk shorter than KeyLen bytes the
// key also covers bytes before it, which Cut did not hash, and the answer is
// a guess.
func (g *Cutter) Ends(key uint64, n int) bool {
	switch {
	case n == g.p.Max:
		return true
	case n <= g.p.Min || n > g.p.Max:
		return false
	case n <= g.p.Target:
		return key&g.maskStrict == 0
	default:
		return key&g.maskLoose == 0
	}
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
