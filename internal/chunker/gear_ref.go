package chunker

// cutpointRef is the straight-line reference form of the gear cut-point
// search: one byte, one mask test, no unrolling. The optimized gear.cut must
// return identical boundaries for every input; the property tests and
// the golden fixture in gear_ref_test.go enforce that, so any change to the
// production loop that shifts a single boundary fails loudly instead of
// silently changing every stored recipe.
func cutpointRef(data []byte, p Params, maskStrict, maskLoose uint64) int {
	n := len(data)
	normal := p.Target
	if normal > n {
		normal = n
	}
	i := p.Min
	warm := i - warmWindow
	if warm < 0 {
		warm = 0
	}
	var h uint64
	for j := warm; j < i; j++ {
		h = h<<1 + gearTable[data[j]]
	}
	for ; i < normal; i++ {
		h = h<<1 + gearTable[data[i]]
		if h&maskStrict == 0 {
			return i + 1
		}
	}
	for ; i < n; i++ {
		h = h<<1 + gearTable[data[i]]
		if h&maskLoose == 0 {
			return i + 1
		}
	}
	return n
}

// boundariesRef chunks data entirely in memory with cutpointRef, mirroring
// Stream's windowing exactly (Max-capped window, Min-or-less tail taken
// whole). It returns the exclusive end offset of every chunk.
func boundariesRef(data []byte, p Params) []int {
	strictBits, looseBits := normalizedBits(p.Target)
	maskStrict, maskLoose := maskForBits(strictBits), maskForBits(looseBits)
	var ends []int
	pos := 0
	for pos < len(data) {
		avail := len(data) - pos
		if avail <= p.Min {
			pos = len(data)
			ends = append(ends, pos)
			continue
		}
		window := data[pos : pos+min(avail, p.Max)]
		pos += cutpointRef(window, p, maskStrict, maskLoose)
		ends = append(ends, pos)
	}
	return ends
}
