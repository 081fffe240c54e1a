package chunk

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"slices"
	"sync"
)

// The sixteen-lane kernel needs AVX-512F and AVX-512BW, and the OS must save
// the ZMM and opmask registers across context switches.
var useKernel = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XMM, YMM, opmask, ZMM0-15 upper halves, ZMM16-31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512bw = 1 << 16, 1 << 30
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512bw != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

//go:noescape
func blocks16(l *lanes, n int)

const (
	blockSize = 64

	// maxCallBlocks bounds one kernel call (≈ 13 µs at 2.5 GB/s) so that no
	// assembly call holds off preemption for long.
	maxCallBlocks = 32

	// maxOrdered bounds the messages sumLanes orders at once, and so its
	// stack.
	maxOrdered = 512
)

// lanes is the kernel's state; blocks16 addresses it by fixed offsets.
type lanes struct {
	h    [8][laneCount]uint32 // chaining values, word-major: h[w][lane]
	save [8][laneCount]uint32 // the kernel's copy of h at a block's start
	p    [laneCount]*byte     // each lane's next block
	tail [laneCount][2 * blockSize]byte
}

// lane is the Go side's view of one lane's message: its whole blocks from
// data, then its padded tail from lanes.tail.
type lane struct {
	msg  int    // index into the batch, -1 when idle
	data []byte // the message
	done int    // bytes of data hashed
	pad  int    // bytes of the padded tail hashed, -1 before the tail
	tail int    // length of the padded tail: one block or two
}

// blocks returns how many blocks the lane has left before its next segment
// boundary.
func (c *lane) blocks() int {
	if c.pad < 0 {
		return (len(c.data)&^(blockSize-1) - c.done) / blockSize
	}
	return (c.tail - c.pad) / blockSize
}

var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// resumer is a crypto/sha256 state that takes a lane over at the end of a
// batch, and the binary form its chaining value is loaded through.
type resumer struct {
	h     hash.Hash
	state [4 + 32 + blockSize + 8]byte
}

var resumers = sync.Pool{New: func() any { return &resumer{h: sha256.New()} }}

// sumLanes fingerprints data into out on the sixteen-lane kernel. Each lane
// hashes one message block by block and, when the message ends, takes the
// next one; the kernel returns whenever some lane reaches the end of a
// segment (its message's whole blocks, or the padded tail after them).
//
// Messages start longest first, so the lanes run dry together and what is
// left for the handoff is short: +6 % bytes/s over batch order on 64 Gear-cut
// chunks (BenchmarkOfEach/gear, one core of a 2-vCPU AVX-512 Xeon). A batch
// longer than maxOrdered goes maxOrdered messages at a time.
func sumLanes(data [][]byte, out []Fingerprint) {
	for len(data) > maxOrdered {
		sumLanes(data[:maxOrdered], out[:maxOrdered])
		data, out = data[maxOrdered:], out[maxOrdered:]
	}
	var (
		l      lanes
		ln     [laneCount]lane
		next   int // how many messages have started
		active int // lanes holding a message
		buf    [maxOrdered]uint16
	)
	order := buf[:len(data)]
	for i := range order {
		order[i] = uint16(i)
	}
	slices.SortFunc(order, func(a, b uint16) int { return len(data[b]) - len(data[a]) })
	for i := range ln {
		ln[i].msg = -1
	}
	for {
		// Start a message on every idle lane, and pad every lane whose
		// whole blocks are done.
		for i := range ln {
			c := &ln[i]
			if c.msg < 0 && next < len(data) {
				m := int(order[next])
				*c = lane{msg: m, data: data[m], pad: -1}
				next++
				active++
				for w := range iv {
					l.h[w][i] = iv[w]
				}
			}
			if c.msg >= 0 && c.pad < 0 && c.blocks() == 0 {
				c.pad, c.tail = 0, padTail(&l.tail[i], c.data[c.done:], len(c.data))
			}
		}
		if active == 0 {
			return
		}
		if next == len(data) && active <= handoffLanes && !midTail(&ln) {
			handOff(&l, &ln, out)
			return
		}
		n, busy := maxCallBlocks, -1
		for i := range ln {
			if ln[i].msg >= 0 {
				n, busy = min(n, ln[i].blocks()), i
			}
		}
		for i := range ln {
			// An idle lane reruns a busy lane's blocks; its result is
			// never read.
			j := i
			if ln[i].msg < 0 {
				j = busy
			}
			if c := &ln[j]; c.pad < 0 {
				l.p[i] = &c.data[c.done]
			} else {
				l.p[i] = &l.tail[j][c.pad]
			}
		}
		blocks16(&l, n)
		for i := range ln {
			c := &ln[i]
			switch {
			case c.msg < 0:
			case c.pad < 0:
				c.done += n * blockSize
			case c.pad+n*blockSize < c.tail:
				c.pad += n * blockSize
			default:
				for w := range iv {
					binary.BigEndian.PutUint32(out[c.msg][4*w:], l.h[w][i])
				}
				c.msg = -1
				active--
			}
		}
	}
}

// padTail writes a message's padded tail: the bytes after its last whole
// block, 0x80, zeros and the message's length in bits, one block or two. It
// returns the tail's length.
func padTail(tail *[2 * blockSize]byte, rest []byte, size int) int {
	r := copy(tail[:], rest)
	tail[r] = 0x80
	n := blockSize
	if r >= blockSize-8 {
		n = 2 * blockSize
	}
	clear(tail[r+1 : n-8])
	binary.BigEndian.PutUint64(tail[n-8:], uint64(size)*8)
	return n
}

// midTail reports whether a lane has run the first of its two tail blocks:
// that state exists only in the lanes, so such a lane cannot be handed off.
func midTail(ln *[laneCount]lane) bool {
	for i := range ln {
		if ln[i].msg >= 0 && ln[i].pad > 0 {
			return true
		}
	}
	return false
}

// handOff finishes every busy lane on crypto/sha256, resumed from the lane's
// chaining value through the hash's binary state (magic, the eight words,
// an empty block buffer, the byte count).
func handOff(l *lanes, ln *[laneCount]lane, out []Fingerprint) {
	r := resumers.Get().(*resumer)
	defer resumers.Put(r)
	h, state := r.h, r.state[:]
	copy(state, "sha\x03")
	for i := range ln {
		c := &ln[i]
		if c.msg < 0 {
			continue
		}
		for w := range iv {
			binary.BigEndian.PutUint32(state[4+4*w:], l.h[w][i])
		}
		binary.BigEndian.PutUint64(state[4+32+blockSize:], uint64(c.done))
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
			panic("chunk: resuming SHA-256: " + err.Error())
		}
		h.Write(c.data[c.done:])
		h.Sum(out[c.msg][:0])
	}
}
