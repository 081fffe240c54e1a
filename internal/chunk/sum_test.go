package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

// eachPath runs f once on the multi-buffer kernel and once on the forced
// crypto/sha256 loop. Where the CPU lacks AVX-512 the kernel half is skipped
// and says so.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Run("kernel", func(t *testing.T) {
		if !useKernel {
			t.Skip("this CPU has no AVX-512F/BW: only the crypto/sha256 loop runs")
		}
		f(t)
	})
	t.Run("fallback", func(t *testing.T) {
		forceFallback(t)
		f(t)
	})
}

// forceFallback makes OfEach take its crypto/sha256 loop until tb ends.
func forceFallback(tb testing.TB) {
	was := useKernel
	useKernel = false
	tb.Cleanup(func() { useKernel = was })
}

// checkEach runs OfEach over data and compares every result with
// crypto/sha256.
func checkEach(t *testing.T, data [][]byte) {
	t.Helper()
	out := make([]Fingerprint, len(data)+1)
	sentinel := Fingerprint{0xAA}
	out[len(data)] = sentinel
	OfEach(data, out)
	for i, d := range data {
		if want := Fingerprint(sha256.Sum256(d)); out[i] != want {
			t.Fatalf("message %d of %d (%d bytes): got %s, want %s", i, len(data), len(d), out[i].Short(), want.Short())
		}
	}
	if out[len(data)] != sentinel {
		t.Fatal("OfEach wrote past len(data)")
	}
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestOfEachEveryLength covers every padding case (lengths 0–300, so the
// tail is one block or two on both sides of 55/56 and of every block
// boundary) and the chunk sizes around the chunker's minimum, target and
// maximum. Each batch holds one length many times at different offsets, so
// all sixteen lanes run it, then one batch holds all the lengths at once.
func TestOfEachEveryLength(t *testing.T) {
	src := randomBytes(1, 3<<17)
	var lengths []int
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, c := range []int{2 << 10, 8 << 10, 64 << 10} {
		for n := c - 64; n <= c+64; n++ {
			lengths = append(lengths, n)
		}
	}
	eachPath(t, func(t *testing.T) {
		var all [][]byte
		for k, n := range lengths {
			batch := make([][]byte, 2*laneCount+1)
			for i := range batch {
				off := (k*7 + i*131) % (len(src) - n)
				batch[i] = src[off : off+n]
			}
			checkEach(t, batch)
			all = append(all, batch[0])
		}
		checkEach(t, all)
	})
}

// TestOfEachBatches covers batch sizes 1–70 (below, at and past the handoff
// and lane counts, and several lane refills) with mixed lengths, sub-slices
// at every alignment, empty messages and views that alias one another.
func TestOfEachBatches(t *testing.T) {
	src := randomBytes(2, 1<<20)
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for n := 1; n <= 70; n++ {
			batch := make([][]byte, n)
			for i := range batch {
				var size int
				switch rng.Intn(4) {
				case 0:
					size = rng.Intn(130)
				case 1:
					size = rng.Intn(3 << 10)
				case 2:
					size = 2<<10 + rng.Intn(14<<10)
				default:
					size = rng.Intn(64 << 10)
				}
				off := rng.Intn(len(src) - size)
				batch[i] = src[off : off+size]
			}
			if n > 2 {
				batch[1] = batch[0]     // the same view twice
				batch[2] = batch[0][1:] // overlapping, one byte off
				batch[n-1] = src[5:5:5] // empty
			}
			checkEach(t, batch)
		}
	})
}

// TestOfEachUnevenLanes: one long message among many short ones keeps one
// lane busy long after the others have drained, so the batch ends with a
// handoff of a lane deep in its message; a batch whose last messages need
// two tail blocks ends with lanes part-way through their tails.
func TestOfEachUnevenLanes(t *testing.T) {
	src := randomBytes(4, 1<<20)
	eachPath(t, func(t *testing.T) {
		for long := 0; long < 3*laneCount; long += 5 {
			batch := make([][]byte, 3*laneCount)
			for i := range batch {
				batch[i] = src[i : i+100]
			}
			batch[long] = src[long : long+200<<10]
			checkEach(t, batch)
		}
		for tail := 56; tail < 64; tail++ {
			batch := make([][]byte, 40)
			for i := range batch {
				batch[i] = src[i : i+64*(i%5)+tail]
			}
			checkEach(t, batch)
		}
	})
}

// TestOfEachShorterOut: out may be longer than data; a shorter out panics.
func TestOfEachShorterOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OfEach with len(out) < len(data) did not panic")
		}
	}()
	OfEach(make([][]byte, 3), make([]Fingerprint, 2))
}

// TestOfEachAllocatesNothing: the kernel's lanes live on the stack and the
// handoff's crypto/sha256 states are pooled.
func TestOfEachAllocatesNothing(t *testing.T) {
	src := randomBytes(5, 1<<20)
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = src[i*1000 : i*1000+2000+i*97]
	}
	out := make([]Fingerprint, len(batch))
	OfEach(batch, out)
	if n := testing.AllocsPerRun(20, func() { OfEach(batch, out) }); n > 0 {
		t.Fatalf("OfEach allocated %.1f times per batch", n)
	}
}

// FuzzOfEach: the fuzzer picks the message lengths (two bytes each) and the
// bytes they are cut from; every path must agree with crypto/sha256.
func FuzzOfEach(f *testing.F) {
	f.Add([]byte{0, 1, 0, 55, 0, 56, 0, 64, 1, 0, 0, 119, 0, 120, 0, 0, 0, 63}, []byte("seed"))
	f.Add(make([]byte, 40), randomBytes(6, 5000))
	f.Fuzz(func(t *testing.T, lengths, content []byte) {
		if len(content) == 0 {
			content = []byte{0}
		}
		var batch [][]byte
		for i := 0; i+1 < len(lengths) && len(batch) < 80; i += 2 {
			n := int(binary.BigEndian.Uint16(lengths[i:])) % 4096
			off := (i * 31) % len(content)
			msg := make([]byte, n)
			for k := range msg {
				msg[k] = content[(off+k)%len(content)]
			}
			batch = append(batch, msg)
		}
		eachPath(t, func(t *testing.T) { checkEach(t, batch) })
	})
}
