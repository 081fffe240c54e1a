package chunk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chunker"
)

// gearBatch is one ingest job's worth of chunks: 64 chunks cut by the
// default Gear parameters from pseudorandom bytes, so the sizes are the
// ones the hash stage sees.
func gearBatch(tb testing.TB) [][]byte {
	src := make([]byte, 64*chunker.DefaultTarget*3)
	rand.New(rand.NewSource(7)).Read(src)
	st, err := chunker.NewGear(bytes.NewReader(src), chunker.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	var batch [][]byte
	for len(batch) < 64 {
		c, err := st.Next()
		if err != nil {
			tb.Fatal(err)
		}
		batch = append(batch, c)
	}
	return batch
}

func fixedBatch(size int) [][]byte {
	src := make([]byte, 64*size)
	rand.New(rand.NewSource(7)).Read(src)
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = src[i*size : (i+1)*size]
	}
	return batch
}

// BenchmarkOfEach compares the batch call with the crypto/sha256 loop it
// replaces, on 64-chunk batches of fixed sizes and of Gear-cut sizes.
func BenchmarkOfEach(b *testing.B) {
	batches := []struct {
		name  string
		batch [][]byte
	}{
		{"2KiB", fixedBatch(2 << 10)},
		{"8KiB", fixedBatch(8 << 10)},
		{"64KiB", fixedBatch(64 << 10)},
		{"gear", gearBatch(b)},
	}
	for _, bb := range batches {
		var n int64
		for _, d := range bb.batch {
			n += int64(len(d))
		}
		out := make([]Fingerprint, len(bb.batch))
		for _, path := range []string{"kernel", "stdlib"} {
			b.Run(fmt.Sprintf("%s/%s", bb.name, path), func(b *testing.B) {
				if path == "kernel" && !useKernel {
					b.Skip("no AVX-512 on this CPU")
				}
				if path == "stdlib" {
					forceFallback(b)
				}
				b.SetBytes(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					OfEach(bb.batch, out)
				}
			})
		}
	}
}
