package chunker

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// benchNext drains an 8 MiB seeded random stream through mk once per
// iteration; with b.SetBytes the report reads as MB/s of raw chunking
// throughput for the Next hot loop.
func benchNext(b *testing.B, mk func(r io.Reader) (Chunker, error)) {
	rng := rand.New(rand.NewSource(99))
	data := make([]byte, 8<<20)
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mk(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGearNext(b *testing.B) {
	benchNext(b, func(r io.Reader) (Chunker, error) { return NewGear(r, DefaultParams()) })
}
