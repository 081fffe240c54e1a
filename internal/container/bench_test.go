package container

import (
	"context"
	"testing"

	"repro/internal/chunk"
	"repro/internal/disk"
)

// benchSealed builds a store with n sealed single-chunk containers of
// roughly size data bytes each.
func benchSealed(b *testing.B, n, size int) *Store {
	var clk disk.Clock
	s, err := NewStore(disk.NewDevice(disk.DefaultModel(), &clk, true),
		Config{DataCap: int64(size), MaxChunks: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := make([]byte, size)
		for j := range d {
			d[j] = byte(i*17 + j)
		}
		mustWrite(s, chunk.New(d), uint64(i))
		if err := s.SerialWriter().Finish(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkContainerReadRange measures adjacent-run data fetches — the
// physical read unit of the coalesced restore path.
func BenchmarkContainerReadRange(b *testing.B) {
	const n, size = 16, 64 << 10
	ids := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	s := benchSealed(b, n, size)
	ctx := context.Background()
	var total int64
	for _, id := range ids {
		total += s.DataFill(id)
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadDataRange(ctx, ids); err != nil {
			b.Fatal(err)
		}
	}
}
