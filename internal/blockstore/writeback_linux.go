package blockstore

import (
	"os"
	"syscall"
)

// startWriteback asks the kernel to start writing f's bytes [off, off+n) to
// the device now instead of at the fsync: a hint, and no promise of
// durability — that is still the fsync's, which then finds little left to do.
func startWriteback(f *os.File, off, n int64) {
	const syncFileRangeWrite = 2
	syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite) //nolint:errcheck // a hint
}
