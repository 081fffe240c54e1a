package blockstore

import (
	"os"
	"syscall"
)

// fdatasync makes f's bytes, and the length that reaches them, durable,
// without the journal commit an mtime alone would cost.
func fdatasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}

// flock takes an exclusive lock on f without waiting for it: held elsewhere,
// it fails with errLocked. The kernel drops it when f is closed or the
// process dies.
func flock(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		switch err {
		case nil:
			return nil
		case syscall.EWOULDBLOCK:
			return errLocked
		case syscall.EINTR:
			continue
		}
		return os.NewSyscallError("flock", err)
	}
}

// startWriteback asks the kernel to start writing f's bytes [off, off+n) to
// the device now instead of at the fsync: a hint, and no promise of
// durability — that is still the fsync's, which then finds little left to do.
func startWriteback(f *os.File, off, n int64) {
	const syncFileRangeWrite = 2
	syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite) //nolint:errcheck // a hint
}

// Map maps the file's first n bytes read-only and shared: no copy, and
// nothing read until a reader touches a page (no MAP_POPULATE, which read a
// whole section ahead of its use and cost more than it saved).
func (f osFile) Map(n int64) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, os.NewSyscallError("mmap", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
