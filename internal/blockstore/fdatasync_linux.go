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
