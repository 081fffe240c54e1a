package blockstore

import (
	"os"
	"syscall"
)

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
