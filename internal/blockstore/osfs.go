package blockstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// OS is the operating system's file system. This file and its two platform
// halves are the only code in the store that calls os or syscall on a file.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int) (FSFile, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{File: f}, nil
}

func (osFS) CreateTemp(dir, pattern string) (FSFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()           //nolint:errcheck // surfacing the chmod error
		os.Remove(f.Name()) //nolint:errcheck // likewise
		return nil, err
	}
	return osFile{File: f, temp: true}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Stat(name string) (fs.FileInfo, error)     { return os.Stat(name) }

// SyncDir fsyncs a directory so renames and file creations within it are
// durable. A filesystem that refuses directory fsync outright (EINVAL,
// ENOTSUP) is tolerated — the rename itself already happened and there is
// nothing more to ask of it; any other failure (EIO above all) is returned,
// because the caller is about to report the entry as durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !dirSyncUnsupported(err) {
		return fmt.Errorf("fsync directory %s: %w", dir, err)
	}
	return nil
}

// dirSyncUnsupported classifies an fsync error as "this filesystem does not
// fsync directories" rather than "the fsync failed".
func dirSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

func (osFS) Lock(name string) (io.Closer, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flock(f); err != nil {
		f.Close() //nolint:errcheck // surfacing the lock error
		return nil, err
	}
	return f, nil
}

// writePiece bounds one write(2) into a temp file: a 3 MiB section in one
// call into a new file is 16 ms of system time here, in 512 KiB calls 1–3
// when pages are to be had.
const writePiece = 512 << 10

type osFile struct {
	*os.File
	temp bool // a new file, written once front to back before its rename
}

// WriteAt writes a temp file writePiece at a time and starts each piece's
// writeback at once, so that its fsync finds little left to do.
func (f osFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.temp {
		return f.File.WriteAt(p, off)
	}
	n := 0
	for n < len(p) {
		m, err := f.File.WriteAt(p[n:min(len(p), n+writePiece)], off+int64(n))
		if err != nil {
			return n + m, err
		}
		startWriteback(f.File, off+int64(n), int64(m))
		n += m
	}
	return n, nil
}

func (f osFile) Datasync() error { return fdatasync(f.File) }
