package blockstore

import (
	"io"
	"io/fs"
	"path/filepath"
)

// FS is the file system a store directory lives on: the one way the file
// backend, both record logs and the store's directory checks reach the disk.
// OS is the operating system's. A test hands the store another, one that
// records every operation and rebuilds each state a crash could leave.
//
// What an FS promises is what POSIX does, and no more: a file's bytes, and
// the length that reaches them, are durable once its Sync or Datasync has
// returned; a directory entry — a file created, renamed in or removed — once
// SyncDir of its directory has.
type FS interface {
	OpenFile(name string, flag int) (FSFile, error) // os.OpenFile; a file it creates is mode 0644
	CreateTemp(dir, pattern string) (FSFile, error) // os.CreateTemp, mode 0644
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(dir string) ([]fs.DirEntry, error) // sorted by name
	MkdirAll(dir string) error                 // mode 0755
	Stat(name string) (fs.FileInfo, error)
	SyncDir(dir string) error // makes dir's entries durable
	// Lock creates name if need be and locks it, exclusively and at once: one
	// held elsewhere fails with errLocked. Close, or death, releases it.
	Lock(name string) (io.Closer, error)
}

// FSFile is a file an FS opened.
type FSFile interface {
	io.ReaderAt
	io.WriterAt
	Name() string
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Sync() error     // the file's bytes and metadata
	Datasync() error // its bytes and the length that reaches them
	Close() error
	// Map returns the file's first n bytes, read-only, and unmap, which lets
	// go of them; they stay readable after Close, until unmap. OS maps the
	// file on Linux: the bytes are its page cache, and a page the file no
	// longer reaches faults when it is read (see Guard). A nil unmap means
	// the bytes are a plain read's copy, the collector's.
	Map(n int64) (data []byte, unmap func() error, err error)
}

// WriteFileAtomic writes data to path crash-safely: into a temp file in the
// same directory, fsync'd, then atomically renamed over path, then the
// directory entry is fsync'd. A crash at any point leaves either the old
// file or the new one, never a torn mix — and, before the rename, a temp file
// that OpenFile sweeps when the store is next opened.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	_, err := writeAtomic(fsys, path, data)
	return err
}

// writeAtomic is WriteFileAtomic, reporting whether the rename happened.
func writeAtomic(fsys FS, path string, data []byte) (renamed bool, err error) {
	a, err := createAtomic(fsys, path)
	if err != nil {
		return false, err
	}
	if err := a.write(0, data); err != nil {
		a.abort()
		return false, err
	}
	return a.commit(path)
}

// atomicFile is WriteFileAtomic in steps, for a writer that gets its bytes in
// pieces (File.Stage): the open temp file, until commit or abort ends it.
type atomicFile struct {
	fsys FS
	f    FSFile
}

func createAtomic(fsys FS, path string) (atomicFile, error) {
	f, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	return atomicFile{fsys, f}, err
}

// write puts p at byte off of the file.
func (a atomicFile) write(off int64, p []byte) error {
	_, err := a.f.WriteAt(p, off)
	return err
}

// commit makes what was written the durable content of path: fsync, close,
// rename, directory fsync. It reports whether the rename happened: from then
// on path names the new file, even if the directory fsync failed.
func (a atomicFile) commit(path string) (renamed bool, err error) {
	if err = a.f.Sync(); err != nil {
		a.abort()
		return false, err
	}
	if err = a.f.Close(); err == nil {
		err = a.fsys.Rename(a.f.Name(), path)
	}
	if err != nil {
		a.fsys.Remove(a.f.Name()) //nolint:errcheck // a temp file left behind is swept at the next open
		return false, err
	}
	return true, a.fsys.SyncDir(filepath.Dir(path))
}

func (a atomicFile) abort() {
	a.f.Close()               //nolint:errcheck // the file is being thrown away
	a.fsys.Remove(a.f.Name()) //nolint:errcheck // a temp file left behind is swept at the next open
}
