//go:build !linux

package blockstore

import (
	"io"
	"os"
)

func fdatasync(f *os.File) error            { return f.Sync() }
func flock(*os.File) error                  { return nil }
func startWriteback(*os.File, int64, int64) {}

// Map reads the file's first n bytes into a buffer of their own, as a plain
// read does: a short file is io.ErrUnexpectedEOF.
func (f osFile) Map(n int64) ([]byte, func() error, error) {
	data := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, n), data); err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}
