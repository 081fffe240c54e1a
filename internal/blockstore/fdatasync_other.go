//go:build !linux

package blockstore

import "os"

func fdatasync(f *os.File) error { return f.Sync() }
