//go:build !linux

package catalog

import "os"

func fdatasync(f *os.File) error { return f.Sync() }
