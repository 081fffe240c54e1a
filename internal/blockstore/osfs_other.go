//go:build !linux

package blockstore

import "os"

func fdatasync(f *os.File) error            { return f.Sync() }
func flock(*os.File) error                  { return nil }
func startWriteback(*os.File, int64, int64) {}
