//go:build !linux

package blockstore

import "os"

func startWriteback(*os.File, int64, int64) {}
