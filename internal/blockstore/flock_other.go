//go:build !linux

package blockstore

import "os"

func flock(*os.File) error { return nil }
