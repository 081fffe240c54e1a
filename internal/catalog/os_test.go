package catalog

import "repro/internal/blockstore"

// The package's tests keep their logs on the operating system's file system.

func Open(path string) (*Log, []Entry, error) { return OpenOn(blockstore.OS, path) }

func WriteCheckpoint(path string, entries []Entry) error {
	return WriteCheckpointOn(blockstore.OS, path, entries)
}
