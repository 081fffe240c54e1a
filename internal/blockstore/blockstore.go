// Package blockstore defines the physical storage-backend layer beneath the
// container log. The simulated disk (internal/disk) remains the *timing*
// model — every seek and transfer of the paper's Eq. 1 is still charged
// there — while a Backend owns the *bytes*: where sealed containers
// physically live, how durable they are, and how they fail.
//
// Two implementations ship with the repository:
//
//   - Sim keeps sealed containers in process memory, reproducing the
//     behaviour the engines always had (bit-identical stats and recipes —
//     pinned by TestSimBackendEquivalence in the repo root).
//   - File is a durable directory-backed store: one data file per sealed
//     container and a CRC-framed record log of the table (recordlog.go, the
//     catalog's format too), so a store can be closed (or killed) and
//     re-opened with its containers intact.
//
// An I/O error reaches the caller as it is: nothing here retries. Crash states
// are enumerated on the FS seam below File; a test that needs a torn section
// or a failed call wraps the Backend itself.
package blockstore

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/chunk"
)

// ChunkMeta describes one chunk stored in a container, as persisted by a
// backend. It mirrors the container package's metadata entry (the two convert
// field-for-field); it is redeclared here so the container log can depend on
// blockstore without a cycle.
type ChunkMeta struct {
	FP      chunk.Fingerprint
	Size    uint32
	Segment uint64
	Offset  int64 // absolute simulated-device offset of the chunk data
}

// ContainerInfo is the durable description of one sealed container: its
// placement on the simulated device plus its chunk metadata entries.
type ContainerInfo struct {
	ID       uint32
	Start    int64 // simulated-device offset of the metadata section
	DataFill int64 // bytes of chunk data in the data section
	End      int64 // device offset one past the container's extent
	Entries  []ChunkMeta
}

// Backend is the physical container store. All methods must be safe for
// concurrent use; implementations must not retain the data slice passed to
// Seal after returning.
//
// The slices ReadData and ReadDataRange return are read-only views: a backend
// may hand every caller the same sealed bytes (Sim does) or map the file they
// are in (File does), so a caller must never write into a fetched section —
// anything it wants to change it copies first. A section stays valid until
// its reader hands it to Release, which it must do once nothing reads it,
// and no later: a mapped section is unmapped then. Until then it stays valid
// after the container is dropped or the backend closed. A mapped section
// faults where its file has been cut short under it; readers touch one only
// inside Guard, which turns that fault into an error.
//
// A wrapper forwards the slices it is given, and Release still finds them. A
// wrapper that kept a section past its reader's Release (a cache) would keep
// an unmapped one: it copies instead.
//
// The write side has a twin that asks even less of a wrapper. The container
// store that was given the raw File (it alone: container.Store.StageTo, or
// built directly over one) hands it the fill of each open container in pieces
// as they gather — File.Stage, around every wrapper. Seal is still called once
// per container, through every wrapper, with the whole section, and that data
// is the only truth: File uses what was staged as a cache of data's head after
// proving it one (every piece arrived, data at least as long, same CRC32C),
// and otherwise writes data whole. So a wrapper may do to Seal's data what it
// likes — count it, hash it, cut it short (a lying disk's torn write), fail
// before forwarding or forward it twice, replace it — and forwards nothing for
// staging; Sim, a metadata-only store and Store.Export's copy stage nothing.
type Backend interface {
	// Name identifies the backend kind ("sim", "file", ...).
	Name() string
	// StoresData reports whether the backend retains data-section bytes
	// (content verification possible) or only their lengths.
	StoresData() bool
	// Seal durably persists one sealed container. data is the container's
	// data section (exactly info.DataFill bytes) or nil on metadata-only
	// stores. Sealing the same ID again overwrites.
	Seal(ctx context.Context, info ContainerInfo, data []byte) error
	// ReadData returns the data section bytes of a sealed container as a
	// read-only view, the caller's until Release (see above). Metadata-only
	// backends return a zero-filled slice of the recorded fill. A short
	// return signals a torn container (see Corrupt).
	ReadData(ctx context.Context, id uint32) ([]byte, error)
	// ReadDataRange reads the data sections of several containers, in input
	// order, each a read-only view like ReadData's. It is not one ranged
	// pass: both backends loop ReadData (ReadDataRangeNaive), and File maps
	// one container per call, so it saves no I/O over that loop. A coalesced
	// fetch (container.Store.Fetch) reaches a wrapper as one call. The method
	// stays on the interface only because the perf rig's metering wrapper
	// (bench/backend.go) forwards it to the backend it wraps.
	ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error)
	// List returns every sealed container's info, in ID order.
	List(ctx context.Context) ([]ContainerInfo, error)
	// Sync waits for the seals in flight and compacts durable metadata now
	// (File checkpoints its container log); a no-op for in-memory ones.
	Sync(ctx context.Context) error
	// Close syncs and releases the backend. The backend is unusable after.
	Close() error
}

// Quarantiner is implemented by backends that can move a damaged container
// out of the live set (fsck -repair). After Quarantine returns, the id is no
// longer listed and its data is preserved out-of-band for forensics.
type Quarantiner interface {
	Quarantine(ctx context.Context, id uint32, reason string) error
}

// Dropper is implemented by backends that can atomically remove a batch of
// containers whose live chunks were first copied elsewhere (container
// merge). Unlike Quarantine the bytes are reclaimed, not preserved. On
// durable backends the whole batch commits through one fdatasync'd merge
// record: either the drop never happened (every id still listed and
// readable) or it completes — by the call itself, or, when a crashed process
// left victim files behind, by the next open, which removes every data file
// the log does not name.
type Dropper interface {
	Drop(ctx context.Context, ids []uint32, reason string) error
}

// ErrCorrupt tags data-integrity failures (torn data sections, metadata that
// fails invariants). Reading again does not help; repair (quarantine) does.
var ErrCorrupt = errors.New("blockstore: corrupt container")

// Corruptf builds an ErrCorrupt-wrapping error.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

// ErrClosed is returned by operations on a closed backend.
var ErrClosed = errors.New("blockstore: backend closed")

// ErrNoQuarantine is returned when repair needs to quarantine a container
// but the backend cannot.
var ErrNoQuarantine = errors.New("blockstore: backend does not support quarantine")

// ErrNoDrop is returned when a container merge needs to reclaim containers
// but the backend cannot drop them atomically.
var ErrNoDrop = errors.New("blockstore: backend does not support drop")

// ReadDataRangeNaive implements ReadDataRange by looping ReadData — the
// correct (if uncoalesced) fallback shared by backend implementations. A read
// that fails releases the sections read before it.
func ReadDataRangeNaive(ctx context.Context, b Backend, ids []uint32) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		data, err := b.ReadData(ctx, id)
		if err != nil {
			for _, d := range out[:i] {
				Release(d)
			}
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// zeroView serves the reads of a metadata-only store: n zero bytes out of
// one shared buffer that is never written. It only ever grows; a slice handed
// out earlier keeps its old array.
type zeroView struct {
	mu  sync.Mutex
	buf []byte
}

func (z *zeroView) get(n int64) []byte {
	z.mu.Lock()
	defer z.mu.Unlock()
	if int64(len(z.buf)) < n {
		z.buf = make([]byte, n)
	}
	return z.buf[:n:n]
}
