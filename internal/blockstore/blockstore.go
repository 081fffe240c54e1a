// Package blockstore defines the physical storage-backend layer beneath the
// container log. The simulated disk (internal/disk) remains the *timing*
// model — every seek and transfer of the paper's Eq. 1 is still charged
// there — while a Backend owns the *bytes*: where sealed containers
// physically live, how durable they are, and how they fail.
//
// Three implementations ship with the repository:
//
//   - Sim keeps sealed containers in process memory, reproducing the
//     behaviour the engines always had (bit-identical stats and recipes —
//     pinned by TestSimBackendEquivalence in the repo root).
//   - File is a durable directory-backed store: one data file per sealed
//     container and a CRC-framed record log of the table (recordlog.go, the
//     catalog's format too), so a store can be closed (or killed) and
//     re-opened with its containers intact.
//   - Fault wraps any backend with deterministic, seed-controlled failure
//     injection (transient EIO, torn writes) for recovery testing.
//
// Backends compose: WithRetry(NewFault(inner, f)) gives a failure-prone
// store behind a bounded retry-with-backoff policy, which is exactly the
// stack the recovery tests run.
package blockstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

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
// The slices ReadData and ReadDataRange return are shared, read-only views:
// a backend may hand every caller the same sealed bytes (Sim does), so a
// caller must never write into a fetched section — anything it wants to
// change it copies first. The bytes stay valid for as long as the caller
// holds the slice, including after the container is dropped or the backend
// closed.
//
// One exception, and only for a reader that asks for it: a ctx built with
// WithLender offers the backend the reader's own buffers to read into. A
// backend that copies bytes anyway (File) takes one per section and returns
// exactly its prefix; the reader recognises its buffer in what comes back,
// is that section's exclusive holder, and the section is valid until the
// holder hands the buffer back to its own set — nobody else ever sees it. A
// shared view (Sim's sealed sections, a metadata-only store's zeros) is
// never a lent buffer, so it is never handed back and stays garbage-collected
// as above.
//
// A loan may be ranged: with the buffer the lender names the byte ranges of
// the section its holder will look at, and the section comes back packed —
// those ranges back to back, in order, as the first Σ Len bytes of the buffer,
// and nothing else. A packed section is shorter than the container's fill and
// is not the section at its offsets: only its holder, who knows the ranges, can
// read it, so a wrapper must not hash, compare or copy-and-share what it
// forwards. A section that is not in a lent buffer is always whole.
//
// The ctx and the returned slices are all a wrapper has to forward for this
// to work; a wrapper that keeps or shares the slices it returns (a cache)
// must strip the lender — WithLender(ctx, nil) — before calling inward,
// because a lent buffer is overwritten once its holder is done and may hold a
// packed section, never the whole one.
//
// The write side has a twin that asks even less of a wrapper. The container
// store that was given the raw File (it alone: container.Store.StageTo, or
// built directly over one) hands it the fill of each open container in pieces
// as they gather — File.Stage, around every wrapper. Seal is still called once
// per container, through every wrapper, with the whole section, and that data
// is the only truth: File uses what was staged as a cache of data's head after
// proving it one (every piece arrived, data at least as long, same CRC32C),
// and otherwise writes data whole. So a wrapper may do to Seal's data what it
// likes — count it, hash it, cut it short (Fault's torn write), fail before
// forwarding and forward on a retry, replace it — and forwards nothing for
// staging; Sim, a metadata-only store and Store.Export's copy stage nothing.
type Backend interface {
	// Name identifies the backend kind ("sim", "file", ...).
	Name() string
	// StoresData reports whether the backend retains data-section bytes
	// (content verification possible) or only their lengths.
	StoresData() bool
	// Seal durably persists one sealed container. data is the container's
	// data section (exactly info.DataFill bytes) or nil on metadata-only
	// stores. Sealing the same ID again overwrites (retry after a partial
	// failure re-seals the full container).
	Seal(ctx context.Context, info ContainerInfo, data []byte) error
	// ReadData returns the data section bytes of a sealed container as a
	// read-only view (see above). Metadata-only backends return a zero-filled
	// slice of the recorded fill. A short return signals a torn container
	// (see Corrupt).
	ReadData(ctx context.Context, id uint32) ([]byte, error)
	// ReadDataRange reads the data sections of several containers in one
	// ranged pass, in input order, each a read-only view like ReadData's. It
	// is the coalesced-read primitive: the caller guarantees the ids are
	// adjacent on the simulated device, and a fault-injecting backend treats
	// the whole range as a single operation.
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

// transientErr marks an error as transient: the operation may succeed if
// retried (see WithRetry).
type transientErr struct{ err error }

func (e *transientErr) Error() string { return "transient: " + e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// Transient wraps err as a transient (retryable) backend error.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err is marked transient anywhere in its chain.
func IsTransient(err error) bool {
	var t *transientErr
	return errors.As(err, &t)
}

// ErrCorrupt tags data-integrity failures (torn data sections, metadata that
// fails invariants). Corruption is never transient: retries do not help,
// repair (quarantine) does.
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
// correct (if uncoalesced) fallback shared by backend implementations.
func ReadDataRangeNaive(ctx context.Context, b Backend, ids []uint32) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		data, err := b.ReadData(ctx, id)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// Range is a byte range of one container's data section.
type Range struct{ Off, Len int64 }

// Lender hands out a buffer for the n-byte data section of container id to be
// read into, or nil when it has none to spare (the backend then allocates and
// reads the whole section, as it would without a lender). With the buffer it
// may name the ranges of the section it will look at — sorted, disjoint,
// inside [0, n) — and the buffer need hold only their sum, which is what comes
// back (packed, see Backend); nil ranges ask for the whole section. A buffer
// too short for its loan is a refused loan. See Backend for who may lend and
// what lending means for the section's lifetime.
type Lender func(id uint32, n int64) (buf []byte, want []Range)

type lenderKey struct{}

// WithLender returns a ctx whose reads may fill buffers lent by l. A nil l
// strips any lender the ctx carried.
func WithLender(ctx context.Context, l Lender) context.Context {
	return context.WithValue(ctx, lenderKey{}, l)
}

// LenderFrom returns the lender ctx carries, or nil. A backend that copies
// sections asks it; a wrapper that wants to watch the loans go by wraps it and
// passes the wrapped one inward with WithLender.
func LenderFrom(ctx context.Context) Lender {
	l, _ := ctx.Value(lenderKey{}).(Lender)
	return l
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

// WriteFileAtomic writes data to path crash-safely: into a temp file in the
// same directory, fsync'd, then atomically renamed over path, then the
// directory entry is fsync'd. A crash at any point leaves either the old
// file or the new one, never a torn mix — and, before the rename, a temp file
// that OpenFile sweeps when the store is next opened.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	a, err := createAtomic(path)
	if err != nil {
		return err
	}
	if err := a.write(0, data); err != nil {
		a.abort()
		return err
	}
	return a.commit(path, perm)
}

// writePiece bounds one write(2): a 3 MiB section in one call into a new file
// is 16 ms of system time here, in 512 KiB calls 1–3 when pages are to be had.
const writePiece = 512 << 10

// atomicFile is WriteFileAtomic in steps, for a writer that gets its bytes in
// pieces (File.Stage): the open temp file, until commit or abort ends it.
type atomicFile struct{ f *os.File }

func createAtomic(path string) (atomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	return atomicFile{f}, err
}

// write appends p, which begins at byte off of the file.
func (a atomicFile) write(off int64, p []byte) error {
	for len(p) > 0 {
		n, err := a.f.Write(p[:min(len(p), writePiece)])
		if err != nil {
			return err
		}
		startWriteback(a.f, off, int64(n))
		off, p = off+int64(n), p[n:]
	}
	return nil
}

// commit makes what was written the durable content of path.
func (a atomicFile) commit(path string, perm os.FileMode) error {
	err := a.f.Chmod(perm)
	if err == nil {
		err = a.f.Sync()
	}
	if err != nil {
		a.abort()
		return err
	}
	if err = a.f.Close(); err == nil {
		err = os.Rename(a.f.Name(), path)
	}
	if err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return SyncDir(filepath.Dir(path))
}

func (a atomicFile) abort() {
	a.f.Close()
	os.Remove(a.f.Name())
}

// SyncDir fsyncs a directory so renames and file creations within it are
// durable. A filesystem that refuses directory fsync outright (EINVAL,
// ENOTSUP) is tolerated — the rename itself already happened and there is
// nothing more to ask of it; any other failure (EIO above all) is returned,
// because the caller is about to report the entry as durable.
func SyncDir(dir string) error {
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
