// Package chunk defines the fundamental data types shared by every layer of
// the deduplication system: chunk fingerprints, chunk descriptors, physical
// locations, and stream recipes.
//
// A chunk is the unit of deduplication: a contiguous byte run produced by a
// chunker (see internal/chunker) and identified by the SHA-256 of its
// content. A recipe is the ordered list of chunk references that
// reconstitutes one logical stream (one backup generation).
package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// FingerprintSize is the byte length of a chunk fingerprint (SHA-256).
const FingerprintSize = 32

// Fingerprint is the content address of a chunk: the SHA-256 digest of its
// bytes. It is a value type usable as a map key.
type Fingerprint [FingerprintSize]byte

// Fingerprint computes the fingerprint of data.
func Of(data []byte) Fingerprint {
	return Fingerprint(sha256.Sum256(data))
}

const (
	// laneCount is how many messages the multi-buffer kernel hashes at once.
	laneCount = 16

	// handoffLanes: once no message is left to start and this few lanes
	// are still busy, the kernel costs more per byte than crypto/sha256
	// alone, so each lane's rest goes to crypto/sha256. A batch this small
	// never starts the kernel.
	handoffLanes = laneCount / 2
)

// OfEach computes the fingerprint of every data[i] into out[i]; out must be
// at least as long as data. The result is Of's, byte for byte. On amd64 with
// AVX-512 it hashes sixteen messages at a time: twice the bytes/s of a loop
// over Of (SHA-NI) on a 2-vCPU Xeon, one core busy or both. Elsewhere, and
// for small batches, it is that loop. It allocates nothing.
func OfEach(data [][]byte, out []Fingerprint) {
	out = out[:len(data)]
	if useKernel && len(data) > handoffLanes {
		sumLanes(data, out)
		return
	}
	for i, d := range data {
		out[i] = Of(d)
	}
}

// String returns the full lowercase hex form of the fingerprint.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns an abbreviated hex prefix, convenient for logs and tests.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// IsZero reports whether f is the all-zero fingerprint. The zero fingerprint
// is reserved as "no chunk" throughout the system.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Uint64 returns the first 8 bytes of the fingerprint as a big-endian
// integer. Because SHA-256 output is uniformly distributed, this prefix is
// itself a high-quality 64-bit hash; the Bloom filter, index bucketing, and
// similarity signatures all key off it.
func (f Fingerprint) Uint64() uint64 { return binary.BigEndian.Uint64(f[:8]) }

// Chunk is one content-defined chunk of a stream. Data may be nil when the
// system runs in metadata-only (simulation) mode; Size is always valid.
type Chunk struct {
	FP   Fingerprint
	Size uint32
	Data []byte // nil in metadata-only mode
}

// New builds a Chunk from raw bytes, computing its fingerprint. The returned
// chunk retains data (no copy is made).
func New(data []byte) Chunk {
	return Chunk{FP: Of(data), Size: uint32(len(data)), Data: data}
}

// Meta builds a metadata-only chunk from a precomputed fingerprint and size.
func Meta(fp Fingerprint, size uint32) Chunk {
	return Chunk{FP: fp, Size: size}
}

// Location is the physical placement of one stored chunk copy: the container
// that holds it, the segment it was written as part of, and the byte offset
// of the chunk data on the simulated device.
type Location struct {
	Container uint32 // container sequence number (0 is valid)
	Segment   uint64 // ID of the on-disk segment the chunk was written with
	Offset    int64  // absolute device offset of the chunk data
	Size      uint32 // chunk size in bytes
}

// Valid reports whether the location refers to a stored chunk. The zero
// Location is "not stored" except that container 0 offset 0 is legitimate,
// so validity is tracked by Size != 0 (no zero-length chunk is ever stored).
func (l Location) Valid() bool { return l.Size != 0 }

func (l Location) String() string {
	return fmt.Sprintf("c%04d/s%d@%d+%d", l.Container, l.Segment, l.Offset, l.Size)
}

// Ref is one entry of a recipe: a chunk reference together with the location
// it resolved to at backup time.
type Ref struct {
	FP   Fingerprint
	Size uint32
	Loc  Location
}

// Recipe reconstitutes one logical stream: the ordered chunk references of a
// backup generation.
type Recipe struct {
	// Label identifies the stream (e.g. "user0/gen07").
	Label string
	Refs  []Ref
}

// Append adds one reference.
func (r *Recipe) Append(fp Fingerprint, size uint32, loc Location) {
	r.Refs = append(r.Refs, Ref{FP: fp, Size: size, Loc: loc})
}

// Len returns the number of chunk references.
func (r *Recipe) Len() int { return len(r.Refs) }

// Bytes returns the logical (pre-dedup) size of the stream in bytes.
func (r *Recipe) Bytes() int64 {
	var n int64
	for i := range r.Refs {
		n += int64(r.Refs[i].Size)
	}
	return n
}

// Fragments counts the placement fragments of the recipe: maximal runs of
// consecutive references whose locations are physically contiguous on
// device. It is exactly the N of the paper's Eq. 1 — the number of disk
// seeks a naive restore of this stream would need.
func (r *Recipe) Fragments() int {
	if len(r.Refs) == 0 {
		return 0
	}
	frags := 1
	prev := r.Refs[0].Loc
	for _, ref := range r.Refs[1:] {
		if ref.Loc.Offset != prev.Offset+int64(prev.Size) {
			frags++
		}
		prev = ref.Loc
	}
	return frags
}

// ContainersTouched counts the distinct containers referenced by the recipe,
// a coarser fragmentation measure used by the restore cache analysis.
func (r *Recipe) ContainersTouched() int {
	seen := make(map[uint32]struct{}, 64)
	for i := range r.Refs {
		seen[r.Refs[i].Loc.Container] = struct{}{}
	}
	return len(seen)
}
