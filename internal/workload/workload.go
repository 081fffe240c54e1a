// Package workload synthesizes the multi-generation backup datasets that
// drive every experiment, substituting for the paper's private file-system
// backups (647 GB × 20 generations for Figs. 2–3; 1.72 TB across 66 backups
// of five users for Figs. 4–6).
//
// The generator models a file system as a set of files whose contents are
// deterministic pseudo-random extents. Each generation applies a mutation
// pass — overwrite edits, insertions (which shift subsequent content and
// exercise CDC resynchronization), range deletions, file creations and file
// deletions — then streams a full backup (tar-like concatenation of file
// headers and bodies).
//
// What matters for reproducing the paper is the *redundancy structure*
// across generations: most of each backup is shared with earlier ones, the
// shared regions interleave with fresh data at fine grain, and as
// generations accumulate, the physical copies of a stream's chunks scatter
// over ever more disk locations. All of that emerges from this model; see
// DESIGN.md §2 for the substitution argument.
package workload

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
)

// Config parameterizes a synthetic file system and its per-generation churn.
type Config struct {
	Seed         int64
	NumFiles     int   // initial file count
	MeanFileSize int64 // mean of the (geometric-ish) file size distribution

	// Per-generation mutation profile.
	ModifyFraction     float64 // fraction of files edited each generation
	EditsPerFile       int     // mean edits applied to a modified file
	MeanEditSize       int64   // mean bytes per edit
	InsertFraction     float64 // fraction of edits that insert (shift) rather than overwrite
	DeleteRangeFrac    float64 // fraction of edits that delete a range
	NewFileFraction    float64 // files created per generation, as a fraction of NumFiles
	DeleteFileFraction float64 // files deleted per generation, as a fraction of NumFiles

	// ShuffleOrder emits files in a fresh random order on every Stream
	// call instead of stable file order. This is the adversarial
	// no-locality case: the same content arrives, but never in the same
	// sequence, so stream-informed layouts and prefetch-based caches get
	// no help from backup-to-backup ordering.
	ShuffleOrder bool

	// SharedFraction (multi-user schedules only) is the fraction of each
	// user's initial files drawn from a pool common to all users — the
	// paper's five students shared OS and project files. Shared files have
	// identical initial content across users and then diverge with each
	// user's own edits. 0 disables sharing.
	SharedFraction float64

	// HotspotSkew models working-set behaviour: with this probability an
	// edited file is drawn from the hot subset (the HotspotFraction of
	// files with the lowest IDs) instead of uniformly. Real home-directory
	// churn is strongly skewed — active projects are edited every
	// generation, archives never — and this skew is what lets
	// locality-restoring rewrites converge instead of trailing garbage.
	// 0 disables skew.
	HotspotSkew     float64
	HotspotFraction float64 // size of the hot subset (default 0.2 when skew > 0)
}

// DefaultConfig returns a profile producing user-homedir-like churn:
// ~20% of files touched per generation with multi-KB edits, a few creations
// and deletions. Total logical size ≈ NumFiles × MeanFileSize.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		NumFiles:           64,
		MeanFileSize:       768 << 10,
		ModifyFraction:     0.22,
		EditsPerFile:       2,
		MeanEditSize:       16 << 10,
		InsertFraction:     0.25,
		DeleteRangeFrac:    0.10,
		NewFileFraction:    0.03,
		DeleteFileFraction: 0.015,
		HotspotSkew:        0.8,
		HotspotFraction:    0.2,
	}
}

func (c Config) validate() error {
	if c.NumFiles <= 0 || c.MeanFileSize <= 0 || c.EditsPerFile < 0 {
		return fmt.Errorf("workload: bad config %+v", c)
	}
	for _, f := range []float64{c.ModifyFraction, c.InsertFraction, c.DeleteRangeFrac, c.NewFileFraction, c.DeleteFileFraction, c.HotspotSkew, c.HotspotFraction, c.SharedFraction} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload: fraction out of [0,1] in %+v", c)
		}
	}
	return nil
}

// extent is a run of deterministic bytes: the byte at position i of the
// extent is byte (skip+i) of the xorshift stream keyed by seed.
type extent struct {
	seed uint64
	skip int64 // offset into the seed's stream where this extent begins
	n    int64 // length in bytes
}

// file is one synthetic file.
type file struct {
	id      uint64
	extents []extent
}

func (f *file) size() int64 {
	var n int64
	for _, e := range f.extents {
		n += e.n
	}
	return n
}

// FS is a mutable synthetic file system.
type FS struct {
	cfg    Config
	rng    *rand.Rand
	files  []*file
	nextID uint64
	gen    int
	// streamSeq counts Stream() calls within the current generation. It
	// keys the ShuffleOrder permutation (with cfg.Seed and gen) so that
	// streaming never consumes fs.rng: opening an extra stream must not
	// perturb the bytes of any later mutation or stream.
	streamSeq int
}

// NewFS builds the generation-0 file system.
func NewFS(cfg Config) (*FS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fs := &FS{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for i := 0; i < cfg.NumFiles; i++ {
		fs.files = append(fs.files, fs.newFile())
	}
	return fs, nil
}

// newFile creates a file with a size drawn around MeanFileSize (0.25x–2.5x).
func (fs *FS) newFile() *file {
	fs.nextID++
	size := fs.cfg.MeanFileSize/4 + fs.rng.Int63n(fs.cfg.MeanFileSize*9/4) + 1
	return &file{
		id:      fs.nextID,
		extents: []extent{{seed: fs.rng.Uint64(), n: size}},
	}
}

// Generation returns the number of Mutate passes applied.
func (fs *FS) Generation() int { return fs.gen }

// NumFiles returns the current file count.
func (fs *FS) NumFiles() int { return len(fs.files) }

// LogicalSize returns the total bytes of the current file system state.
func (fs *FS) LogicalSize() int64 {
	var n int64
	for _, f := range fs.files {
		n += f.size()
	}
	return n
}

// Mutate advances the file system by one generation of churn.
func (fs *FS) Mutate() {
	fs.gen++
	fs.streamSeq = 0
	// Edit a fraction of files; a generation always touches at least one
	// file (a backup with zero change is not a generation worth modeling).
	nMod := fs.roundFrac(float64(len(fs.files)) * fs.cfg.ModifyFraction)
	if nMod < 1 {
		nMod = 1
	}
	for i := 0; i < nMod && len(fs.files) > 0; i++ {
		f := fs.pickFile()
		edits := 1 + fs.rng.Intn(2*fs.cfg.EditsPerFile+1)
		for e := 0; e < edits; e++ {
			fs.editFile(f)
		}
	}
	// Delete and create files, with probabilistic rounding so fractional
	// expectations survive small file counts.
	nDel := fs.roundFrac(float64(fs.cfg.NumFiles) * fs.cfg.DeleteFileFraction)
	for i := 0; i < nDel && len(fs.files) > 1; i++ {
		k := fs.rng.Intn(len(fs.files))
		fs.files = append(fs.files[:k], fs.files[k+1:]...)
	}
	nNew := fs.roundFrac(float64(fs.cfg.NumFiles) * fs.cfg.NewFileFraction)
	for i := 0; i < nNew; i++ {
		fs.files = append(fs.files, fs.newFile())
	}
}

// pickFile selects a file to edit, honouring the hotspot skew: with
// probability HotspotSkew the file comes from the hot subset (lowest
// HotspotFraction of the current file list).
func (fs *FS) pickFile() *file {
	n := len(fs.files)
	if fs.cfg.HotspotSkew > 0 && fs.rng.Float64() < fs.cfg.HotspotSkew {
		frac := fs.cfg.HotspotFraction
		if frac <= 0 {
			frac = 0.2
		}
		hot := int(float64(n) * frac)
		if hot < 1 {
			hot = 1
		}
		return fs.files[fs.rng.Intn(hot)]
	}
	return fs.files[fs.rng.Intn(n)]
}

// roundFrac rounds x to an integer, resolving the fractional part by a
// Bernoulli draw so the expectation is exact.
func (fs *FS) roundFrac(x float64) int {
	n := int(x)
	if fs.rng.Float64() < x-float64(n) {
		n++
	}
	return n
}

// editFile applies one edit at a random position.
func (fs *FS) editFile(f *file) {
	size := f.size()
	if size == 0 {
		return
	}
	editLen := fs.cfg.MeanEditSize/4 + fs.rng.Int63n(fs.cfg.MeanEditSize*9/4) + 1
	at := fs.rng.Int63n(size)
	r := fs.rng.Float64()
	switch {
	case r < fs.cfg.DeleteRangeFrac:
		n := editLen
		if at+n > size {
			n = size - at
		}
		f.deleteRange(at, n)
	case r < fs.cfg.DeleteRangeFrac+fs.cfg.InsertFraction:
		f.insert(at, extent{seed: fs.rng.Uint64(), n: editLen})
	default:
		// Overwrite: delete then insert the same length (content shifts
		// nothing; only the edited range changes).
		n := editLen
		if at+n > size {
			n = size - at
		}
		f.deleteRange(at, n)
		f.insert(at, extent{seed: fs.rng.Uint64(), n: n})
	}
}

// split ensures an extent boundary exists at byte offset at, returning the
// index of the extent that begins there.
func (f *file) split(at int64) int {
	var pos int64
	for i := range f.extents {
		if pos == at {
			return i
		}
		end := pos + f.extents[i].n
		if at < end {
			e := f.extents[i]
			left := extent{seed: e.seed, skip: e.skip, n: at - pos}
			right := extent{seed: e.seed, skip: e.skip + (at - pos), n: end - at}
			f.extents = append(f.extents[:i], append([]extent{left, right}, f.extents[i+1:]...)...)
			return i + 1
		}
		pos = end
	}
	return len(f.extents)
}

// insert places e at byte offset at.
func (f *file) insert(at int64, e extent) {
	if e.n <= 0 {
		return
	}
	i := f.split(at)
	f.extents = append(f.extents[:i], append([]extent{e}, f.extents[i:]...)...)
}

// deleteRange removes n bytes starting at at.
func (f *file) deleteRange(at, n int64) {
	if n <= 0 {
		return
	}
	i := f.split(at)
	j := f.split(at + n)
	f.extents = append(f.extents[:i], f.extents[j:]...)
}

// Stream returns a reader over the full-backup stream of the current state:
// for each file, a 64-byte header (deterministic function of file id and
// size, standing in for tar metadata) followed by the file body. The reader
// generates bytes lazily; nothing is materialized.
func (fs *FS) Stream() io.Reader {
	// Snapshot the extent lists so later mutations don't affect an open reader.
	files := make([]*file, len(fs.files))
	for i, f := range fs.files {
		files[i] = &file{id: f.id, extents: append([]extent(nil), f.extents...)}
	}
	if fs.cfg.ShuffleOrder {
		// The permutation is keyed by (seed, generation, stream ordinal),
		// not drawn from fs.rng: repeated Stream() calls still emit fresh
		// orders, but a stream can never perturb mutation randomness or the
		// bytes of sibling streams (the fan-out determinism contract).
		shuf := rand.New(rand.NewSource(DeriveSeed(fs.cfg.Seed, "stream-shuffle", int64(fs.gen)<<20|int64(fs.streamSeq))))
		shuf.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	}
	fs.streamSeq++
	return &streamReader{files: files}
}

// streamReader walks files and extents, generating bytes on demand.
//
// Byte k of an extent's seed stream is byte k%8 of word k/8, where word j is
// the (j+1)-th xorshift iterate of the seed. Because the byte at a given
// stream position is position-determined, splitting an extent (skip offsets)
// regenerates identical bytes — edits never corrupt surrounding content.
type streamReader struct {
	files []*file
	fi    int   // current file
	ei    int   // current extent within the file
	off   int64 // offset within the current unit (header or extent)
	hdr   [64]byte
	inHdr bool
	init  bool
	// extent generator state
	state uint64 // xorshift state whose value is the current word
	phase int    // next byte within the current word; 8 = exhausted
}

func (r *streamReader) Read(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		if !r.init {
			if r.fi >= len(r.files) {
				if total > 0 {
					return total, nil
				}
				return 0, io.EOF
			}
			r.beginHeader()
		}
		total += r.fill(p[total:])
	}
	return total, nil
}

func (r *streamReader) beginHeader() {
	f := r.files[r.fi]
	r.hdr = headerFor(f.id, f.size())
	r.inHdr = true
	r.off = 0
	r.ei = 0
	r.init = true
}

// fill copies available bytes of the current unit into p.
func (r *streamReader) fill(p []byte) int {
	f := r.files[r.fi]
	if r.inHdr {
		n := copy(p, r.hdr[r.off:])
		r.off += int64(n)
		if r.off == int64(len(r.hdr)) {
			r.inHdr = false
			r.off = 0
			if len(f.extents) > 0 {
				r.startExtent()
			} else {
				r.advanceFile()
			}
		}
		return n
	}
	e := f.extents[r.ei]
	n := int64(len(p))
	if remain := e.n - r.off; n > remain {
		n = remain
	}
	r.genBytes(p[:n])
	r.off += n
	if r.off == e.n {
		r.ei++
		r.off = 0
		if r.ei < len(f.extents) {
			r.startExtent()
		} else {
			r.advanceFile()
		}
	}
	return int(n)
}

func (r *streamReader) advanceFile() {
	r.fi++
	r.init = false
}

// startExtent primes the generator at the extent's skip position.
func (r *streamReader) startExtent() {
	e := r.files[r.fi].extents[r.ei]
	s := xorshiftInit(e.seed)
	for j := int64(0); j <= e.skip/8; j++ {
		s = xorshiftNext(s)
	}
	r.state = s
	r.phase = int(e.skip % 8)
}

// genBytes writes len(p) deterministic bytes for the current position: each
// xorshift word little-endian, a whole word at a time where one fits.
func (r *streamReader) genBytes(p []byte) {
	for i := 0; i < len(p); i++ {
		if r.phase == 8 {
			r.state = xorshiftNext(r.state)
			r.phase = 0
		}
		if r.phase == 0 && len(p)-i >= 8 {
			binary.LittleEndian.PutUint64(p[i:], r.state)
			i, r.phase = i+7, 8
			continue
		}
		p[i] = byte(r.state >> (8 * uint(r.phase)))
		r.phase++
	}
}

// headerFor builds the 64-byte pseudo-tar header.
func headerFor(id uint64, size int64) [64]byte {
	var h [64]byte
	s := xorshiftInit(id ^ 0xFEEDFACE)
	for i := 0; i < 64; i += 8 {
		s = xorshiftNext(s)
		v := s
		if i == 0 {
			v = id
		}
		if i == 8 {
			v = uint64(size)
		}
		for j := 0; j < 8; j++ {
			h[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	return h
}

func xorshiftInit(seed uint64) uint64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return seed
}

func xorshiftNext(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
