package main

import (
	"fmt"
	"io"
	"math/rand"
	"syscall"

	"repro/internal/workload"
)

// sizing is the scale a run uses. The committed numbers all come from
// fullSize; the tests' toy size drives every code path in milliseconds.
type sizing struct {
	gens, users   int     // backups per cycle: single-user generations, multi-user first fulls
	numFiles      int     // workload.Config.NumFiles
	meanFileSize  int64   // workload.Config.MeanFileSize
	warmups       int     // unmeasured cycles before the first measured one
	minCycles     int     // measured cycles even when -seconds is already spent
	tracedCycles  int     // cycles per side (traced, untraced) of a -trace run
	restorePasses int     // times the newest backups are restored per cycle
	rungSeconds   float64 // how long each ladder rung repeats
}

// fullSize is the issue's sizing: 24 generations of a 32-file file system
// (≈ 39 MB each, 940 MB = 896 MiB per cycle) and 12 users' first fulls
// (422 MB = 403 MiB).
var fullSize = sizing{
	gens: 24, users: 12, numFiles: 32, meanFileSize: 768 << 10,
	warmups: 1, minCycles: 3, tracedCycles: 2, restorePasses: 3, rungSeconds: 0.5,
}

// historySeed fixes the file-system history every run replays: file sizes,
// and which files each generation edits, grows, creates and deletes. The
// history is part of the workloads' definition, not of the seed. A cycle
// holds 24 generations of 32 files, about one new file per generation and
// some 230 simulated index seeks: far too small a population to average
// out. Ten histories drawn from ten seeds spread (quartile range over
// median) 7 % in bytes per call, 5–12 % in stored bytes and 23 % in
// simulated ingest rate; one history with every byte re-keyed by the seed
// (so every chunk boundary moves) still spreads 2–4 %, 10 % and 18 % in
// stored bytes and the two simulated rates. Either would force 25 % bounds
// on the metrics that repeat to the last digit, so -seed draws each
// stream's job header instead (see generate).
const historySeed = 42

// input is one backup stream, held outside the Go heap.
type input struct {
	label string
	data  []byte
}

// inputSet is every stream a workload ingests, in ingest order.
type inputSet struct {
	items  []input
	bytes  int64 // Σ len(data)
	maxLen int
}

// mmapAnon returns n zeroed bytes the Go collector does not know about.
// With ~0.9 GB of inputs on the Go heap the GC target doubles and every
// cycle page-faults fresh spans; off-heap the A/A ingest medians agree to
// 2 % instead of 14 %.
func mmapAnon(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	return b, nil
}

// touch writes one byte per page so the first timed use of b takes no fault.
func touch(b []byte) {
	for i := 0; i < len(b); i += 4096 {
		b[i] = 0
	}
}

// schedule builds the workload's backup schedule and returns it with the
// number of backups a cycle ingests.
func (sz sizing) schedule(multiUser bool) (workload.Schedule, int, error) {
	cfg := workload.DefaultConfig(historySeed)
	cfg.NumFiles = sz.numFiles
	cfg.MeanFileSize = sz.meanFileSize
	if multiUser {
		cfg.SharedFraction = 0.25
		s, err := workload.NewMultiUser(sz.users, cfg)
		return s, sz.users, err
	}
	s, err := workload.NewSingle(cfg)
	return s, sz.gens, err
}

// jobHeaderLen is how much of each stream the seed draws. The gear chunker
// looks at no byte of a chunk before Min − 64 (min-size skip-ahead), so a
// header of half the minimum chunk size at the start of a stream moves no
// chunk boundary: seeds change the first chunk's content and fingerprint and
// nothing else. A 4 KiB header, which shifts the first boundaries and with
// them every later segment of the stream, was enough to flip DeFrag rewrite
// and maintenance-victim decisions downstream: on churn-maint two seeds in
// six moved write_amp by 8 % and sim_restore_last_mbps by 12 %.
// TestSeedKeepsChunkBoundaries pins the property.
const jobHeaderLen = 1024

// generate materializes the workload's inputs off-heap; keep, when set,
// selects which of the n scheduled backups to materialize.
//
// A backup stream is a job header followed by the file-system image of the
// replayed history. seed draws every stream's header (jobHeaderLen random
// bytes, distinct per stream, as a real backup job's id, host and timestamp
// would be), so another seed changes every input's digest.
func (sz sizing) generate(multiUser bool, seed int64, keep func(i, n int) bool) (*inputSet, error) {
	sched, n, err := sz.schedule(multiUser)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	set := &inputSet{}
	for i := 0; i < n; i++ {
		b := sched.Next()
		var header [jobHeaderLen]byte
		rng.Read(header[:]) // drawn for skipped streams too: stream i's header depends only on seed and i
		if keep != nil && !keep(i, n) {
			continue
		}
		data, err := mmapAnon(int(b.Size))
		if err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(b.Stream, data); err != nil {
			return nil, fmt.Errorf("generating %s: %w", b.Label, err)
		}
		copy(data, header[:])
		set.items = append(set.items, input{label: b.Label, data: data})
		set.bytes += b.Size
		set.maxLen = max(set.maxLen, len(data))
	}
	return set, nil
}
