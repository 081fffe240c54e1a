package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/blockstore"
)

// spec is one workload: which inputs it ingests, onto which backend, and
// what it does between and after the ingests.
type spec struct {
	name, why   string
	backend     repro.BackendKind
	multiUser   bool // inputs are 12 users' first fulls instead of one user's generations
	retention   int  // > 0: beyond this many backups, Forget(oldest) + MaintenanceEpoch after each ingest
	restoreLast int  // restore the newest N backups, sizing.restorePasses times
	http        bool // drive the store through internal/serve with a writer and a reader
}

// specs are the gated workloads: BENCHMARK.json lists exactly these, and
// -workload all and -aa run them.
var specs = []spec{
	{
		name:    "gens-mem",
		why:     "24 generations of one user on the sim backend: chunker, SHA-256, index and DeFrag engine do the work; files, fsync and HTTP are bypassed",
		backend: repro.SimBackend, restoreLast: 5,
	},
	{
		name:    "fulls-mem",
		why:     "12 users' mostly-unique first fulls on the sim backend: Bloom negatives, index inserts and container fill instead of duplicate hits; no files, fsync or HTTP",
		backend: repro.SimBackend, multiUser: true, restoreLast: 6,
	},
	{
		name:    "churn-maint",
		why:     "gens-mem inputs on the file backend with retention 6: Forget and a maintenance epoch between ingests, so garbage, merges and recipe rewrites show",
		backend: repro.FileBackend, retention: 6, restoreLast: 4,
	},
	{
		name:    "serve-mixed",
		why:     "gens-mem inputs over loopback HTTP, one writer beside one reader: admission, the maintenance gate and Store locks under read/write contention",
		backend: repro.FileBackend, http: true,
	},
}

// fullsDisk is fulls-mem on the file backend, where container seal, file
// pairs and WAL fsyncs hold 0.85 of ingest time. It runs by name
// only and gates nothing:
// on a host whose disk is a thin-provisioned image mounted with discard, a
// 4 MB fsync'd write lands at ≈ 1400 MB/s on blocks ext4 freed in the last
// ~20 s (the previous run's directories, not yet trimmed) and at ≈ 180 MB/s
// anywhere else, so a run starts with 0 to 6 cycles at ≈ 450 MB/s before it
// settles at ≈ 200, by what ran before it, and the median cycle falls on
// either side: ingest_wall_mbps spread 10 % here and 17–28 % at the driver.
// README.md, "The disk workload that is not gated", has the measurements.
var fullsDisk = spec{
	name:    "fulls-disk",
	why:     "fulls-mem on the file backend: container seal, file pairs, WAL and recipe fsyncs dominate; run by name, not gated (the host's disk has two speeds)",
	backend: repro.FileBackend, multiUser: true, restoreLast: 6,
}

// allSpecs is every workload the rig can run: the gated four and fulls-disk.
var allSpecs = append(specs[:len(specs):len(specs)], fullsDisk)

func findSpec(name string) (spec, bool) {
	for _, s := range allSpecs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// clients is the number of load-generating goroutines the workload runs.
func (s spec) clients() int {
	if s.http {
		return 2
	}
	return 1
}

// ingestOp and restoreOp name the op whose calls are the workload's
// ingests and restores.
func (s spec) ingestOp() string {
	if s.http {
		return "http.post"
	}
	return "store.backup"
}

func (s spec) restoreOp() string {
	if s.http {
		return "http.get"
	}
	return "store.restore"
}

// bothSides registers an op of a serial workload as the parent of every
// backend call made while it runs.
var bothSides = []side{writeSide, readSide}

// runner holds what every cycle of one run shares.
type runner struct {
	spec spec
	sz   sizing
	in   *inputSet
	out  []byte // restore output buffer, off-heap and pre-touched
	root string // run root; disk cycles each get a fresh directory below it

	rec      *recorder // non-nil while a traced cycle runs
	cycleSeq int
	// rehash makes the warm-up cycle's Store.Check re-hash every referenced
	// chunk. That costs up to 7 s (serve-mixed retains all 24 generations),
	// which the measured runs cannot afford under the driver's time cap, so
	// they check structure only and the traced run re-hashes.
	rehash bool

	mu                sync.Mutex // guards the counts below and the running cycle's result (serve-mixed has two clients)
	attempted, failed int
	failures          []string

	// corruptNext is the self-test hook: the next restored stream has one
	// byte flipped before it is compared, which must count as one failure.
	corruptNext atomic.Bool
}

// failf counts one failed op.
func (r *runner) failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("cycle %d: ", r.cycleSeq)+fmt.Sprintf(format, args...))
}

// cycle is the state of one pass through the workload's op sequence.
type cycle struct {
	r                     *runner
	dir                   string
	res                   cycleResult
	pausedWall, pausedCPU time.Duration
}

// cycleResult is everything one cycle measured.
type cycleResult struct {
	wall, cpu time.Duration              // whole cycle, the benchmark's own checks excluded
	lat       map[string][]time.Duration // op name → duration of every call

	ingestBytes, restoreBytes  int64         // user bytes through the timed ingests and restores
	storedBytes, retainedBytes int64         // Store.Stats at the end of the cycle
	simIngest                  time.Duration // Σ BackupStats.Duration
	simRestoreLast             float64       // RestoreStats.ThroughputMBps of the newest backup's first restore
	be                         *backendCounts

	chunks, dupBytes, rewrittenBytes, indexLookups, cacheHits int64 // Σ BackupStats
	fragmentsLast                                             int
	restoreReads, restoreHits, restoreStatBytes               int64 // Σ RestoreStats
	maint                                                     repro.MaintenanceReport
	status429                                                 int
	dirFiles, dirBytes                                        int64
	io                                                        ioCounts
	gcCycles                                                  uint32
	gcPause                                                   time.Duration
	allocBytes, heapInusePeak                                 uint64
}

// op times one call into the system under test and counts it.
func (c *cycle) op(name string, sides []side, fn func() error) error {
	id := c.r.rec.beginOp(name, sides)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	c.r.rec.endOp(id)
	c.r.mu.Lock()
	c.res.lat[name] = append(c.res.lat[name], d)
	c.r.attempted++
	c.r.mu.Unlock()
	if err != nil {
		c.r.failf("%s: %v", name, err)
	}
	return err
}

// untimed runs the benchmark's own work (comparing restored bytes, fsck,
// reading counters) and keeps its wall and CPU time out of the cycle's.
func (c *cycle) untimed(fn func()) {
	t0, c0 := time.Now(), cpuTime()
	fn()
	c.pausedWall += time.Since(t0)
	c.pausedCPU += cpuTime() - c0
}

// checkRestored compares a restored stream with the bytes that were
// ingested. A byte-for-byte comparison is stronger than comparing digests
// and ten times cheaper, which matters on serve-mixed where the reader
// shares two cores with the server.
func (c *cycle) checkRestored(label string, got, want []byte) {
	if len(got) > 0 && c.r.corruptNext.CompareAndSwap(true, false) {
		got[len(got)/2] ^= 1
	}
	if !bytes.Equal(got, want) {
		c.r.failf("restore of %s: %d bytes differ from the %d ingested", label, len(got), len(want))
	}
}

// sliceWriter writes a restored stream into the off-heap output buffer.
type sliceWriter struct {
	buf []byte
	n   int
}

func (w *sliceWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, fmt.Errorf("restored stream exceeds the %d-byte output buffer", len(w.buf))
	}
	w.n += copy(w.buf[w.n:], p)
	return len(p), nil
}

func (c *cycle) options() repro.Options {
	return repro.Options{
		Engine:        repro.DeFrag,
		Alpha:         0.1,
		ExpectedBytes: 2 * c.r.in.bytes,
		StoreData:     true,
		Backend:       c.r.spec.backend,
		Dir:           c.dir,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend {
			// Open and the later reopen each build a backend; both report
			// into the cycle's one set of counts.
			return &meteredBackend{inner: be, n: c.res.be, rec: c.r.rec}
		},
	}
}

func (c *cycle) open(name string) (*repro.Store, error) {
	var st *repro.Store
	err := c.op(name, bothSides, func() (err error) {
		st, err = repro.Open(c.options())
		return err
	})
	return st, err
}

// restore restores b in process into the output buffer (fingerprints
// verified) and folds its statistics into the cycle's; got is the restored
// stream, valid until the next restore.
func (c *cycle) restore(ctx context.Context, st *repro.Store, b *repro.Backup) (rs repro.RestoreStats, got []byte, err error) {
	w := &sliceWriter{buf: c.r.out}
	opts := repro.DefaultRestoreOptions()
	opts.Verify = true
	if rs, err = st.RestoreWith(ctx, b, w, opts); err != nil {
		return rs, nil, err
	}
	c.res.restoreReads += rs.ContainerReads
	c.res.restoreHits += rs.CacheHits
	c.res.restoreStatBytes += rs.Bytes
	return rs, w.buf[:w.n], nil
}

// checkNewest is one of the benchmark's own checks (the caller is inside
// c.untimed): an in-process restore of the newest backup, compared with
// its input.
func (c *cycle) checkNewest(ctx context.Context, st *repro.Store) (repro.RestoreStats, error) {
	last := c.r.in.items[len(c.r.in.items)-1]
	b := st.FindBackup(last.label)
	if b == nil {
		return repro.RestoreStats{}, fmt.Errorf("backup %s missing", last.label)
	}
	rs, got, err := c.restore(ctx, st, b)
	if err == nil {
		c.checkRestored(last.label, got, last.data)
	}
	return rs, err
}

// noteBackup folds one ingested backup's statistics into the cycle's.
func (c *cycle) noteBackup(s repro.BackupStats) {
	c.res.ingestBytes += s.LogicalBytes
	c.res.simIngest += s.Duration
	c.res.chunks += s.Chunks
	c.res.dupBytes += s.DedupedBytes
	c.res.rewrittenBytes += s.RewrittenBytes
	c.res.indexLookups += s.IndexLookups
	c.res.cacheHits += s.CacheHits
}

// runCycle runs the workload's whole op sequence once over a fresh store.
// A warm-up cycle of a disk workload also runs Store.Check before Close.
func (r *runner) runCycle(ctx context.Context, warmup bool) (cycleResult, error) {
	r.cycleSeq++
	c := &cycle{r: r}
	c.res.lat = map[string][]time.Duration{}
	c.res.be = &backendCounts{}
	if r.spec.backend == repro.FileBackend {
		// A new directory per cycle: re-using one path made per-cycle ingest
		// bimodal (≈ 340 / 550 MB/s alternating) because freed blocks were
		// rewritten while still in the page cache.
		c.dir = filepath.Join(r.root, fmt.Sprintf("c%03d", r.cycleSeq))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	io0 := readIO()
	r.rec.beginCycle()
	t0, cpu0 := time.Now(), cpuTime()

	err := c.body(ctx, warmup && r.spec.backend == repro.FileBackend)

	c.res.wall = time.Since(t0) - c.pausedWall
	c.res.cpu = cpuTime() - cpu0 - c.pausedCPU
	r.rec.endCycle()
	c.res.io = readIO().sub(io0)
	runtime.ReadMemStats(&ms1)
	c.res.gcCycles = ms1.NumGC - ms0.NumGC
	c.res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	c.res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	c.res.heapInusePeak = max(c.res.heapInusePeak, ms1.HeapInuse)
	if c.dir != "" {
		c.res.dirFiles, c.res.dirBytes = walkDir(c.dir)
	}
	return c.res, err
}

// body is the op sequence between the cycle's clock reads.
func (c *cycle) body(ctx context.Context, fsck bool) error {
	r := c.r
	st, err := c.open("store.open")
	if err != nil {
		return err
	}
	if r.spec.http {
		err = c.serveMixed(ctx, st)
	} else {
		err = c.ingestAndRestore(ctx, st)
	}
	if err != nil {
		return errors.Join(err, st.Close())
	}

	c.untimed(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.res.heapInusePeak = ms.HeapInuse // the store is as full as it gets
		stats := st.Stats()
		c.res.storedBytes, c.res.retainedBytes = stats.StoredBytes, stats.LogicalBytes
		c.res.maint = st.MaintenanceReport()
		if bs := st.Backups(); len(bs) > 0 {
			c.res.fragmentsLast = bs[len(bs)-1].Fragments()
		}
		if fsck {
			if rep, err := st.Check(ctx, r.rehash); err != nil {
				r.failf("check: %v", err)
			} else if !rep.OK() {
				r.failf("check: %d problems, first: %s", len(rep.Problems), rep.Problems[0])
			}
		}
	})

	if err := c.op("store.close", bothSides, st.Close); err != nil {
		return err
	}
	if r.spec.backend != repro.FileBackend {
		return nil
	}

	// Recovery: a timed re-Open over the closed directory (adopt, index
	// rebuild, backup reload), then an unmeasured checked restore of the
	// newest backup to prove the reopened store serves it.
	st2, err := c.open("store.reopen")
	if err != nil {
		return err
	}
	c.untimed(func() {
		_, rerr := c.checkNewest(ctx, st2)
		if err = errors.Join(rerr, st2.Close()); err != nil {
			r.failf("after reopen: %v", err)
		}
	})
	return err
}

// ingestAndRestore is the in-process op sequence: every input through
// Store.Backup in order (with Forget + MaintenanceEpoch under retention),
// then the newest backups restored newest-first, several passes.
func (c *cycle) ingestAndRestore(ctx context.Context, st *repro.Store) error {
	r := c.r
	backups := make([]*repro.Backup, len(r.in.items))
	for i, in := range r.in.items {
		err := c.op("store.backup", bothSides, func() (err error) {
			backups[i], err = st.Backup(ctx, in.label, bytes.NewReader(in.data))
			return err
		})
		if err != nil {
			return err
		}
		c.noteBackup(backups[i].Stats)
		if r.spec.retention == 0 || i < r.spec.retention {
			continue
		}
		oldest := r.in.items[i-r.spec.retention].label
		err = c.op("store.forget", bothSides, func() error {
			if res := st.Forget(oldest); !res.Found {
				return fmt.Errorf("backup %s not found", oldest)
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = c.op("store.maintenance_epoch", bothSides, func() error {
			_, err := st.MaintenanceEpoch(ctx)
			return err
		})
		if err != nil {
			return err
		}
	}
	newest := len(backups) - 1
	for pass := 0; pass < r.sz.restorePasses; pass++ {
		for i := newest; i > newest-r.spec.restoreLast && i >= 0; i-- {
			var rs repro.RestoreStats
			var got []byte
			err := c.op("store.restore", bothSides, func() (err error) {
				rs, got, err = c.restore(ctx, st, backups[i])
				return err
			})
			if err != nil {
				return err
			}
			c.untimed(func() { c.checkRestored(backups[i].Label, got, r.in.items[i].data) })
			c.res.restoreBytes += rs.Bytes
			if pass == 0 && i == newest {
				c.res.simRestoreLast = rs.ThroughputMBps()
			}
		}
	}
	return nil
}

// serveMixed drives the store through internal/serve on a loopback
// listener with two closed-loop clients: a writer POSTs every input in
// order while a reader GETs the restore of the newest committed backup, as
// many times as there are inputs.
func (c *cycle) serveMixed(ctx context.Context, st *repro.Store) error {
	r := c.r
	base, stop, err := serveStore(ctx, st)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	var newest atomic.Int64 // index of the newest committed input
	newest.Store(-1)
	first := make(chan struct{}) // closed when the reader has something to read, or never will
	var wg sync.WaitGroup
	var werr, rerr error
	wg.Add(2)

	go func() { // writer
		defer wg.Done()
		var once sync.Once
		defer once.Do(func() { close(first) })
		for i, in := range r.in.items {
			werr = c.op("http.post", []side{writeSide}, func() error {
				status, err := post(client, base, in.label, in.data)
				if status == http.StatusTooManyRequests {
					r.mu.Lock()
					c.res.status429++
					r.mu.Unlock()
				}
				return err
			})
			if werr != nil {
				return
			}
			b := st.FindBackup(in.label)
			if b == nil {
				werr = fmt.Errorf("POST %s acknowledged but the backup is not in the store", in.label)
				r.failf("%v", werr)
				return
			}
			r.mu.Lock()
			c.noteBackup(b.Stats)
			r.mu.Unlock()
			newest.Store(int64(i))
			once.Do(func() { close(first) })
		}
	}()

	go func() { // reader
		defer wg.Done()
		<-first
		if newest.Load() < 0 {
			return // the writer failed before its first commit
		}
		for range r.in.items {
			in := r.in.items[newest.Load()]
			var n int
			rerr = c.op("http.get", []side{readSide}, func() (err error) {
				n, err = get(client, base, in.label, r.out)
				return err
			})
			if rerr != nil {
				return
			}
			c.checkRestored(in.label, r.out[:n], in.data)
			r.mu.Lock()
			c.res.restoreBytes += int64(n)
			r.mu.Unlock()
		}
	}()
	wg.Wait()
	if err := errors.Join(werr, rerr, stop()); err != nil {
		return err
	}

	// HTTP restores return no statistics, so the simulated restore-of-latest
	// figure comes from one in-process restore after the traffic has ended.
	c.untimed(func() {
		var rs repro.RestoreStats
		if rs, err = c.checkNewest(ctx, st); err != nil {
			r.failf("restore after traffic: %v", err)
		}
		c.res.simRestoreLast = rs.ThroughputMBps()
	})
	return err
}

// walkDir counts the regular files below dir and their bytes.
func walkDir(dir string) (files, bytes int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // a diagnostic count
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}

// removeAll deletes the run root, reporting but not failing on leftovers.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: removing %s: %v\n", dir, err)
	}
}
