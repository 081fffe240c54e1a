package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/blockstore"
	"repro/internal/bloom"
	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/restore"
)

// The ladder: each rung calls one layer in isolation, outside-in, fed the
// first generation of the gens-mem inputs (all unique) and the last
// (duplicate-heavy against the first). A rung repeats until its timed
// sections add up to sizing.rungSeconds; building its inputs and checking
// its outputs stay outside its clock.

// stopwatch accumulates the timed sections of one rung.
type stopwatch struct{ elapsed, limit time.Duration }

func (s *stopwatch) time(fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.elapsed += time.Since(t0)
	return err
}

func (s *stopwatch) more() bool { return s.elapsed < s.limit }

// ladder holds what the rungs share.
type ladder struct {
	ctx    context.Context
	limit  time.Duration
	root   string
	dirs   int
	ins    [2]input         // first and last generation
	chunks [2][]chunk.Chunk // their chunks, fingerprinted (set by chunkAndHash)
	out    []byte
}

func (l *ladder) watch() *stopwatch { return &stopwatch{limit: l.limit} }

func (l *ladder) newDir() string {
	l.dirs++
	return filepath.Join(l.root, fmt.Sprintf("rung%03d", l.dirs))
}

// runRungs runs the whole ladder and returns its metrics by name.
func runRungs(ctx context.Context, cfg config, root string) (map[string]float64, error) {
	pair, err := cfg.sz.generate(false, cfg.seed, func(i, n int) bool { return i == 0 || i == n-1 })
	if err != nil {
		return nil, err
	}
	l := &ladder{
		ctx: ctx, limit: time.Duration(cfg.sz.rungSeconds * float64(time.Second)), root: root,
		ins: [2]input{{"first", pair.items[0].data}, {"last", pair.items[1].data}},
	}
	if l.out, err = mmapAnon(pair.maxLen); err != nil {
		return nil, err
	}
	touch(l.out)
	v := map[string]float64{}
	for _, rung := range []func(map[string]float64) error{
		l.chunkAndHash, l.bloomAndIndex, l.containers, l.restorePipelined, l.engineAndStore, l.http,
	} {
		if err := rung(v); err != nil {
			return nil, fmt.Errorf("rungs: %w", err)
		}
	}
	return v, nil
}

// cut runs the gear chunker over data, calling emit with each chunk.
func cut(data []byte, emit func([]byte)) error {
	g, err := chunker.NewGear(bytes.NewReader(data), chunker.DefaultParams())
	if err != nil {
		return err
	}
	for {
		c, err := g.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		emit(c)
	}
}

// chunkAndHash: chunker.gear_mbps (boundary search alone) and
// chunk.sha256_mbps (fingerprinting pre-cut chunks).
func (l *ladder) chunkAndHash(v map[string]float64) error {
	sw := l.watch()
	var n int64
	for sw.more() {
		for _, in := range l.ins {
			if err := sw.time(func() error { return cut(in.data, func([]byte) {}) }); err != nil {
				return err
			}
			n += int64(len(in.data))
		}
	}
	v["chunker.gear_mbps"] = mbps(n, sw.elapsed)

	// Pre-cut both streams into sub-slices of the off-heap inputs.
	var cuts [2][][]byte
	for i, in := range l.ins {
		off := 0
		err := cut(in.data, func(c []byte) {
			cuts[i] = append(cuts[i], in.data[off:off+len(c)])
			off += len(c)
		})
		if err != nil {
			return err
		}
		l.chunks[i] = make([]chunk.Chunk, len(cuts[i]))
	}
	sw, n = l.watch(), 0
	for sw.more() {
		for i, in := range l.ins {
			t0 := time.Now()
			for j, c := range cuts[i] {
				l.chunks[i][j] = chunk.New(c)
			}
			sw.elapsed += time.Since(t0)
			n += int64(len(in.data))
		}
	}
	v["chunk.sha256_mbps"] = mbps(n, sw.elapsed)
	return nil
}

// bloomAndIndex: the summary vector and the on-disk chunk index, loaded
// with the first generation and probed with the last (hits and negatives).
func (l *ladder) bloomAndIndex(v map[string]float64) error {
	first, last := l.chunks[0], l.chunks[1]
	f := bloom.New(len(first)+len(last), 0.01)
	for _, c := range first {
		f.Add(c.FP)
	}
	sw := l.watch()
	var n, hits int
	for sw.more() {
		t0 := time.Now()
		for _, c := range last {
			if f.MayContain(c.FP) {
				hits++
			}
		}
		sw.elapsed += time.Since(t0)
		n += len(last)
	}
	v["bloom.probe_ns"] = ratio(float64(sw.elapsed), float64(n))

	sw, n = l.watch(), 0
	var ix *cindex.Index
	for sw.more() {
		var err error
		dev := disk.NewDevice(disk.DefaultModel(), &disk.Clock{}, false)
		if ix, err = cindex.New(dev, cindex.DefaultConfig(len(first)+len(last))); err != nil {
			return err
		}
		t0 := time.Now()
		for i, c := range first {
			ix.Insert(c.FP, chunk.Location{Container: uint32(i / 512), Offset: int64(i) * 8192, Size: c.Size})
		}
		ix.Flush()
		sw.elapsed += time.Since(t0)
		n += len(first)
	}
	v["cindex.insert_ns"] = ratio(float64(sw.elapsed), float64(n))

	sw, n, hits = l.watch(), 0, 0
	for sw.more() {
		t0 := time.Now()
		for _, c := range last {
			if _, ok := ix.Lookup(c.FP); ok {
				hits++
			}
		}
		sw.elapsed += time.Since(t0)
		n += len(last)
	}
	v["cindex.lookup_ns"] = ratio(float64(sw.elapsed), float64(n))
	if hits == 0 {
		return errors.New("the last generation shares no chunk with the first")
	}
	return nil
}

// writeContainers pushes every chunk of the first generation through a
// container writer over be, seals the tail and syncs the backend.
func (l *ladder) writeContainers(be blockstore.Backend) (*container.Store, error) {
	dev := disk.NewDevice(disk.DefaultModel(), &disk.Clock{}, false)
	cs, err := container.NewStoreWithBackend(dev, container.DefaultConfig(), be)
	if err != nil {
		return nil, err
	}
	w := cs.SerialWriter()
	for _, c := range l.chunks[0] {
		if _, err := w.Write(l.ctx, c, 1); err != nil {
			return nil, err
		}
	}
	if err := w.Finish(l.ctx); err != nil {
		return nil, err
	}
	return cs, be.Sync(l.ctx)
}

// containers: container.write_sim_mbps and container.write_file_mbps
// (writeContainers onto a fresh backend) and container.read_range_mbps
// (every container just sealed, read back from its files).
func (l *ladder) containers(v map[string]float64) error {
	for _, k := range []struct {
		metric string
		open   func() (blockstore.Backend, error)
	}{
		{"container.write_sim_mbps", func() (blockstore.Backend, error) { return blockstore.NewSim(true), nil }},
		{"container.write_file_mbps", func() (blockstore.Backend, error) { return blockstore.OpenFile(l.newDir(), true) }},
	} {
		sw := l.watch()
		var n int64
		var cs *container.Store
		var be blockstore.Backend
		for sw.more() {
			if be != nil {
				be.Close() //nolint:errcheck // scratch store of the previous iteration
			}
			var err error
			if be, err = k.open(); err != nil {
				return err
			}
			if err := sw.time(func() (err error) { cs, err = l.writeContainers(be); return err }); err != nil {
				be.Close() //nolint:errcheck // surfacing the write error
				return err
			}
			n += int64(len(l.ins[0].data))
		}
		v[k.metric] = mbps(n, sw.elapsed)
		if be.Name() == "file" {
			sw, n = l.watch(), 0
			for sw.more() {
				for id := 0; id < cs.NumContainers(); id++ {
					err := sw.time(func() error {
						out, err := cs.ReadDataRange(l.ctx, []uint32{uint32(id)})
						if err == nil {
							n += int64(len(out[0]))
						}
						return err
					})
					if err != nil {
						be.Close() //nolint:errcheck // surfacing the read error
						return err
					}
				}
			}
			v["container.read_range_mbps"] = mbps(n, sw.elapsed)
		}
		if err := be.Close(); err != nil {
			return err
		}
	}
	return nil
}

// storeOptions is the workloads' store configuration at the rungs' size.
func (l *ladder) storeOptions(backend repro.BackendKind) repro.Options {
	o := repro.Options{
		Engine: repro.DeFrag, Alpha: 0.1, StoreData: true, Backend: backend,
		ExpectedBytes: 2 * int64(len(l.ins[0].data)+len(l.ins[1].data)),
	}
	if backend == repro.FileBackend {
		o.Dir = l.newDir()
	}
	return o
}

func (l *ladder) engine() (*core.Engine, error) {
	cfg := core.DefaultConfig(l.storeOptions(repro.SimBackend).ExpectedBytes)
	cfg.StoreData = true
	return core.New(cfg)
}

// restorePipelined: restore.RunPipelined over the engine's container store,
// without the Store above it.
func (l *ladder) restorePipelined(v map[string]float64) error {
	e, err := l.engine()
	if err != nil {
		return err
	}
	first := l.ins[0].data
	rec, _, err := e.Backup(l.ctx, "first", bytes.NewReader(first))
	if err != nil {
		return err
	}
	cfg := restore.PipelineConfig{CacheContainers: restore.DefaultConfig().CacheContainers, Workers: 1, Verify: true}
	sw := l.watch()
	var n int64
	for sw.more() {
		w := &sliceWriter{buf: l.out}
		err := sw.time(func() error {
			_, err := restore.RunPipelined(l.ctx, e.Containers(), rec, cfg, w)
			return err
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(w.buf[:w.n], first) {
			return errors.New("pipelined restore differs from its input")
		}
		n += int64(w.n)
	}
	v["restore.pipelined_mbps"] = mbps(n, sw.elapsed)
	return nil
}

// ingestRate times ingest(label, data) for the first then the last
// generation, calling fresh before each pair for a new engine or store to
// ingest into and done after it.
func (l *ladder) ingestRate(fresh func() error, ingest func(label string, data []byte) error, done func() error) (float64, error) {
	sw := l.watch()
	var n int64
	for sw.more() {
		if err := fresh(); err != nil {
			return 0, err
		}
		for _, in := range l.ins {
			if err := sw.time(func() error { return ingest(in.label, in.data) }); err != nil {
				return 0, errors.Join(err, done())
			}
			n += int64(len(in.data))
		}
		if err := done(); err != nil {
			return 0, err
		}
	}
	return mbps(n, sw.elapsed), nil
}

// storeIngestRate is ingestRate over a fresh Store on the given backend.
func (l *ladder) storeIngestRate(backend repro.BackendKind, ingest func(st *repro.Store, label string, data []byte) error) (float64, error) {
	var st *repro.Store
	return l.ingestRate(
		func() (err error) { st, err = repro.Open(l.storeOptions(backend)); return err },
		func(label string, data []byte) error { return ingest(st, label, data) },
		func() error { return st.Close() },
	)
}

// engineAndStore: core.backup_mbps (core.Engine.Backup on a fresh engine)
// and store.backup_loss_frac, the share of that rate Store.Backup loses.
func (l *ladder) engineAndStore(v map[string]float64) error {
	var e *core.Engine
	engineRate, err := l.ingestRate(
		func() (err error) { e, err = l.engine(); return err },
		func(label string, data []byte) error {
			_, _, err := e.Backup(l.ctx, label, bytes.NewReader(data))
			return err
		},
		func() error { return nil },
	)
	if err != nil {
		return err
	}
	storeRate, err := l.storeIngestRate(repro.SimBackend, func(st *repro.Store, label string, data []byte) error {
		_, err := st.Backup(l.ctx, label, bytes.NewReader(data))
		return err
	})
	if err != nil {
		return err
	}
	v["core.backup_mbps"] = engineRate
	v["store.backup_loss_frac"] = 1 - ratio(storeRate, engineRate)
	return nil
}

// http: serve.post_1c_mbps and serve.get_1c_mbps (one closed-loop client
// over loopback onto the file backend) and serve.ingest_loss_frac, the
// share of the in-process Store.IngestStream rate the HTTP path loses.
func (l *ladder) http(v map[string]float64) error {
	direct, err := l.storeIngestRate(repro.FileBackend, func(st *repro.Store, label string, data []byte) error {
		_, err := st.IngestStream(l.ctx, label, bytes.NewReader(data))
		return err
	})
	if err != nil {
		return err
	}

	client := &http.Client{}
	defer client.CloseIdleConnections()
	var st *repro.Store
	var base string
	var stop func() error
	gets := l.watch()
	var got int64
	posts, err := l.ingestRate(
		func() (err error) {
			if st, err = repro.Open(l.storeOptions(repro.FileBackend)); err != nil {
				return err
			}
			if base, stop, err = serveStore(l.ctx, st); err != nil {
				return errors.Join(err, st.Close())
			}
			return nil
		},
		func(label string, data []byte) error {
			_, err := post(client, base, label, data)
			return err
		},
		func() (err error) { // outside the POST clock: read both back, drain, close
			for _, in := range l.ins {
				var n int
				if err == nil {
					err = gets.time(func() (err error) { n, err = get(client, base, in.label, l.out); return err })
				}
				if err == nil && !bytes.Equal(l.out[:n], in.data) {
					err = fmt.Errorf("GET %s differs from its input", in.label)
				}
				got += int64(n)
			}
			return errors.Join(err, stop(), st.Close())
		},
	)
	if err != nil {
		return err
	}
	v["serve.post_1c_mbps"] = posts
	v["serve.get_1c_mbps"] = mbps(got, gets.elapsed)
	v["serve.ingest_loss_frac"] = 1 - ratio(posts, direct)
	return nil
}
