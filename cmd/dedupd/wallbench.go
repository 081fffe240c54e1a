package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro"
	"repro/internal/blockstore"
	"repro/internal/workload"
)

// wallbenchParams configures the -wallbench mode: an in-process GOMAXPROCS ×
// streams ingest sweep measuring real wall-clock scaling of the parallel
// chunk/hash pipeline, written to BENCH_PR7.json. Unlike -loadgen (which
// drives a remote server over HTTP and measures the service), the wallbench
// opens a fresh store per cell and calls the engine directly, so the numbers
// isolate the ingest pipeline from transport.
type wallbenchParams struct {
	out     string
	procs   string // GOMAXPROCS values to sweep ("" = host setting only)
	streams string // stream concurrency values to sweep
	tenants int    // fixed tenant count ingested by every cell
	gens    int
	files   int
	fileKB  int64
	seed    int64
	floor   float64 // minimum 8-vs-1-stream wall speedup when enforced

	// Restore sweep (-wallbench.restore): decode workers × shared-cache
	// budgets restored over the same fixed workload, written to restoreOut.
	restore        bool
	restoreOut     string
	restoreWorkers string // decode worker counts to sweep
	restoreCacheMB string // shared sealed-container cache budgets in MB
	restoreFloor   float64

	engine  string
	alpha   float64
	workers int
}

// wallCell is one sweep cell: the same fixed workload ingested under a
// specific (GOMAXPROCS, stream concurrency) pair.
type wallCell struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Streams      int     `json:"streams"`
	Workers      int     `json:"workers"`
	IngestBytes  int64   `json:"ingestBytes"`
	WallSeconds  float64 `json:"wallSeconds"`
	MBps         float64 `json:"mbps"`
	StoredBytes  int64   `json:"storedBytes"`
	DedupRatio   float64 `json:"dedupRatio"`
	SimSeconds   float64 `json:"simSeconds"`
	AllVerified  bool    `json:"allVerified"`
	RecipeDigest string  `json:"recipeDigest"`
}

// wallSpeedup records, per GOMAXPROCS value, how much faster the highest
// stream count ran than one stream on the identical workload.
type wallSpeedup struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	BaseStreams int     `json:"baseStreams"`
	TopStreams  int     `json:"topStreams"`
	Speedup     float64 `json:"speedup"`
}

// wallReport is BENCH_PR7.json.
type wallReport struct {
	Config struct {
		Engine  string `json:"engine"`
		Tenants int    `json:"tenants"`
		Gens    int    `json:"gens"`
		Files   int    `json:"files"`
		FileKB  int64  `json:"fileKB"`
		Seed    int64  `json:"seed"`
	} `json:"config"`
	HostCPUs int `json:"hostCPUs"`

	// Determinism pins the dual-clock contract at the system level: the same
	// single-stream workload ingested with Workers=1 (hashing inline) and
	// Workers=auto (hashing on a worker pool) must produce byte-identical recipes
	// and the same charged simulated time — wall parallelism buys wall time
	// only.
	Determinism struct {
		SerialRecipeDigest   string  `json:"serialRecipeDigest"`
		ParallelRecipeDigest string  `json:"parallelRecipeDigest"`
		RecipesIdentical     bool    `json:"recipesIdentical"`
		SerialSimSeconds     float64 `json:"serialSimSeconds"`
		ParallelSimSeconds   float64 `json:"parallelSimSeconds"`
		SimIdentical         bool    `json:"simIdentical"`
	} `json:"determinism"`

	Cells    []wallCell    `json:"cells"`
	Speedups []wallSpeedup `json:"speedups"`

	// Floor is the acceptance gate: with FloorStreams streams the workload
	// must ingest at least Floor× faster than with one stream. The gate only
	// binds (FloorEnforced) when the host has enough cores for the target
	// parallelism to exist — on smaller runners the sweep still runs and the
	// numbers are recorded, but the floor is advisory.
	Floor         float64 `json:"floor"`
	FloorStreams  int     `json:"floorStreams"`
	FloorEnforced bool    `json:"floorEnforced"`
	Pass          bool    `json:"pass"`
	Note          string  `json:"note"`
}

// wallTenant is one tenant's pre-materialized backup generations; content is
// generated once so every cell ingests identical bytes and generation time
// never pollutes the timed region.
type wallTenant struct {
	name   string
	gens   [][]byte
	hashes []string // sha256 per generation, for restore verification
}

func runWallbench(p wallbenchParams) error {
	procs, err := parseSweep(p.procs)
	if err != nil {
		return fmt.Errorf("wallbench: -wallbench.procs: %w", err)
	}
	if len(procs) == 0 {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	streams, err := parseSweep(p.streams)
	if err != nil {
		return fmt.Errorf("wallbench: -wallbench.streams: %w", err)
	}
	if len(streams) == 0 {
		streams = []int{1, 2, 4, 8}
	}
	if p.tenants < 1 || p.gens < 1 {
		return fmt.Errorf("wallbench: need at least 1 tenant and 1 generation")
	}

	tenants, err := buildWallWorkload(p)
	if err != nil {
		return err
	}

	rep := wallReport{HostCPUs: runtime.NumCPU(), Floor: p.floor, FloorStreams: 8}
	rep.Config.Engine = p.engine
	rep.Config.Tenants = p.tenants
	rep.Config.Gens = p.gens
	rep.Config.Files = p.files
	rep.Config.FileKB = p.fileKB
	rep.Config.Seed = p.seed
	rep.Note = "each cell ingests the identical pre-materialized workload through a fresh in-process store (sim backend); " +
		"the floor binds only when the host has >= floorStreams CPUs and the sweep includes 1 and floorStreams streams"

	maxProcs := procs[0]
	for _, g := range procs {
		if g > maxProcs {
			maxProcs = g
		}
	}

	// Determinism pair: single stream, serial vs parallel pipeline.
	serialCell, err := runWallCell(p, tenants, maxProcs, 1, 1)
	if err != nil {
		return err
	}
	parCell, err := runWallCell(p, tenants, maxProcs, 1, 0)
	if err != nil {
		return err
	}
	rep.Determinism.SerialRecipeDigest = serialCell.RecipeDigest
	rep.Determinism.ParallelRecipeDigest = parCell.RecipeDigest
	rep.Determinism.RecipesIdentical = serialCell.RecipeDigest == parCell.RecipeDigest
	rep.Determinism.SerialSimSeconds = serialCell.SimSeconds
	rep.Determinism.ParallelSimSeconds = parCell.SimSeconds
	rep.Determinism.SimIdentical = serialCell.SimSeconds == parCell.SimSeconds

	// The sweep proper.
	verified := serialCell.AllVerified && parCell.AllVerified
	storedWant := serialCell.StoredBytes
	storedConsistent := parCell.StoredBytes == storedWant
	for _, g := range procs {
		for _, s := range streams {
			cell, err := runWallCell(p, tenants, g, s, p.workers)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, cell)
			verified = verified && cell.AllVerified
			storedConsistent = storedConsistent && cell.StoredBytes == storedWant
			fmt.Printf("wallbench: GOMAXPROCS=%d streams=%d: %.1f MB in %.3fs (%.1f MB/s, dedup %.2fx)\n",
				g, s, float64(cell.IngestBytes)/1e6, cell.WallSeconds, cell.MBps, cell.DedupRatio)
		}
	}

	// Per-GOMAXPROCS speedup: slowest-streams cell vs highest-streams cell.
	for _, g := range procs {
		var base, top *wallCell
		for i := range rep.Cells {
			c := &rep.Cells[i]
			if c.GOMAXPROCS != g {
				continue
			}
			if base == nil || c.Streams < base.Streams {
				base = c
			}
			if top == nil || c.Streams > top.Streams {
				top = c
			}
		}
		if base == nil || top == nil || base.Streams == top.Streams || top.WallSeconds == 0 {
			continue
		}
		rep.Speedups = append(rep.Speedups, wallSpeedup{
			GOMAXPROCS: g, BaseStreams: base.Streams, TopStreams: top.Streams,
			Speedup: base.WallSeconds / top.WallSeconds,
		})
	}

	// The floor gate: enforced only where the parallelism it asserts can
	// physically exist.
	rep.Pass = verified && storedConsistent && rep.Determinism.RecipesIdentical && rep.Determinism.SimIdentical
	var gateSpeedup float64
	for _, sp := range rep.Speedups {
		if sp.GOMAXPROCS >= rep.FloorStreams && sp.BaseStreams == 1 && sp.TopStreams >= rep.FloorStreams {
			rep.FloorEnforced = runtime.NumCPU() >= rep.FloorStreams
			gateSpeedup = sp.Speedup
		}
	}
	if rep.FloorEnforced && gateSpeedup < rep.Floor {
		rep.Pass = false
	}

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := blockstore.WriteFileAtomic(p.out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wallbench: report → %s (pass=%v, floorEnforced=%v", p.out, rep.Pass, rep.FloorEnforced)
	if gateSpeedup > 0 {
		fmt.Printf(", %d-stream speedup %.2fx vs floor %.1fx", rep.FloorStreams, gateSpeedup, rep.Floor)
	}
	fmt.Println(")")

	switch {
	case !verified:
		return fmt.Errorf("wallbench: restored content diverged from ingested content")
	case !storedConsistent:
		return fmt.Errorf("wallbench: stored bytes (dedup outcome) differ across cells")
	case !rep.Determinism.RecipesIdentical:
		return fmt.Errorf("wallbench: parallel pipeline produced different recipes than serial")
	case !rep.Determinism.SimIdentical:
		return fmt.Errorf("wallbench: parallel pipeline altered charged simulated time")
	case !rep.Pass:
		return fmt.Errorf("wallbench: %d-stream speedup %.2fx below floor %.1fx", rep.FloorStreams, gateSpeedup, rep.Floor)
	}
	return nil
}

// buildWallWorkload materializes every tenant's generations up front.
func buildWallWorkload(p wallbenchParams) ([]*wallTenant, error) {
	tenants := make([]*wallTenant, p.tenants)
	for t := range tenants {
		cfg := workload.DefaultConfig(p.seed*1000003 + int64(t)*7919)
		cfg.NumFiles = p.files
		cfg.MeanFileSize = p.fileKB << 10
		sched, err := workload.NewSingle(cfg)
		if err != nil {
			return nil, err
		}
		wt := &wallTenant{name: fmt.Sprintf("t%d", t)}
		for g := 0; g < p.gens; g++ {
			bk := sched.Next()
			data, err := io.ReadAll(bk.Stream)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(data)
			wt.gens = append(wt.gens, data)
			wt.hashes = append(wt.hashes, hex.EncodeToString(sum[:]))
		}
		tenants[t] = wt
	}
	return tenants, nil
}

// runWallCell ingests the full workload into a fresh store under the given
// GOMAXPROCS and stream concurrency: each generation is one BackupStreams
// round over all tenants (generations stay sequential per tenant, which is
// what makes them dedup against each other), and only the ingest calls are
// inside the timed region.
func runWallCell(p wallbenchParams, tenants []*wallTenant, gomaxprocs, streamConc, workers int) (wallCell, error) {
	cell := wallCell{GOMAXPROCS: gomaxprocs, Streams: streamConc, Workers: workers}
	prev := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(prev)

	kind, err := repro.ParseEngineKind(p.engine)
	if err != nil {
		return cell, err
	}
	var logical int64
	for _, t := range tenants {
		for _, g := range t.gens {
			logical += int64(len(g))
		}
	}
	st, err := repro.Open(repro.Options{
		Engine:        kind,
		Alpha:         p.alpha,
		ExpectedBytes: logical,
		StoreData:     true,
		Workers:       workers,
	})
	if err != nil {
		return cell, err
	}
	defer st.Close() //nolint:errcheck // sim backend; read errors surface below

	ctx := context.Background()
	var wall time.Duration
	for g := 0; g < p.gens; g++ {
		inputs := make([]repro.StreamInput, len(tenants))
		for i, t := range tenants {
			inputs[i] = repro.StreamInput{
				Label:  fmt.Sprintf("%s/gen%d", t.name, g),
				Stream: bytes.NewReader(t.gens[g]),
			}
		}
		t0 := time.Now()
		if _, _, err := st.BackupStreams(ctx, inputs, streamConc); err != nil {
			return cell, fmt.Errorf("wallbench: gen %d: %w", g, err)
		}
		wall += time.Since(t0)
	}

	cell.IngestBytes = logical
	cell.WallSeconds = wall.Seconds()
	if cell.WallSeconds > 0 {
		cell.MBps = float64(logical) / cell.WallSeconds / 1e6
	}
	stats := st.Stats()
	cell.StoredBytes = stats.StoredBytes
	cell.DedupRatio = stats.CompressionRatio
	cell.SimSeconds = st.SimulatedTime().Seconds()

	// Restore-verify every backup against the hash recorded at generation
	// time, and digest every recipe (in ingest label order) so cells can be
	// compared for bit-identical dedup decisions.
	cell.AllVerified = true
	rh := sha256.New()
	for _, t := range tenants {
		for g := range t.gens {
			label := fmt.Sprintf("%s/gen%d", t.name, g)
			b := st.FindBackup(label)
			if b == nil {
				return cell, fmt.Errorf("wallbench: backup %q missing after ingest", label)
			}
			h := sha256.New()
			if _, err := st.Restore(ctx, b, h, true); err != nil {
				return cell, fmt.Errorf("wallbench: restore %q: %w", label, err)
			}
			if hex.EncodeToString(h.Sum(nil)) != t.hashes[g] {
				cell.AllVerified = false
			}
			if err := b.WriteRecipe(rh); err != nil {
				return cell, err
			}
		}
	}
	cell.RecipeDigest = hex.EncodeToString(rh.Sum(nil))
	return cell, nil
}
