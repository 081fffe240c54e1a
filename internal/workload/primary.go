package workload

import (
	"fmt"
	"io"
	"math/rand"
)

// PrimaryConfig parameterizes the primary-storage scenario: several live
// volumes that each emit a window of block writes per round, with mixed
// hot/cold temporal locality in the duplicate structure (after HPDedup,
// arXiv 1702.08153).
//
// Every volume writes DupFraction of its blocks as repeats of blocks it has
// written before; what differs is *where* those repeats come from. A
// clustered volume re-reads runs out of its recent hot window — the cache-
// and locality-friendly shape inline dedup thrives on. A dispersed volume
// repeats runs drawn uniformly from its entire history — every run lands in
// a different cold container, so inline dedup pays an index miss and a
// metadata prefetch per run for little amortization. The engine's inline
// filter exists to tell these two apart at ingest time.
type PrimaryConfig struct {
	Seed        int64
	Streams     int     // live volumes (default 4)
	StreamBytes int64   // bytes written per volume per round (default 8 MiB)
	BlockSize   int     // write granularity (default 4 KiB)
	DupFraction float64 // fraction of blocks repeating earlier writes (default 0.45)
	// ClusteredStreams is the fraction of volumes whose duplicates cluster;
	// the rest disperse. Volume i is clustered iff i < round(frac·Streams),
	// so adding volumes never reassigns existing ones. Default 0.5.
	ClusteredStreams float64
	RunBlocks        int // mean duplicate-run length in blocks (default 16)
	// HotWindow is how far back (in unique blocks) a clustered volume's
	// repeats reach. Default 512.
	HotWindow int
}

// DefaultPrimaryConfig returns the standard primary-storage profile.
func DefaultPrimaryConfig(seed int64) PrimaryConfig {
	return PrimaryConfig{
		Seed:             seed,
		Streams:          4,
		StreamBytes:      8 << 20,
		BlockSize:        4 << 10,
		DupFraction:      0.45,
		ClusteredStreams: 0.5,
		RunBlocks:        16,
		HotWindow:        512,
	}
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	d := DefaultPrimaryConfig(c.Seed)
	if c.Streams <= 0 {
		c.Streams = d.Streams
	}
	if c.StreamBytes <= 0 {
		c.StreamBytes = d.StreamBytes
	}
	if c.BlockSize <= 0 {
		c.BlockSize = d.BlockSize
	}
	if c.DupFraction == 0 {
		c.DupFraction = d.DupFraction
	}
	if c.ClusteredStreams == 0 {
		c.ClusteredStreams = d.ClusteredStreams
	}
	if c.RunBlocks <= 0 {
		c.RunBlocks = d.RunBlocks
	}
	if c.HotWindow <= 0 {
		c.HotWindow = d.HotWindow
	}
	return c
}

func (c PrimaryConfig) validate() error {
	if c.DupFraction < 0 || c.DupFraction > 1 || c.ClusteredStreams < 0 || c.ClusteredStreams > 1 {
		return fmt.Errorf("workload: primary fractions out of [0,1] in %+v", c)
	}
	return nil
}

// blockRun is one planned run of a primary window: n consecutive blocks
// whose content is unique-block indices [start, start+n) of the volume.
type blockRun struct {
	start int64
	n     int64
}

// primaryVolume is the per-volume generator state. Its bytes depend only on
// (cfg.Seed, id, round) — never on sibling volumes — so schedules with
// different Streams counts produce identical streams for shared ids.
type primaryVolume struct {
	cfg       PrimaryConfig
	id        int
	clustered bool
	hist      int64 // unique blocks written across all rounds so far
	round     int
}

// window plans and frames the volume's next write window.
func (v *primaryVolume) window() Backup {
	rng := rand.New(rand.NewSource(DeriveSeed(v.cfg.Seed, "primary-window", int64(v.id)<<24|int64(v.round))))
	blocks := v.cfg.StreamBytes / int64(v.cfg.BlockSize)
	if blocks < 1 {
		blocks = 1
	}
	var runs []blockRun
	remaining := blocks
	for remaining > 0 {
		n := int64(1 + rng.Intn(2*v.cfg.RunBlocks))
		if n > remaining {
			n = remaining
		}
		if rng.Float64() < v.cfg.DupFraction && v.hist >= n {
			// Duplicate run: clustered volumes reach into the recent hot
			// window; dispersed volumes reach uniformly across all history.
			var start int64
			if v.clustered {
				reach := int64(v.cfg.HotWindow)
				if reach > v.hist {
					reach = v.hist
				}
				start = v.hist - reach + rng.Int63n(reach)
			} else {
				start = rng.Int63n(v.hist)
			}
			if start+n > v.hist {
				start = v.hist - n
			}
			runs = append(runs, blockRun{start: start, n: n})
		} else {
			runs = append(runs, blockRun{start: v.hist, n: n})
			v.hist += n
		}
		remaining -= n
	}
	size := blocks*int64(v.cfg.BlockSize) + 64
	b := Backup{
		Label: fmt.Sprintf("p%d/r%02d", v.id, v.round),
		User:  v.id,
		Gen:   v.round,
		Size:  size,
		Stream: &primaryReader{
			det:       NewDetRand(DeriveSeed(v.cfg.Seed, "primary-volume", int64(v.id)), "blocks"),
			runs:      runs,
			blockSize: int64(v.cfg.BlockSize),
			hdr:       headerFor(uint64(v.id)<<32|uint64(v.round), size-64),
		},
	}
	v.round++
	return b
}

// Primary is the primary-storage Schedule: volumes take turns round-robin,
// each Next() emitting one volume's next write window.
type Primary struct {
	cfg     PrimaryConfig
	volumes []*primaryVolume
	next    int
}

// NewPrimary builds the schedule.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Primary{cfg: cfg}
	nClustered := int(cfg.ClusteredStreams*float64(cfg.Streams) + 0.5)
	for i := 0; i < cfg.Streams; i++ {
		p.volumes = append(p.volumes, &primaryVolume{cfg: cfg, id: i, clustered: i < nClustered})
	}
	return p, nil
}

// Streams returns the volume count.
func (p *Primary) Streams() int { return len(p.volumes) }

// Next implements Schedule.
func (p *Primary) Next() Backup {
	b := p.volumes[p.next].window()
	p.next = (p.next + 1) % len(p.volumes)
	return b
}

// NextRound returns one window from every volume, in volume order.
func (p *Primary) NextRound() []Backup {
	round := make([]Backup, len(p.volumes))
	for i := range round {
		round[i] = p.Next()
	}
	return round
}

// primaryReader frames one window: a 64-byte window header, then the planned
// runs. Block b's content is keystream bytes [b·blockSize, (b+1)·blockSize)
// of the volume's DetRand, so repeats are bit-identical wherever they occur.
type primaryReader struct {
	det       *DetRand
	runs      []blockRun
	blockSize int64
	hdr       [64]byte
	hdrOff    int
	ri        int
	off       int64 // byte offset within the current run
}

func (r *primaryReader) Read(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		if r.hdrOff < len(r.hdr) {
			n := copy(p[total:], r.hdr[r.hdrOff:])
			r.hdrOff += n
			total += n
			continue
		}
		if r.ri >= len(r.runs) {
			if total > 0 {
				return total, nil
			}
			return 0, io.EOF
		}
		run := r.runs[r.ri]
		runBytes := run.n * r.blockSize
		n := int64(len(p) - total)
		if remain := runBytes - r.off; n > remain {
			n = remain
		}
		r.det.FillAt(p[total:total+int(n)], run.start*r.blockSize+r.off)
		r.off += n
		total += int(n)
		if r.off == runBytes {
			r.ri++
			r.off = 0
		}
	}
	return total, nil
}

var _ Schedule = (*Primary)(nil)
