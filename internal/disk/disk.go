// Package disk provides the simulated storage substrate that all
// performance results in this reproduction are measured against.
//
// The paper's three headline metrics — deduplication throughput,
// deduplication efficiency, and data read performance — are disk-bound
// quantities on the authors' testbed. We reproduce them with an analytic
// timing model rather than real hardware:
//
//   - a Device is a log-structured, byte-addressed extent map with a tracked
//     head position; any access that is not contiguous with the current
//     position costs one seek (Model.Seek), and every byte moves at the
//     sequential bandwidth (Model.ReadBW / Model.WriteBW). This is exactly
//     the cost structure of the paper's Eq. 1,
//     F(read) = N·T_seek + size/W_seq.
//   - a Clock accumulates simulated time across all devices and the CPU
//     cost model, so throughput = bytes / clock time.
//
// A Device holds no bytes: it charges time and counts. The bytes live in a
// blockstore.Backend; the device's storeData flag only tells the container
// store whether its default backend keeps them.
//
// Concurrency: Clock is atomic and Device state is mutex-guarded, so
// multiple backup streams may drive the same device in parallel. Each
// stream charges its own Clock through a device *view* (see Device.View):
// views share all device state — head position, frontier, stats — but route
// time charges to a per-stream clock, which is what makes per-stream
// throughput measurable under concurrent ingest.
package disk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Model holds the physical parameters of a simulated disk.
type Model struct {
	Seek    time.Duration // cost of one discontiguous access (seek + rotational latency)
	ReadBW  float64       // sequential read bandwidth, bytes/second
	WriteBW float64       // sequential write bandwidth, bytes/second
}

// DefaultModel returns parameters representative of the paper era's backup
// storage (a small striped array of 7.2k rpm disks): 4 ms per random access
// and ~350/300 MB/s sequential read/write. EXPERIMENTS.md documents how these
// calibrate the absolute throughput numbers.
func DefaultModel() Model {
	return Model{
		Seek:    4 * time.Millisecond,
		ReadBW:  350e6,
		WriteBW: 300e6,
	}
}

// ReadTime returns the transfer time for n sequential bytes.
func (m Model) ReadTime(n int64) time.Duration {
	return time.Duration(float64(n) / m.ReadBW * float64(time.Second))
}

// WriteTime returns the transfer time for n sequential bytes.
func (m Model) WriteTime(n int64) time.Duration {
	return time.Duration(float64(n) / m.WriteBW * float64(time.Second))
}

// Clock accumulates simulated time. One Clock is shared by every device and
// cost source participating in an experiment. Advance/Now are atomic, so
// concurrent backup streams can charge and read a clock without extra
// locking.
type Clock struct{ t atomic.Int64 }

// Advance adds d to the clock. Negative d panics: simulated time is monotone.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("disk: clock cannot go backwards")
	}
	c.t.Add(int64(d))
}

// Now returns the accumulated simulated time.
func (c *Clock) Now() time.Duration { return time.Duration(c.t.Load()) }

// Seconds returns the accumulated time in seconds.
func (c *Clock) Seconds() float64 { return c.Now().Seconds() }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.t.Store(0) }

// Stats are cumulative per-device counters.
type Stats struct {
	Seeks        int64
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

func (s Stats) String() string {
	return fmt.Sprintf("seeks=%d reads=%d(%dB) writes=%d(%dB)",
		s.Seeks, s.Reads, s.BytesRead, s.Writes, s.BytesWritten)
}

// devState is the shared core of a simulated device. All views of one
// device point at the same devState; its mutex serializes every access, so
// concurrent streams contend for the head position exactly as they would on
// a real shared spindle.
type devState struct {
	mu       sync.Mutex
	model    Model
	pos      int64 // current head position
	frontier int64 // append point (device size so far)
	stores   bool
	stats    Stats
}

// Device is a simulated log-structured disk. Writes append at the frontier
// or land in reserved space behind it; reads address any range below it. The
// head position is tracked: contiguous accesses are free of seeks,
// discontiguous ones pay Model.Seek.
//
// A Device value is a handle: View returns a second handle onto the same
// underlying device that charges its time to a different clock. All handles
// are safe for concurrent use.
type Device struct {
	st    *devState
	clock *Clock
}

// NewDevice creates a device over model and clock. storeData is what
// StoresData reports: whether the store above keeps real chunk bytes.
func NewDevice(model Model, clock *Clock, storeData bool) *Device {
	if clock == nil {
		panic("disk: nil clock")
	}
	// The head starts parked away from the log (pos -1), so the first access
	// of any fresh device pays one seek, matching the paper's Eq. 1 where
	// even a fully contiguous read costs 1·T_seek.
	return &Device{st: &devState{model: model, stores: storeData, pos: -1}, clock: clock}
}

// View returns a handle onto the same device that charges simulated time to
// clk instead of this handle's clock. Head position, frontier and stats are
// shared with every other view; only the time destination differs. A nil clk
// returns the receiver unchanged.
func (d *Device) View(clk *Clock) *Device {
	if clk == nil {
		return d
	}
	return &Device{st: d.st, clock: clk}
}

// StoresData reports the storeData flag the device was made with.
func (d *Device) StoresData() bool { return d.st.stores }

// Size returns the number of bytes written so far (the append frontier).
func (d *Device) Size() int64 {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	return d.st.frontier
}

// Stats returns the cumulative counters.
func (d *Device) Stats() Stats {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	return d.st.stats
}

// Model returns the device's timing model.
func (d *Device) Model() Model { return d.st.model }

// Clock returns the clock this handle charges time to.
func (d *Device) Clock() *Clock { return d.clock }

// seekTo charges a seek if the head is not already at off. Caller holds mu.
func (d *Device) seekTo(off int64) {
	if d.st.pos != off {
		d.st.stats.Seeks++
		d.clock.Advance(d.st.model.Seek)
		d.st.pos = off
	}
}

// AppendHole charges an n-byte write at the frontier, a seek first if the
// head is elsewhere, and returns its offset.
func (d *Device) AppendHole(n int64) int64 {
	if n < 0 {
		panic("disk: negative append")
	}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	off := d.st.frontier
	d.seekTo(off)
	d.clock.Advance(d.st.model.WriteTime(n))
	d.st.frontier += n
	d.st.pos = off + n
	d.st.stats.Writes++
	d.st.stats.BytesWritten += n
	return off
}

// ReserveExtent advances the frontier by n bytes without charging any time
// and returns the reserved offset. It is space allocation, not I/O: a
// concurrent container writer reserves its container's full extent up front
// so parallel streams can assign stable chunk offsets, then pays the actual
// write cost when the buffered container seals (see AccountWrite).
func (d *Device) ReserveExtent(n int64) int64 {
	if n < 0 {
		panic("disk: negative reservation")
	}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	off := d.st.frontier
	d.st.frontier += n
	return off
}

// ResizeLast moves the end of the extent ending at end to newEnd, if that
// extent is still the last one — nothing has been reserved or appended
// behind it — and reports whether it did. It charges no time: a writer that
// reserved room for a whole container gives back what the container did not
// fill, or takes what a chunk larger than the data section overfilled.
func (d *Device) ResizeLast(end, newEnd int64) bool {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	if d.st.frontier != end {
		return false
	}
	d.st.frontier = newEnd
	return true
}

// AccountWrite charges the time of an n-byte write at off into previously
// reserved space: a seek if the head is elsewhere, then the transfer.
// Writing beyond the frontier panics: reservations must cover the range
// first.
func (d *Device) AccountWrite(off, n int64) {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	if off < 0 || n < 0 || off+n > d.st.frontier {
		panic(fmt.Sprintf("disk: write [%d,%d) beyond frontier %d", off, off+n, d.st.frontier))
	}
	d.seekTo(off)
	d.clock.Advance(d.st.model.WriteTime(n))
	d.st.pos = off + n
	d.st.stats.Writes++
	d.st.stats.BytesWritten += n
}

// AccountRead charges an n-byte read at off as one sequential extent: a seek
// if the head is elsewhere, then the transfer. k adjacent containers read
// through one call pay 1·T_seek in the Eq. 1 cost model where k separate
// calls would pay k·T_seek. Reading beyond the frontier panics — it
// indicates a logic bug in a caller, never valid input.
func (d *Device) AccountRead(off, n int64) {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	if off < 0 || n < 0 || off+n > d.st.frontier {
		panic(fmt.Sprintf("disk: read [%d,%d) beyond frontier %d", off, off+n, d.st.frontier))
	}
	d.seekTo(off)
	d.clock.Advance(d.st.model.ReadTime(n))
	d.st.pos = off + n
	d.st.stats.Reads++
	d.st.stats.BytesRead += n
}
