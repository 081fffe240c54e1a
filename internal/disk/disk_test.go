package disk

import (
	"testing"
	"testing/quick"
	"time"
)

func testModel() Model {
	return Model{Seek: 10 * time.Millisecond, ReadBW: 100e6, WriteBW: 100e6}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(500 * time.Millisecond)
	if c.Now() != 1500*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	if c.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", c.Seconds())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestClockMonotonePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance must panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestNewDeviceNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDevice(testModel(), nil, false)
}

func TestAppendSequentialCostsOneSeek(t *testing.T) {
	var c Clock
	d := NewDevice(testModel(), &c, false)
	d.AppendHole(1000)
	d.AppendHole(1000)
	d.AppendHole(1000)
	st := d.Stats()
	if st.Seeks != 1 {
		t.Fatalf("sequential appends should seek once, got %d", st.Seeks)
	}
	if st.BytesWritten != 3000 || st.Writes != 3 {
		t.Fatalf("stats = %+v", st)
	}
	want := 10*time.Millisecond + testModel().WriteTime(3000)
	if c.Now() != want {
		t.Fatalf("clock = %v, want %v", c.Now(), want)
	}
}

// TestAppendHoleOnStoringDevice: the storeData flag is reported and nothing
// else; a device made with it charges and counts exactly what one made
// without it does.
func TestAppendHoleOnStoringDevice(t *testing.T) {
	var cs, ch Clock
	storing, hole := NewDevice(testModel(), &cs, true), NewDevice(testModel(), &ch, false)
	if !storing.StoresData() || hole.StoresData() {
		t.Fatal("StoresData does not report the flag")
	}
	for _, d := range []*Device{storing, hole} {
		d.AppendHole(8)
		d.AppendHole(2)
		d.AccountRead(8, 2)
		d.AccountRead(0, 10)
	}
	if cs.Now() != ch.Now() || storing.Stats() != hole.Stats() || storing.Size() != hole.Size() {
		t.Fatalf("storing device %v %+v size %d, hole device %v %+v size %d",
			cs.Now(), storing.Stats(), storing.Size(), ch.Now(), hole.Stats(), hole.Size())
	}
}

// TestCharges is Eq. 1 per access: a seek is charged only when the head is
// not already where the access starts, transfer at the model's sequential
// bandwidth, and the head ends up past the access — through each of the
// three charged calls. Reserving and resizing the last extent charge
// nothing; a resize moves the frontier only while its extent is the last.
func TestCharges(t *testing.T) {
	m := Model{Seek: 10 * time.Millisecond, ReadBW: 100e6, WriteBW: 50e6}
	// The head starts parked off the log, so a fresh device's first access
	// seeks even at offset 0.
	type op struct {
		kind   string // "append", "reserve", "resize", "write" or "read"
		off, n int64  // off is ignored by append and reserve; resize moves the end off to n
		seek   bool
		// resized and frontier are what a resize reports and leaves.
		resized  bool
		frontier int64
		xfer     time.Duration
		reads    int64
		writes   int64
	}
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"appends: one seek, then contiguous", []op{
			{kind: "append", n: 1000, seek: true, xfer: m.WriteTime(1000), writes: 1},
			{kind: "append", n: 500, xfer: m.WriteTime(500), writes: 1},
		}},
		{"reads: contiguous free of seeks, a jump pays one", []op{
			{kind: "append", n: 4000, seek: true, xfer: m.WriteTime(4000), writes: 1},
			{kind: "read", off: 0, n: 1000, seek: true, xfer: m.ReadTime(1000), reads: 1},
			{kind: "read", off: 1000, n: 1000, xfer: m.ReadTime(1000), reads: 1},
			{kind: "read", off: 3000, n: 1000, seek: true, xfer: m.ReadTime(1000), reads: 1},
			{kind: "read", off: 3000, n: 0, seek: true, reads: 1},
		}},
		{"writes into reserved space", []op{
			{kind: "reserve", n: 4096},
			{kind: "write", off: 0, n: 1024, seek: true, xfer: m.WriteTime(1024), writes: 1},
			{kind: "write", off: 1024, n: 1024, xfer: m.WriteTime(1024), writes: 1},
			{kind: "write", off: 3072, n: 1024, seek: true, xfer: m.WriteTime(1024), writes: 1},
			{kind: "append", n: 10, xfer: m.WriteTime(10), writes: 1},
		}},
		{"a write then reading it back seeks back", []op{
			{kind: "append", n: 2048, seek: true, xfer: m.WriteTime(2048), writes: 1},
			{kind: "read", off: 0, n: 2048, seek: true, xfer: m.ReadTime(2048), reads: 1},
			{kind: "append", n: 1, xfer: m.WriteTime(1), writes: 1},
		}},
		{"a last extent shrinks to its fill, and the next append follows it", []op{
			{kind: "reserve", n: 4096},
			{kind: "resize", off: 4096, n: 1024, resized: true, frontier: 1024},
			{kind: "write", off: 0, n: 1024, seek: true, xfer: m.WriteTime(1024), writes: 1},
			{kind: "append", n: 10, xfer: m.WriteTime(10), writes: 1},
		}},
		{"a last extent grows for an oversized fill", []op{
			{kind: "reserve", n: 4096},
			{kind: "resize", off: 4096, n: 6000, resized: true, frontier: 6000},
			{kind: "write", off: 0, n: 6000, seek: true, xfer: m.WriteTime(6000), writes: 1},
		}},
		{"an extent with a reservation behind it keeps its size", []op{
			{kind: "reserve", n: 4096},
			{kind: "reserve", n: 4096},
			{kind: "resize", off: 4096, n: 1024, frontier: 8192},
			{kind: "write", off: 0, n: 1024, seek: true, xfer: m.WriteTime(1024), writes: 1},
			{kind: "append", n: 10, seek: true, xfer: m.WriteTime(10), writes: 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Clock
			d := NewDevice(m, &c, false)
			for i, o := range tc.ops {
				before, t0 := d.Stats(), c.Now()
				end := o.off + o.n
				switch o.kind {
				case "append":
					o.off = d.Size()
					end = o.off + o.n
					if got := d.AppendHole(o.n); got != o.off {
						t.Fatalf("op %d: append at %d, want the frontier %d", i, got, o.off)
					}
				case "reserve":
					d.ReserveExtent(o.n)
				case "resize":
					if got := d.ResizeLast(o.off, o.n); got != o.resized || d.Size() != o.frontier {
						t.Fatalf("op %d: ResizeLast(%d, %d) = %v leaving the frontier at %d, want %v and %d",
							i, o.off, o.n, got, d.Size(), o.resized, o.frontier)
					}
				case "write":
					d.AccountWrite(o.off, o.n)
				case "read":
					d.AccountRead(o.off, o.n)
				}
				want, wantSeeks := o.xfer, int64(0)
				if o.seek {
					want, wantSeeks = want+m.Seek, 1
				}
				after := d.Stats()
				if got := c.Now() - t0; got != want {
					t.Errorf("op %d (%s %d+%d): charged %v, want %v", i, o.kind, o.off, o.n, got, want)
				}
				if seeks := after.Seeks - before.Seeks; seeks != wantSeeks {
					t.Errorf("op %d (%s): %d seeks, want %d", i, o.kind, seeks, wantSeeks)
				}
				if after.Reads-before.Reads != o.reads || after.Writes-before.Writes != o.writes {
					t.Errorf("op %d (%s): %d reads %d writes, want %d and %d",
						i, o.kind, after.Reads-before.Reads, after.Writes-before.Writes, o.reads, o.writes)
				}
				if o.kind != "reserve" && o.kind != "resize" && d.st.pos != end {
					t.Errorf("op %d (%s): head at %d, want %d", i, o.kind, d.st.pos, end)
				}
			}
		})
	}
}

// TestViewChargesItsOwnClock: a view charges time to its own clock only, and
// shares the head, the frontier and the stats with the device it was made
// from, so a view's access contiguous with another's pays no seek.
func TestViewChargesItsOwnClock(t *testing.T) {
	m := testModel()
	var base, lane Clock
	d := NewDevice(m, &base, false)
	if d.View(nil) != d {
		t.Fatal("View(nil) must return the device itself")
	}
	v := d.View(&lane)
	if v.Clock() != &lane || d.Clock() != &base || v.Model() != d.Model() {
		t.Fatal("a view must charge its own clock over the same model")
	}
	d.AppendHole(1000)
	baseAfterAppend := base.Now()
	v.AccountRead(500, 500) // the head is at 1000: a seek, on the view's clock
	if base.Now() != baseAfterAppend {
		t.Fatalf("the view charged the device's clock: %v", base.Now()-baseAfterAppend)
	}
	if want := m.Seek + m.ReadTime(500); lane.Now() != want {
		t.Fatalf("view clock %v, want %v", lane.Now(), want)
	}
	v.AppendHole(100) // the head is at 1000, where the frontier is: no seek
	if want := m.Seek + m.ReadTime(500) + m.WriteTime(100); lane.Now() != want {
		t.Fatalf("view clock %v, want %v", lane.Now(), want)
	}
	if d.Size() != 1100 || v.Size() != 1100 {
		t.Fatalf("frontier %d / %d, want 1100 on both", d.Size(), v.Size())
	}
	want := Stats{Seeks: 2, Reads: 1, Writes: 2, BytesRead: 500, BytesWritten: 1100}
	if d.Stats() != want || v.Stats() != want {
		t.Fatalf("stats %+v / %+v, want %+v on both", d.Stats(), v.Stats(), want)
	}
}

// TestReserveExtentChargesNothing: a reservation moves the frontier and
// neither the clock, the head nor the stats.
func TestReserveExtentChargesNothing(t *testing.T) {
	var c Clock
	d := NewDevice(testModel(), &c, false)
	d.AppendHole(100)
	t0, st := c.Now(), d.Stats()
	if off := d.ReserveExtent(4096); off != 100 {
		t.Fatalf("reserved at %d, want the frontier 100", off)
	}
	if off := d.ReserveExtent(0); off != 4196 {
		t.Fatalf("reserved at %d, want 4196", off)
	}
	if c.Now() != t0 || d.Stats() != st || d.st.pos != 100 || d.Size() != 4196 {
		t.Fatalf("a reservation charged or moved something: clock %v stats %+v head %d size %d",
			c.Now()-t0, d.Stats(), d.st.pos, d.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative reservation must panic")
		}
	}()
	d.ReserveExtent(-1)
}

func TestSeekAccounting(t *testing.T) {
	var c Clock
	d := NewDevice(testModel(), &c, false)
	d.AppendHole(10_000)
	c.Reset()
	// Read three discontiguous ranges: 3 seeks.
	d.AccountRead(0, 100)
	d.AccountRead(5000, 100)
	d.AccountRead(1000, 100)
	if s := d.Stats().Seeks - 1; s != 3 { // minus the initial append seek
		t.Fatalf("seeks = %d, want 3", s)
	}
	// Contiguous follow-up read: no new seek.
	before := d.Stats().Seeks
	d.AccountRead(1100, 100)
	if d.Stats().Seeks != before {
		t.Fatal("contiguous read must not seek")
	}
}

func TestEquation1(t *testing.T) {
	// Paper Eq. 1: reading a file stored as N scattered fragments costs
	// N*T_seek + size/W_seq; stored contiguously it costs 1*T_seek + size/W_seq.
	m := testModel()
	var c Clock
	d := NewDevice(m, &c, false)
	const frag = 100_000
	const n = 10
	d.AppendHole(frag * (2*n + 1))
	c.Reset()

	// Scattered: fragments at every other slot.
	for i := 0; i < n; i++ {
		d.AccountRead(int64(2*i*frag), frag)
	}
	scattered := c.Now()
	want := time.Duration(n)*m.Seek + m.ReadTime(n*frag)
	if scattered != want {
		t.Fatalf("scattered read = %v, want %v", scattered, want)
	}

	// Contiguous.
	c.Reset()
	d.st.pos = -1 // force initial seek
	d.AccountRead(0, n*frag)
	contiguous := c.Now()
	wantC := m.Seek + m.ReadTime(n*frag)
	if contiguous != wantC {
		t.Fatalf("contiguous read = %v, want %v", contiguous, wantC)
	}
	if scattered-m.ReadTime(n*frag) != time.Duration(n)*(m.Seek) {
		t.Fatal("seek component must be N*Tseek")
	}
}

func TestReadBeyondFrontierPanics(t *testing.T) {
	var c Clock
	d := NewDevice(testModel(), &c, false)
	d.AppendHole(100)
	for _, r := range [][2]int64{{50, 100}, {-1, 10}, {0, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("read [%d,+%d) should panic", r[0], r[1])
				}
			}()
			d.AccountRead(r[0], r[1])
		}()
	}
}

// TestWriteBeyondFrontierPanics: a write into reserved space must lie inside
// what was reserved.
func TestWriteBeyondFrontierPanics(t *testing.T) {
	var c Clock
	d := NewDevice(testModel(), &c, false)
	d.ReserveExtent(100)
	d.AccountWrite(0, 100) // the whole reservation is fine
	for _, r := range [][2]int64{{50, 51}, {100, 1}, {-1, 10}, {0, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("write [%d,+%d) should panic", r[0], r[1])
				}
			}()
			d.AccountWrite(r[0], r[1])
		}()
	}
}

func TestNegativeAppendPanics(t *testing.T) {
	var c Clock
	d := NewDevice(testModel(), &c, false)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	d.AppendHole(-1)
}

func TestModelTimes(t *testing.T) {
	m := Model{Seek: time.Millisecond, ReadBW: 1e6, WriteBW: 2e6}
	if m.ReadTime(1e6) != time.Second {
		t.Fatalf("ReadTime = %v", m.ReadTime(1e6))
	}
	if m.WriteTime(1e6) != 500*time.Millisecond {
		t.Fatalf("WriteTime = %v", m.WriteTime(1e6))
	}
}

func TestDefaultModelSane(t *testing.T) {
	m := DefaultModel()
	if m.Seek <= 0 || m.ReadBW <= 0 || m.WriteBW <= 0 {
		t.Fatalf("default model not positive: %+v", m)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Seeks: 1, Reads: 2, Writes: 3, BytesRead: 4, BytesWritten: 5}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

// Property: every append lands at the frontier, and reading it straight
// back costs one seek back to its start (none for an empty one) and its
// transfer.
func TestAppendReadProperty(t *testing.T) {
	m := testModel()
	var c Clock
	d := NewDevice(m, &c, false)
	var frontier int64
	fn := func(n uint16) bool {
		off := d.AppendHole(int64(n))
		if off != frontier {
			return false
		}
		frontier += int64(n)
		t0 := c.Now()
		d.AccountRead(off, int64(n))
		want := m.ReadTime(int64(n))
		if n > 0 {
			want += m.Seek
		}
		return c.Now()-t0 == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: time accounting matches first principles for any access pattern:
// clock total = seeks*Seek + bytesRead/ReadBW + bytesWritten/WriteBW.
func TestTimeAccountingProperty(t *testing.T) {
	m := testModel()
	var c Clock
	d := NewDevice(m, &c, false)
	d.AppendHole(1 << 20)
	fn := func(off uint32, n uint16) bool {
		o := int64(off) % (1 << 20)
		sz := int64(n)
		if o+sz > 1<<20 {
			sz = 1<<20 - o
		}
		d.AccountRead(o, sz)
		st := d.Stats()
		want := time.Duration(st.Seeks)*m.Seek + m.ReadTime(st.BytesRead) + m.WriteTime(st.BytesWritten)
		diff := c.Now() - want
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Duration(st.Reads+st.Writes+2) // rounding slack: <1ns per op
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReadRange: two adjacent containers read as one extent are one device
// read and one seek — the coalesced read of the restore path.
func TestReadRange(t *testing.T) {
	m := testModel()
	var c Clock
	d := NewDevice(m, &c, false)
	a, b := int64(20), int64(21)
	offA := d.AppendHole(a)
	d.AppendHole(b)

	before := d.Stats()
	start := c.Now()
	d.AccountRead(offA, a+b)
	after := d.Stats()
	if after.Reads != before.Reads+1 {
		t.Fatalf("one ranged read must be one device read, got %d", after.Reads-before.Reads)
	}
	if after.Seeks != before.Seeks+1 {
		t.Fatalf("one ranged read must pay at most one seek, got %d", after.Seeks-before.Seeks)
	}
	if want := m.Seek + m.ReadTime(a+b); c.Now()-start != want {
		t.Fatalf("ranged read charged %v, want %v", c.Now()-start, want)
	}
}
