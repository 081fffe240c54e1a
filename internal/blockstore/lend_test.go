package blockstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loans is a test lender: it hands out the buffers it was given, in order,
// each with the same wanted ranges (nil: the whole section), and remembers how
// often it was asked.
type loans struct {
	bufs  [][]byte
	want  []Range
	asked int
}

func (l *loans) lend(id uint32, n int64) ([]byte, []Range) {
	l.asked++
	if len(l.bufs) == 0 {
		return nil, nil
	}
	b := l.bufs[0]
	l.bufs = l.bufs[1:]
	return b, l.want
}

// forwardingStacks is the file backend alone and under a wrapper that
// forwards only the ctx and the returned slices: a loan must survive both.
func forwardingStacks(file *File) map[string]Backend {
	return map[string]Backend{
		"file":     file,
		"counting": NewCounting(file),
	}
}

// poisoned returns n bytes of 0xA5, which no test container holds.
func poisoned(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }

// TestFileReadsIntoLentBuffers pins the lending half of the Backend contract
// on the file backend, and that it survives every wrapper which forwards only
// the ctx and the returned slice: a section comes back as exactly the prefix
// of the buffer that was lent for it; with no lender, a lender that has
// nothing, or one whose buffer is too small, it comes back in a buffer of its
// own; and the bytes are right either way.
func TestFileReadsIntoLentBuffers(t *testing.T) {
	ctx := context.Background()
	file, err := OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := sealN(t, file, 3)

	stacks := forwardingStacks(file)
	for name, be := range stacks {
		big := make([]byte, 1<<16)
		l := &loans{bufs: [][]byte{big}}
		got, err := be.ReadData(WithLender(ctx, l.lend), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if &got[0] != &big[0] || len(got) != len(want[1]) {
			t.Fatalf("%s: section is not the prefix of the lent buffer (len %d, want %d)", name, len(got), len(want[1]))
		}
		if !bytes.Equal(got, want[1]) {
			t.Fatalf("%s: section read into a lent buffer has the wrong bytes", name)
		}

		// A ranged read borrows one buffer per section; when the lender runs
		// dry the rest get buffers of their own.
		l = &loans{bufs: [][]byte{make([]byte, 1<<16)}}
		first := l.bufs[0]
		out, err := be.ReadDataRange(WithLender(ctx, l.lend), []uint32{0, 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if &out[0][0] != &first[0] || &out[1][0] == &first[0] {
			t.Fatalf("%s: ranged read did not use the one lent buffer for exactly its first section", name)
		}
		if l.asked != 2 || !bytes.Equal(out[0], want[0]) || !bytes.Equal(out[1], want[2]) {
			t.Fatalf("%s: ranged read asked the lender %d times (want 2) or returned wrong bytes", name, l.asked)
		}

		// No lender, a stripped lender, and a buffer too small: all private.
		small := make([]byte, 8)
		for what, c := range map[string]context.Context{
			"no lender":       ctx,
			"stripped lender": WithLender(WithLender(ctx, (&loans{bufs: [][]byte{big}}).lend), nil),
			"short loan":      WithLender(ctx, (&loans{bufs: [][]byte{small}}).lend),
		} {
			got, err := be.ReadData(c, 1)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, what, err)
			}
			if &got[0] == &big[0] || &got[0] == &small[0] || !bytes.Equal(got, want[1]) {
				t.Fatalf("%s, %s: section must be a correct private copy", name, what)
			}
		}
	}
}

// packed is what a ranged read of section returns: the ranges back to back.
func packed(section []byte, ranges []Range) []byte {
	out := []byte{}
	for _, r := range ranges {
		out = append(out, section[r.Off:r.Off+r.Len]...)
	}
	return out
}

// TestFileReadsOnlyWantedRanges is the ranged half of the contract, through
// the same wrappers: the section comes back packed — the file's bytes inside
// the ranges, back to back, as exactly the head of the lent buffer — and the
// buffer past that head is not touched. Ranges that touch, an empty one, one
// that ends at the section's last byte and none at all are all in order, and a
// buffer of exactly their sum is enough; a ranged lender whose buffer is one
// byte short of it, or which has none, gets a whole private section.
func TestFileReadsOnlyWantedRanges(t *testing.T) {
	ctx := context.Background()
	file, err := OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := sealN(t, file, 3)
	fill := int64(len(want[1]))

	stacks := forwardingStacks(file)
	for name, be := range stacks {
		for _, ranges := range [][]Range{
			{{Off: 3, Len: 40}, {Off: 200, Len: 1}, {Off: 400, Len: fill - 400}},
			{{Off: 0, Len: 10}, {Off: 10, Len: 10}, {Off: 100, Len: 0}},
			{{Off: fill - 1, Len: 1}},
			{},
		} {
			expect := packed(want[1], ranges)
			for _, size := range []int{1 << 16, max(len(expect), 1)} { // (an empty buffer is no loan)
				big := poisoned(size)
				l := &loans{bufs: [][]byte{big}, want: ranges}
				got, err := be.ReadData(WithLender(ctx, l.lend), 1)
				if err != nil {
					t.Fatalf("%s %v: %v", name, ranges, err)
				}
				if len(got) != len(expect) || (len(got) > 0 && &got[0] != &big[0]) {
					t.Fatalf("%s %v: section is not the packed head of the lent buffer (len %d, want %d)", name, ranges, len(got), len(expect))
				}
				if !bytes.Equal(got, expect) || !bytes.Equal(big[len(expect):], poisoned(size-len(expect))) {
					t.Fatalf("%s %v: the lent buffer must hold the ranges back to back and be untouched past them", name, ranges)
				}
			}
		}

		// Ranges change nothing about who gets a loan: a buffer short of their
		// sum, or none, is a whole, private section.
		ranges := []Range{{Off: 3, Len: 2}, {Off: 30, Len: 4}}
		short := poisoned(5)
		for what, l := range map[string]*loans{
			"short loan": {bufs: [][]byte{short}, want: ranges},
			"no buffer":  {want: ranges},
		} {
			got, err := be.ReadData(WithLender(ctx, l.lend), 1)
			if err != nil || !bytes.Equal(got, want[1]) || &got[0] == &short[0] {
				t.Fatalf("%s, %s: want a whole private section (err %v)", name, what, err)
			}
		}
		if !bytes.Equal(short, poisoned(5)) {
			t.Fatalf("%s: a refused short loan was written into", name)
		}
	}
}

// TestFileValidatesWantedRanges: ranges the lender has no business asking for
// are an error that names the container — never a panic, never a read past the
// buffer, and never a buffer filled half-way and passed off as a packed
// section: nothing is read before every range has been checked.
func TestFileValidatesWantedRanges(t *testing.T) {
	file, err := OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := sealN(t, file, 3)
	fill := int64(len(want[1]))
	for what, ranges := range map[string][]Range{
		"starts before the section": {{Off: -1, Len: 4}},
		"ends after the section":    {{Off: 0, Len: 8}, {Off: fill - 2, Len: 3}},
		"starts after the section":  {{Off: fill + 1, Len: 0}},
		"negative length":           {{Off: 0, Len: 8}, {Off: 16, Len: -1}},
		"length overflows":          {{Off: 8, Len: 1<<63 - 1}},
		"unsorted":                  {{Off: 64, Len: 8}, {Off: 0, Len: 8}},
		"overlapping":               {{Off: 0, Len: 8}, {Off: 7, Len: 8}},
	} {
		big := poisoned(1 << 12)
		l := &loans{bufs: [][]byte{big}, want: ranges}
		got, err := file.ReadData(WithLender(context.Background(), l.lend), 1)
		if err == nil || got != nil || !strings.Contains(err.Error(), "container 1") {
			t.Fatalf("%s: got %d bytes and %v, want an error naming container 1", what, len(got), err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v: a lender's mistake is not corruption", what, err)
		}
		if !bytes.Equal(big, poisoned(len(big))) {
			t.Fatalf("%s: the buffer was written before the ranges were checked", what)
		}
	}
	if got, err := file.ReadData(context.Background(), 1); err != nil || !bytes.Equal(got, want[1]) {
		t.Fatalf("the container must still read: %v", err)
	}
}

// flakyAfterRead fails its first ReadData after the inner backend has served
// it: the loan that read took is spent on nothing.
type flakyAfterRead struct {
	Backend
	failed bool
}

func (f *flakyAfterRead) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	data, err := f.Backend.ReadData(ctx, id)
	if err == nil && !f.failed {
		f.failed = true
		return nil, errors.New("lost on the way up")
	}
	return data, err
}

// TestFailedRangedReadReturnsNoLoan: a ranged read that fails after it has
// borrowed — the file shrank under the pread, or a wrapper above lost the
// result — hands back an error and no section, so the lender's holder finds
// that loan unreturned and may lend it again (sectionSet.settle in
// internal/restore); a second read asks for a new one.
func TestFailedRangedReadReturnsNoLoan(t *testing.T) {
	dir := t.TempDir()
	file, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := sealN(t, file, 3)
	ranges := []Range{{Off: 0, Len: 16}, {Off: 300, Len: 100}}

	first, second := poisoned(1<<12), poisoned(1<<12)
	l := &loans{bufs: [][]byte{first, second}, want: ranges}
	be := &flakyAfterRead{Backend: file}
	ctx := WithLender(context.Background(), l.lend)
	if got, err := be.ReadData(ctx, 1); err == nil || got != nil || l.asked != 1 {
		t.Fatalf("the lost read: %d bytes and %v after asking the lender %d times, want an error, no section and one loan", len(got), err, l.asked)
	}
	got, err := be.ReadData(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.asked != 2 || &got[0] != &second[0] {
		t.Fatalf("the second read asked the lender %d times (want 2) and must come back in its second loan", l.asked)
	}
	if !bytes.Equal(got, packed(want[1], ranges)) {
		t.Fatal("the second read did not come back packed")
	}

	// The lender is asked after the length check; a file that shrinks between
	// that and the pread of its second range is torn all the same.
	path := filepath.Join(dir, "containers", "000002.data")
	shrink := func(id uint32, n int64) ([]byte, []Range) {
		if err := os.Truncate(path, 200); err != nil {
			t.Error(err)
		}
		return poisoned(1 << 12), ranges
	}
	if got, err := file.ReadData(WithLender(context.Background(), shrink), 2); !errors.Is(err, ErrCorrupt) || got != nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("a file that shrank under a ranged read: %d bytes and %v, want ErrCorrupt torn", len(got), err)
	}
}

// TestFileTornSectionCostsNoLoan: a data file that is shorter or longer than
// its recorded fill is corrupt, and is found out before a buffer is borrowed
// for it.
func TestFileTornSectionCostsNoLoan(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	want := sealN(t, b, 3)
	short := filepath.Join(dir, "containers", "000001.data")
	if err := os.Truncate(short, int64(len(want[1])/2)); err != nil {
		t.Fatal(err)
	}
	long, err := os.OpenFile(filepath.Join(dir, "containers", "000002.data"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := long.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	long.Close()

	l := &loans{bufs: [][]byte{make([]byte, 1<<16)}}
	ctx := WithLender(context.Background(), l.lend)
	for _, id := range []uint32{1, 2} {
		if _, err := b.ReadData(ctx, id); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("container %d: %v, want ErrCorrupt", id, err)
		}
	}
	if l.asked != 0 {
		t.Fatalf("torn sections borrowed %d buffers", l.asked)
	}
	if got, err := b.ReadData(ctx, 0); err != nil || !bytes.Equal(got, want[0]) {
		t.Fatalf("intact container must still read: %v", err)
	}
}

// tornSeals hands the backend below half of every section it is asked to
// seal and acknowledges the seal: a lying disk.
type tornSeals struct{ Backend }

func (w tornSeals) Seal(ctx context.Context, info ContainerInfo, data []byte) error {
	return w.Backend.Seal(ctx, info, data[:len(data)/2])
}

// TestFaultTornSectionCostsNoPackedLoan: a section torn at seal is ErrCorrupt
// naming its container when a ranged read asks for a part it still has, and no
// buffer is borrowed for it; an untorn sibling still comes back packed.
func TestFaultTornSectionCostsNoPackedLoan(t *testing.T) {
	file, err := OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := sealN(t, file, 1)
	torn := tornSeals{file}
	info, data := mkInfo(1, 5)
	if err := torn.Seal(context.Background(), info, data); err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{Off: 1, Len: 8}}
	l := &loans{bufs: [][]byte{poisoned(64), poisoned(64)}, want: ranges}
	ctx := WithLender(context.Background(), l.lend)
	got, err := torn.ReadData(ctx, 1)
	if !errors.Is(err, ErrCorrupt) || got != nil || !strings.Contains(err.Error(), "container 1 torn") {
		t.Fatalf("a torn section under a ranged loan: %d bytes and %v, want ErrCorrupt naming container 1", len(got), err)
	}
	if l.asked != 0 {
		t.Fatalf("the torn section borrowed %d buffers", l.asked)
	}
	if got, err := torn.ReadData(ctx, 0); err != nil || !bytes.Equal(got, packed(want[0], ranges)) {
		t.Fatalf("the intact container must still read packed: %v", err)
	}
}
