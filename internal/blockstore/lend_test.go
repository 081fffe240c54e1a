package blockstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// loans is a test lender: it hands out the buffers it was given, in order,
// and remembers how often it was asked.
type loans struct {
	bufs  [][]byte
	asked int
}

func (l *loans) lend(n int64) []byte {
	l.asked++
	if len(l.bufs) == 0 {
		return nil
	}
	b := l.bufs[0]
	l.bufs = l.bufs[1:]
	return b
}

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

	stacks := map[string]Backend{
		"file":     file,
		"counting": NewCounting(file),
		"retry(fault)": WithRetry(NewFault(file, FaultConfig{Seed: 3, TransientRate: 0.5}),
			RetryPolicy{MaxAttempts: 50, BaseDelay: time.Microsecond}),
	}
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
