//go:build linux

package blockstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// liveMappings is how many sections are mapped and not yet released.
func liveMappings() int {
	live.Lock()
	defer live.Unlock()
	return len(live.by)
}

// TestFileTornSectionMapsNothing: a data file that is shorter or longer than
// its recorded fill is corrupt, and is found out before anything is mapped;
// an intact one reads as a mapping of its bytes, through a wrapper that
// forwards the slices too, until it is released. A read of several sections
// that fails releases the ones it had read.
func TestFileTornSectionMapsNothing(t *testing.T) {
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

	ctx := context.Background()
	before := liveMappings()
	for _, id := range []uint32{1, 2} {
		if _, err := b.ReadData(ctx, id); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("container %d: %v, want ErrCorrupt torn", id, err)
		}
	}
	if _, err := NewCounting(b).ReadDataRange(ctx, []uint32{0, 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a range over a torn section: %v, want ErrCorrupt", err)
	}
	if n := liveMappings(); n != before {
		t.Fatalf("torn sections and a failed range left %d mappings behind", n-before)
	}
	got, err := NewCounting(b).ReadData(ctx, 0)
	if err != nil || !bytes.Equal(got, want[0]) || !Mapped(got) {
		t.Fatalf("the intact container must read as a mapping of its bytes: %v", err)
	}
	Release(got)
	Release(got) // a second release does nothing
	if Mapped(got) || liveMappings() != before {
		t.Fatal("a released section is still mapped")
	}
}

// TestGuardTurnsAFaultIntoAnError maps a section, cuts its file to one page
// under it and reads past the cut inside Guard: the fault is ErrCorrupt
// naming the container, and the process goes on. A fault on a mapping the
// store does not know, and a panic that is no fault, are raised again.
func TestGuardTurnsAFaultIntoAnError(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	page := os.Getpagesize()
	info, data := mkInfo(0, 1)
	info.DataFill = int64(4 * page)
	data = bytes.Repeat([]byte{7}, 4*page)
	info.Entries[0].Size = uint32(len(data))
	if err := b.Seal(context.Background(), info, data); err != nil {
		t.Fatal(err)
	}
	section, err := b.ReadData(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer Release(section)
	path := filepath.Join(dir, "containers", "000000.data")
	if err := os.Truncate(path, int64(page)); err != nil {
		t.Fatal(err)
	}
	var sum int
	err = Guard(func() error {
		for _, c := range section {
			sum += int(c)
		}
		return nil
	})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "container 0 torn") {
		t.Fatalf("reading past the cut: %v, want ErrCorrupt naming container 0 torn", err)
	}

	stray := func() {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		m, err := syscall.Mmap(int(f.Fd()), 0, 4*page, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			t.Fatal(err)
		}
		defer syscall.Munmap(m)                                   //nolint:errcheck // test teardown
		Guard(func() error { sum += int(m[3*page]); return nil }) //nolint:errcheck // it panics
	}
	for name, fn := range map[string]func(){
		"a fault on a mapping no read made": stray,
		"a panic that is no fault":          func() { Guard(func() error { panic("not a fault") }) }, //nolint:errcheck // it panics
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Guard did not raise it again", name)
				}
			}()
			fn()
		}()
	}
}
