package repro

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/blockstore"
)

// repairFaults is a WrapBackend wrapper for Repair's error paths: while
// failRead is armed, a read that asks for container failID fails with failErr
// (the container itself is healthy); a Quarantine past the first failQuarantine
// calls fails (0 never fails).
type repairFaults struct {
	blockstore.Backend
	failRead       atomic.Bool
	failID         uint32
	failErr        error
	failQuarantine int32
	quarantines    atomic.Int32
}

func (w *repairFaults) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	if w.failRead.Load() && slices.Contains(ids, w.failID) {
		return nil, w.failErr
	}
	return w.Backend.ReadDataRange(ctx, ids)
}

func (w *repairFaults) Quarantine(ctx context.Context, id uint32, reason string) error {
	if n := w.quarantines.Add(1); w.failQuarantine > 0 && n > w.failQuarantine {
		return errors.New("quarantine: disk full")
	}
	return w.Backend.(blockstore.Quarantiner).Quarantine(ctx, id, reason)
}

// repairStore ingests four generations into a closed file store at dir and
// returns their bytes and the containers each backup's recipe names.
func repairStore(t *testing.T, dir string) ([][]byte, map[string][]uint32) {
	t.Helper()
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20, Backend: FileBackend, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	datas := ingestGens(t, s, 41, 4)
	names := map[string][]uint32{}
	for _, b := range s.Backups() {
		for _, ref := range b.recipe().Refs {
			if !slices.Contains(names[b.Label], ref.Loc.Container) {
				names[b.Label] = append(names[b.Label], ref.Loc.Container)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return datas, names
}

// TestRepairStopsOnAReadErrorThatProvesNothing: Repair condemns a container
// only on a read that proves it damaged (torn, or its file gone). A healthy
// container whose read fails with EMFILE, or under a cancelled context, stops
// the pass with the error and nothing quarantined: every backup still
// restores and the store is fsck-clean. A cancelled Check returns the
// context's error rather than a problem per container.
func TestRepairStopsOnAReadErrorThatProvesNothing(t *testing.T) {
	dir := t.TempDir()
	datas, _ := repairStore(t, dir)
	w := &repairFaults{failID: 1, failErr: syscall.EMFILE}
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20, Backend: FileBackend, Dir: dir,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend {
			w.Backend = be
			return w
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	ctx := context.Background()

	w.failRead.Store(true)
	rr, err := s.Repair(ctx, true)
	w.failRead.Store(false)
	if !errors.Is(err, syscall.EMFILE) || len(rr.Quarantined) != 0 || len(rr.LostBackups) != 0 {
		t.Fatalf("Repair over an EMFILE read: quarantined %v, lost %v, error %v; want the error and nothing quarantined", rr.Quarantined, rr.LostBackups, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if rr, err := s.Repair(cancelled, true); !errors.Is(err, context.Canceled) || len(rr.Quarantined) != 0 {
		t.Fatalf("Repair under a cancelled context: quarantined %v, error %v", rr.Quarantined, err)
	}
	if rep, err := s.Check(cancelled, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check under a cancelled context: %v, %d problems; want context.Canceled", err, len(rep.Problems))
	}
	restoreVerifyAll(t, s, datas)
	if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
		t.Fatalf("check after the failed repairs: %v %v", err, rep.Problems)
	}
	if q, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(q) != 0 {
		t.Fatalf("quarantine/ holds %d files", len(q))
	}
}

// TestRepairAfterAFailedQuarantine: two containers are torn and the second
// quarantine fails. Repair reports the one container it did quarantine,
// drops exactly the backups that cross it, and returns the error; the store
// is left fsck-clean (without re-hashing: the other torn container is still
// there for the next repair).
func TestRepairAfterAFailedQuarantine(t *testing.T) {
	dir := t.TempDir()
	_, names := repairStore(t, dir)
	// first: the lowest container some backups cross and some do not;
	// second: the highest container of all, quarantined after it.
	count := map[uint32]int{}
	for _, ids := range names {
		for _, id := range ids {
			count[id]++
		}
	}
	ids := slices.Sorted(maps.Keys(count))
	first, second := ids[0], ids[len(ids)-1]
	for _, id := range ids {
		if count[id] < len(names) {
			first = id
			break
		}
	}
	if first >= second {
		t.Fatalf("containers %v, crossed %v times: no two to tear", ids, count)
	}
	for _, id := range []uint32{first, second} {
		path := filepath.Join(dir, "containers", fmt.Sprintf("%06d.data", id))
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	var crossing []string
	for label, named := range names {
		if slices.Contains(named, first) {
			crossing = append(crossing, label)
		}
	}
	if len(crossing) == 0 || len(crossing) == len(names) {
		t.Fatalf("%d of %d backups cross container %d: the test needs some on either side", len(crossing), len(names), first)
	}

	w := &repairFaults{failQuarantine: 1}
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20, Backend: FileBackend, Dir: dir,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend {
			w.Backend = be
			return w
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	ctx := context.Background()
	rr, err := s.Repair(ctx, true)
	if err == nil {
		t.Fatal("Repair hid the failed quarantine")
	}
	if !slices.Equal(rr.Quarantined, []uint32{first}) || len(rr.Reasons) != 1 {
		t.Fatalf("Repair reports %v quarantined (reasons %v), want only container %d", rr.Quarantined, rr.Reasons, first)
	}
	slices.Sort(crossing)
	slices.Sort(rr.LostBackups)
	if !slices.Equal(rr.LostBackups, crossing) {
		t.Fatalf("Repair lost %v, the backups crossing container %d are %v", rr.LostBackups, first, crossing)
	}
	for _, b := range s.Backups() {
		if slices.Contains(crossing, b.Label) {
			t.Errorf("%s crosses the quarantined container and is still retained", b.Label)
		}
	}
	if len(s.Backups()) != len(names)-len(crossing) {
		t.Fatalf("%d backups retained, want %d", len(s.Backups()), len(names)-len(crossing))
	}
	if rep, err := s.Check(ctx, false); err != nil || !rep.OK() {
		t.Fatalf("check after the failed quarantine: %v %v", err, rep.Problems)
	}
}
