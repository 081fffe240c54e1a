package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/workload"
)

func TestCompactEndToEnd(t *testing.T) {
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.2, StoreData: true, ExpectedBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(5)
	wcfg.NumFiles = 8
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var datas [][]byte
	for g := 0; g < 8; g++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Backup(context.Background(), b.Label, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		datas = append(datas, data)
	}
	utilBefore := s.Stats().Utilization
	if utilBefore >= 1 {
		t.Skip("workload produced no garbage at this scale")
	}

	cs, err := s.Compact(context.Background(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ContainersScanned == 0 {
		t.Fatal("nothing scanned")
	}
	// Every retained backup must restore bit-exactly after compaction.
	for i, b := range s.Backups() {
		var out bytes.Buffer
		if _, err := s.Restore(context.Background(), b, &out, true); err != nil {
			t.Fatalf("backup %d after compact: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), datas[i]) {
			t.Fatalf("backup %d content changed by compaction", i)
		}
	}
	// And the store keeps working: one more backup + verified restore.
	b := sched.Next()
	data, _ := io.ReadAll(b.Stream)
	bk, err := s.Backup(context.Background(), b.Label, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := s.Restore(context.Background(), bk, &out, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("post-compact backup corrupted")
	}
}

func TestCompactThresholdValidation(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 16 << 20})
	if _, err := s.Compact(context.Background(), 1.5); err == nil {
		t.Fatal("bad threshold must error")
	}
}

func TestCompactUnsupportedEngine(t *testing.T) {
	s, _ := Open(Options{Engine: SiLoLike, ExpectedBytes: 16 << 20})
	if _, err := s.Compact(context.Background(), 0.5); err == nil {
		t.Fatal("SiLo has no index; compaction must be rejected")
	}
}

func TestForgetEnablesReclaim(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, Alpha: 0.2, ExpectedBytes: 64 << 20})
	wcfg := workload.DefaultConfig(55)
	wcfg.NumFiles = 8
	sched, _ := workload.NewSingle(wcfg)
	for g := 0; g < 6; g++ {
		b := sched.Next()
		if _, err := s.Backup(context.Background(), b.Label, b.Stream); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Forget("g00").Found || !s.Forget("g01").Found || !s.Forget("g02").Found {
		t.Fatal("Forget failed")
	}
	if s.Forget("g00").Found {
		t.Fatal("double Forget should report absence")
	}
	if len(s.Backups()) != 3 {
		t.Fatalf("backups left: %d", len(s.Backups()))
	}
	cs, err := s.Compact(context.Background(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.BytesReclaimed == 0 {
		t.Fatal("forgetting generations should free space under full compaction")
	}
	// Remaining backups must still restore (metadata-only timing restore).
	for _, b := range s.Backups() {
		if _, err := s.Restore(context.Background(), b, nil, false); err != nil {
			t.Fatalf("restore %s after forget+compact: %v", b.Label, err)
		}
	}
}

// flipRead is a WrapBackend wrapper that, once armed, hands back a copy of
// the first data section it reads that at has an offset for, with that byte
// flipped. The backend's own bytes are never touched.
type flipRead struct {
	blockstore.Backend
	mu      sync.Mutex
	at      func(id uint32) int64 // section offset to flip, or -1; nil while disarmed
	flipped bool
	id      uint32
}

func (f *flipRead) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	out, err := f.Backend.ReadDataRange(ctx, ids)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil || f.at == nil || f.flipped {
		return out, err
	}
	for k, id := range ids {
		if off := f.at(id); off >= 0 {
			out[k] = bytes.Clone(out[k])
			out[k][off] ^= 0xFF
			f.flipped, f.id = true, id
			break
		}
	}
	return out, nil
}

// Drop lets a merge that gets past its checks drop its victims.
func (f *flipRead) Drop(ctx context.Context, ids []uint32, reason string) error {
	return f.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// TestMergeRefusesAFlippedVictim: a merge re-hashes every live chunk of a
// victim it fetches, so one flipped byte in a victim's section stops it with
// an error naming the container and the chunk's offset, before any recipe is
// remapped or any container dropped.
func TestMergeRefusesAFlippedVictim(t *testing.T) {
	ctx := context.Background()
	flip := &flipRead{}
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.2, StoreData: true, ExpectedBytes: 64 << 20,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend { flip.Backend = be; return flip }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	datas := ingestGens(t, s, 55, 6)
	for _, label := range []string{"s55/g00", "s55/g01", "s55/g02"} {
		if !s.Forget(label).Found {
			t.Fatalf("Forget(%s) found nothing", label)
		}
	}
	backups := s.Backups()
	recipes := make([]*chunk.Recipe, len(backups))
	at := make(map[uint32]int64) // a live chunk's first byte in each container
	cs := s.eng.Containers()
	for i, b := range backups {
		recipes[i] = b.recipe()
		for _, ref := range recipes[i].Refs {
			if _, ok := at[ref.Loc.Container]; !ok {
				at[ref.Loc.Container] = ref.Loc.Offset
			}
		}
	}
	containers := cs.NumContainers()

	flip.mu.Lock()
	flip.at = func(id uint32) int64 {
		if off, ok := at[id]; ok {
			return off - cs.DataStart(id)
		}
		return -1
	}
	flip.mu.Unlock()
	_, err = s.Compact(ctx, 1.0)
	flip.mu.Lock()
	flip.at = nil
	flipped, id := flip.flipped, flip.id
	flip.mu.Unlock()
	if !flipped {
		t.Fatal("the merge read no section holding a retained chunk: the store is too small to say anything")
	}
	if err == nil {
		t.Fatalf("the merge moved container %d's flipped chunk without an error", id)
	}
	for _, want := range []string{fmt.Sprintf("victim container %d:", id), fmt.Sprintf("offset %d ", at[id])} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("merge error %q does not name %q", err, want)
		}
	}
	if !cs.Sealed(id) || cs.NumContainers() < containers {
		t.Fatalf("containers dropped: %d sealed before, %d after; victim %d sealed: %v",
			containers, cs.NumContainers(), id, cs.Sealed(id))
	}
	for i, b := range s.Backups() {
		if b.recipe() != recipes[i] {
			t.Fatalf("backup %s was remapped by a merge that failed", b.Label)
		}
	}
	rep, err := s.Check(ctx, true)
	if err != nil || !rep.OK() {
		t.Fatalf("Check after the refused merge: %v %v", err, rep.Problems)
	}
	for i, b := range s.Backups() {
		var out bytes.Buffer
		if _, err := s.Restore(ctx, b, &out, true); err != nil {
			t.Fatalf("restore %s: %v", b.Label, err)
		}
		if !bytes.Equal(out.Bytes(), datas[len(datas)-len(backups)+i]) {
			t.Fatalf("restore %s differs", b.Label)
		}
	}
}
