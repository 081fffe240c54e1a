package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/workload"
)

// TestCrashStates records a small file-backend scenario on a memFS and
// reopens every crash state of every prefix of its operation log (see
// crashCut.variants): under the race detector every variant of every cut;
// otherwise the durable and the all-applied state of every cut, every variant
// of the four named cuts, and a seeded quarter of the rest. Each state is held
// to crashScenario.check. The named states are subtests, by the phase that
// reached them, and fail if it never did.
func TestCrashStates(t *testing.T) {
	start := time.Now()
	sc := runCrashScenario(t)
	rng := rand.New(rand.NewSource(1))
	reached := make(map[string]bool)    // phase/state
	failed := make(map[string][]string) // phase/state → failures there
	seen := make(map[string]bool)
	checked := 0
	crashCuts(sc.ops, func(c *crashCut) {
		state, phase := sc.named(c.k)
		reached[phase+"/"+state] = true
		for _, v := range c.variants() {
			sampled := v.skip >= 0 || v.tear
			if !raceEnabled && state == "" && sampled && rng.Intn(4) != 0 {
				continue
			}
			im := c.image(v, rng)
			key := fmt.Sprintf("%s|%s", imageKey(im), sc.owed(c.k))
			if seen[key] {
				continue
			}
			seen[key] = true
			checked++
			if err := sc.check(im, c.k); err != nil {
				last := sc.ops[max(c.k-1, 0)]
				msg := fmt.Sprintf("crash after op %d of %d (%s: %s), %s state: %v", c.k, len(sc.ops), last.phase, last, v, err)
				if state != "" {
					failed[phase+"/"+state] = append(failed[phase+"/"+state], msg)
				} else {
					t.Error(msg)
				}
			}
		}
	})
	t.Logf("%d operations, %d crash states reopened, %v", len(sc.ops), checked, time.Since(start))
	for _, phase := range []string{"backup", "maintenance", "compact", "reclaim"} {
		for _, state := range namedCrashStates {
			// A backup only seals; the reclaim only drops (it has nothing
			// live to move).
			if phase == "backup" && state != "seal-data" || phase == "reclaim" && state == "seal-data" {
				continue
			}
			t.Run(phase+"/"+state, func(t *testing.T) {
				if !reached[phase+"/"+state] {
					t.Fatalf("no cut reached %s during %s", state, phase)
				}
				for _, f := range failed[phase+"/"+state] {
					t.Error(f)
				}
			})
		}
	}
}

// owed summarizes what the cut after k ops holds a state to: the backups and
// forgets acknowledged by then, and whether the quarantine record is durable.
func (sc *crashScenario) owed(k int) string {
	var b strings.Builder
	for _, label := range sortedKeys(sc.acked) {
		f, ok := sc.forgetting[label]
		fmt.Fprintf(&b, "%v%v%v", sc.acked[label] <= k, ok && f < k, sc.forgot[label] != 0 && sc.forgot[label] <= k)
	}
	return fmt.Sprintf("%s%v", b.String(), k >= sc.quarRec)
}

// crashDir is the store directory on a crash scenario's memFS.
const crashDir = "/store"

var (
	crashContainers = filepath.Join(crashDir, "containers")
	crashTableLog   = filepath.Join(crashDir, "containers.log")
)

// crashScenario is one recorded run of a small file-backend store on a
// memFS: its operation log, and what a crash at each point must not lose.
type crashScenario struct {
	opts       Options
	ops        []fsOp
	paths      []string          // paths[i]: the name op i's file had when it ran
	data       map[string][]byte // every backup begun, by label
	acked      map[string]int    // backup label → ops recorded when Backup returned
	forgetting map[string]int    // label → ops recorded when its Forget was called
	forgot     map[string]int    // label → ops recorded when its Forget returned
	quar       map[string][]byte // quarantine/ as Repair left it
	quarRec    int               // the cut from which the quarantine record is durable
}

// crashOptions is the scenario's store: containers of 576 KiB, past the
// 512 KiB an open container stages at a time, and small segments, so that a
// few MiB of backups make a few dozen containers, some of them staged; and
// thresholds at which an epoch merges.
func crashOptions(fsys *memFS) Options {
	return Options{
		Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 8 << 20,
		Backend: FileBackend, Dir: crashDir, fs: fsys,
		Maintenance: maintOptions(),
		tune: engineTuning{defrag: func(c *core.Config) {
			c.ContainerCfg = container.Config{DataCap: 576 << 10, MaxChunks: 256}
			c.SegParams = segment.Params{MinBytes: 64 << 10, MaxBytes: 256 << 10, Divisor: 32}
		}},
	}
}

// runCrashScenario records backups, a forget, a Repair that quarantines a
// forgotten backup's container the medium corrupted, a MaintenanceEpoch
// merge, a Compact after another forget, an epoch that reclaims what only a
// forgotten backup held, both logs' checkpoints, a backup on the
// checkpointed logs and Close.
func runCrashScenario(t *testing.T) *crashScenario {
	t.Helper()
	ctx := context.Background()
	fsys := newMemFS(newImage(), true)
	sc := &crashScenario{opts: crashOptions(fsys), data: map[string][]byte{},
		acked: map[string]int{}, forgetting: map[string]int{}, forgot: map[string]int{}, quar: map[string][]byte{}}
	fsys.setPhase("open")
	s, err := Open(sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(7)
	wcfg.NumFiles, wcfg.MeanFileSize, wcfg.ModifyFraction, wcfg.MeanEditSize = 6, 192<<10, 0.8, 64<<10
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	backup := func(label string, data []byte) *Backup {
		t.Helper()
		fsys.setPhase("backup")
		sc.data[label] = data
		b, err := s.Backup(ctx, label, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sc.acked[label] = fsys.mark()
		return b
	}
	gen := func() {
		t.Helper()
		bk := sched.Next()
		data, err := io.ReadAll(bk.Stream)
		if err != nil {
			t.Fatal(err)
		}
		backup(bk.Label, data)
	}
	forget := func(label string) {
		t.Helper()
		sc.forgetting[label] = fsys.setPhase("forget")
		if !s.Forget(label).Found {
			t.Fatalf("forget %s: not retained", label)
		}
		sc.forgot[label] = fsys.mark()
	}

	gen()
	gen()
	// 1 MiB of new bytes: the first of its two containers is staged.
	unique := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(unique) //nolint:errcheck // never fails
	u := backup("unique", unique)
	forget("unique")

	// The medium corrupts a container only the forgotten backup used: Check
	// reads what retained backups reference and stays clean, Repair hashes
	// every container and quarantines it.
	victim := u.recipe().Refs[0].Loc.Container
	for _, b := range s.Backups() {
		for _, ref := range b.recipe().Refs {
			if ref.Loc.Container == victim {
				t.Fatalf("container %d of the forgotten backup is still referenced by %s", victim, b.Label)
			}
		}
	}
	fsys.setPhase("corrupt")
	if err := fsys.corrupt(filepath.Join(crashContainers, fmt.Sprintf("%06d.data", victim))); err != nil {
		t.Fatal(err)
	}
	fsys.setPhase("repair")
	rr, err := s.Repair(ctx, true)
	if err != nil || len(rr.Quarantined) != 1 || len(rr.LostBackups) != 0 {
		t.Fatalf("repair: %+v, %v; want container %d quarantined and nothing lost", rr, err, victim)
	}
	for _, ext := range []string{".data", ".meta", ".reason"} {
		name := filepath.Join(crashDir, "quarantine", fmt.Sprintf("%06d", victim)+ext)
		sc.quar[name] = fsys.content(name)
	}

	fsys.setPhase("maintenance")
	if st, err := s.MaintenanceEpoch(ctx); err != nil || st.ContainersMerged == 0 {
		t.Fatalf("epoch: %+v, %v; the scenario needs a merge", st, err)
	}
	gen()
	forget(s.Backups()[0].Label)
	forget(s.Backups()[0].Label)
	fsys.setPhase("compact")
	if cs, err := s.Compact(ctx, 1.0); err != nil || cs.ContainersCollected == 0 {
		t.Fatalf("compact: %+v, %v; the scenario needs a merge", cs, err)
	}

	// Forget-then-reclaim: the containers of a backup no other backup shares
	// a byte with are dead once it is forgotten, though the index names
	// their copies, and the next epoch drops every one of them.
	lonely := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(lonely) //nolint:errcheck // never fails
	l := backup("lonely", lonely)
	forget("lonely")
	fsys.setPhase("reclaim")
	if _, err := s.MaintenanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ref := range l.recipe().Refs {
		if s.eng.Containers().Sealed(ref.Loc.Container) {
			t.Fatalf("container %d, which only the forgotten backup referenced, survived the epoch", ref.Loc.Container)
		}
	}
	if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
		t.Fatalf("check after the reclaim: %v %v", err, rep.Problems)
	}

	// Both logs' checkpoints, forced: the rule would take megabytes of
	// records to call for one.
	fsys.setPhase("checkpoint")
	s.mu.Lock()
	entries, err := catalogEntries(s.backups)
	if err == nil {
		err = s.cat.Checkpoint(entries)
	}
	s.mu.Unlock()
	if err == nil {
		err = s.be.Sync(ctx)
	}
	if err != nil {
		t.Fatal(err)
	}
	gen()
	fsys.setPhase("close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sc.ops = fsys.ops
	sc.paths = opPaths(sc.ops)
	sc.quarRec = -1
	writes := make(map[int]int) // data file inode → writes
	for i, op := range sc.ops {
		if op.kind == opWrite && sc.paths[i] == crashTableLog && frameKind(op.data) == tableQuarantine {
			sc.quarRec = sc.syncAfter(i) + 1
		}
		if staged, _ := filepath.Match(".*.data.tmp*", filepath.Base(sc.paths[i])); staged && op.kind == opWrite {
			writes[op.ino]++
		}
	}
	if sc.quarRec < 0 {
		t.Fatal("no quarantine record was written")
	}
	if slices.Max(slices.Collect(maps.Values(writes))) < 2 {
		t.Fatal("no container's section was staged before its seal")
	}
	return sc
}

// opPaths returns the name each op's file had when the op ran.
func opPaths(ops []fsOp) []string {
	names := make(map[int]string)
	paths := make([]string, len(ops))
	for i, op := range ops {
		switch op.kind {
		case opCreate:
			names[op.ino] = filepath.Join(op.dir, op.name)
		case opRename:
			names[op.ino] = filepath.Join(op.dir2, op.nam2)
		}
		paths[i] = names[op.ino]
		if op.kind == opDirSync || op.kind == opMkdir {
			paths[i] = op.dir
		}
	}
	return paths
}

// Record kinds of containers.log (internal/blockstore/containerlog.go).
const (
	tableMerge      = 3
	tableQuarantine = 4
)

// frameKind is the kind of the record log frame b begins with.
func frameKind(b []byte) byte {
	if len(b) < 9 {
		return 0
	}
	return b[8]
}

// syncAfter returns the index of the first fsync or fdatasync of op i's file
// after it.
func (sc *crashScenario) syncAfter(i int) int {
	for j := i + 1; j < len(sc.ops); j++ {
		if (sc.ops[j].kind == opFdatasync || sc.ops[j].kind == opFsync) && sc.ops[j].ino == sc.ops[i].ino {
			return j
		}
	}
	return len(sc.ops)
}

// The four states the store's crash points used to name, by the cut that
// reaches each: a seal's data file renamed in and its directory synced, with
// no seal record yet (seal-data); a merge's Drop entered, its remap durable
// and its merge record not (merge-remapped); the merge record durable and no
// victim file removed (merge-intent); the first victim file removed
// (merge-files).
var namedCrashStates = []string{"seal-data", "merge-remapped", "merge-intent", "merge-files"}

// named returns the name of the state the cut after k ops reaches, and the
// phase it reaches it in, or "".
func (sc *crashScenario) named(k int) (name, phase string) {
	if k < len(sc.ops) {
		if op := sc.ops[k]; op.kind == opWrite && sc.paths[k] == crashTableLog && frameKind(op.data) == tableMerge {
			return "merge-remapped", op.phase
		}
	}
	if k == 0 {
		return "", ""
	}
	last := sc.ops[k-1]
	switch {
	case last.kind == opDirSync && last.dir == crashContainers:
		for j := k - 2; j >= 0; j-- {
			if op := sc.ops[j]; op.kind == opRename && op.dir2 == crashContainers {
				if strings.HasPrefix(op.name, ".") && strings.HasSuffix(op.nam2, ".data") {
					return "seal-data", last.phase
				}
				break
			}
		}
	case last.kind == opFdatasync && sc.paths[k-1] == crashTableLog:
		if w := sc.lastWrite(k-1, crashTableLog); w >= 0 && frameKind(sc.ops[w].data) == tableMerge {
			return "merge-intent", last.phase
		}
	case last.kind == opRemove && last.dir == crashContainers:
		if k >= 2 && sc.ops[k-2].kind == opFdatasync && sc.paths[k-2] == crashTableLog {
			if w := sc.lastWrite(k-2, crashTableLog); w >= 0 && frameKind(sc.ops[w].data) == tableMerge {
				return "merge-files", last.phase
			}
		}
	}
	return "", ""
}

// lastWrite returns the last write to path before op i, or -1.
func (sc *crashScenario) lastWrite(i int, path string) int {
	for j := i - 1; j >= 0; j-- {
		if sc.ops[j].kind == opWrite && sc.paths[j] == path {
			return j
		}
	}
	return -1
}

// check reopens the crash state im of the cut after k ops and holds it to the
// contract: Open succeeds; every backup acknowledged before the cut is
// retained and every forget acknowledged before it holds; every retained
// backup restores bit-identical with verification on; Check is clean; no
// temp file, and no data file the container log does not name, is left; and
// past the quarantine record, quarantine/ holds what Repair put there.
func (sc *crashScenario) check(im fsImage, k int) error {
	ctx := context.Background()
	fsys := newMemFS(im, false)
	opts := sc.opts
	opts.fs = fsys
	s, err := Open(opts)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer s.Close() //nolint:errcheck // the state is thrown away
	for label, at := range sc.acked {
		if f, ok := sc.forgetting[label]; at <= k && (!ok || f >= k) && s.FindBackup(label) == nil {
			return fmt.Errorf("acknowledged backup %q is lost", label)
		}
	}
	for _, b := range s.Backups() {
		data, known := sc.data[b.Label]
		if at := sc.forgot[b.Label]; !known || (at != 0 && at <= k) {
			return fmt.Errorf("backup %q is retained (known %v, forgotten at %d)", b.Label, known, at)
		}
		var buf bytes.Buffer
		if _, err := s.Restore(ctx, b, &buf, true); err != nil {
			return fmt.Errorf("restore %q: %w", b.Label, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			return fmt.Errorf("restore %q: %d bytes differ from the %d backed up", b.Label, buf.Len(), len(data))
		}
	}
	rep, err := s.Check(ctx, true)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("check: %v", rep.Problems)
	}
	infos, err := s.be.List(ctx)
	if err != nil {
		return err
	}
	named := make(map[string]bool, len(infos))
	for _, info := range infos {
		named[fmt.Sprintf("%06d.data", info.ID)] = true
	}
	for dir, ents := range fsys.live.dirs {
		for name := range ents {
			if temp, _ := filepath.Match(".*.tmp*", name); temp {
				return fmt.Errorf("temp file %s left after open", filepath.Join(dir, name))
			}
			if dir == crashContainers && !named[name] {
				return fmt.Errorf("data file %s, which the container log does not name, left after open", name)
			}
		}
	}
	if k >= sc.quarRec {
		for name, want := range sc.quar {
			if got := fsys.content(name); !bytes.Equal(got, want) {
				return fmt.Errorf("past the quarantine record, %s holds %d bytes, want the %d Repair wrote", name, len(got), len(want))
			}
		}
	}
	return nil
}

// imageKey identifies an image by its names, inodes and content slices:
// contents are never written in place, so two images with one key are one.
func imageKey(im fsImage) string {
	var b strings.Builder
	for _, dir := range sortedKeys(im.dirs) {
		for _, name := range sortedKeys(im.dirs[dir]) {
			ino := im.dirs[dir][name]
			c := im.files[ino]
			fmt.Fprintf(&b, "%s/%s:%d:%d:%p;", dir, name, ino, len(c), c)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
