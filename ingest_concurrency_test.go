package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"
)

// ingestDeadline bounds every concurrent-ingest test below, so that a store
// which hangs fails the test instead of stalling the suite.
const ingestDeadline = 90 * time.Second

// withinDeadline runs each fn on a goroutine of its own and fails the test
// with the first error, or as soon as any of them is still running at the
// deadline.
func withinDeadline(t *testing.T, fns ...func() error) {
	t.Helper()
	errs := make(chan error, len(fns))
	for _, fn := range fns {
		go func() { errs <- fn() }()
	}
	timeout := time.After(ingestDeadline)
	for range fns {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("still running after %v: the store hangs", ingestDeadline)
		}
	}
}

// gatedReader serves the first three quarters of its bytes, closes reached,
// and serves the rest once open is closed: a backup reading it holds its open container
// for as long as the test wants.
type gatedReader struct {
	data    []byte
	off     int
	reached chan struct{}
	open    chan struct{}
}

func newGatedReader(data []byte) *gatedReader {
	return &gatedReader{data: data, reached: make(chan struct{}), open: make(chan struct{})}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if gate := len(g.data) * 3 / 4; g.off == gate {
		close(g.reached)
		<-g.open
	} else if g.off < gate && g.off+len(p) > gate {
		p = p[:gate-g.off]
	}
	if g.off == len(g.data) {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:])
	g.off += n
	return n, nil
}

// waitForOpenContainer waits until s has a container open: one that has
// its ID and has not sealed.
func waitForOpenContainer(t *testing.T, s *Store) {
	t.Helper()
	cs := s.eng.Containers()
	for deadline := time.Now().Add(ingestDeadline); cs.Slots() == cs.NumContainers(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the gated backup never opened a container")
		}
	}
}

// verifyStore restores every retained backup against want (by label) and
// checks the store fsck-clean.
func verifyStore(t *testing.T, s *Store, want map[string][]byte) {
	t.Helper()
	if got := len(s.Backups()); got != len(want) {
		t.Fatalf("%d backups retained, want %d", got, len(want))
	}
	for _, b := range s.Backups() {
		var out bytes.Buffer
		if _, err := s.Restore(context.Background(), b, &out, true); err != nil {
			t.Fatalf("restoring %s: %v", b.Label, err)
		}
		if !bytes.Equal(out.Bytes(), want[b.Label]) {
			t.Fatalf("backup %s restores different bytes", b.Label)
		}
	}
	rep, err := s.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store not fsck-clean: %v", rep.Problems)
	}
}

// Two Store.Backup calls at once drive one store. Every engine ingests a
// Backup on its master clock through the store's one serial container
// writer, which is not safe for concurrent use: the store must run them one
// at a time.
func TestBackupBesideBackup(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind EngineKind) {
		s, err := Open(Options{Engine: kind, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		want := map[string][]byte{}
		var fns []func() error
		for w := 0; w < 2; w++ {
			var labels []string
			for i := 0; i < 2; i++ {
				label := fmt.Sprintf("w%d/b%d", w, i)
				want[label] = randStream(5<<20, int64(10*w+i+1))
				labels = append(labels, label)
			}
			fns = append(fns, func() error {
				for _, label := range labels {
					if _, err := s.Backup(context.Background(), label, bytes.NewReader(want[label])); err != nil {
						return fmt.Errorf("backup %s: %w", label, err)
					}
				}
				return nil
			})
		}
		withinDeadline(t, fns...)
		verifyStore(t, s, want)
	})
}

// forgetOldest forgets the two oldest backups of s, leaving garbage for a
// merge to collect, and returns their labels.
func forgetOldest(t *testing.T, s *Store) (forgot []string) {
	for _, b := range s.Backups()[:2] {
		if !s.Forget(b.Label).Found {
			t.Fatalf("forget %s: not found", b.Label)
		}
		forgot = append(forgot, b.Label)
	}
	return forgot
}

// A Store.Backup whose container is open while another writer reserves
// device space — a lane of IngestStream, the maintenance merge of a Compact
// or an epoch — must seal where it placed its chunks, beside that
// reservation, and leave every backup restorable.
func TestBackupBesideReservingWriters(t *testing.T) {
	for _, row := range []struct {
		name string
		// prepare readies the store so that run has work; it returns the
		// labels it forgot.
		prepare func(t *testing.T, s *Store) []string
		run     func(s *Store, want map[string][]byte) error
	}{
		{"ingest-stream", nil, func(s *Store, want map[string][]byte) error {
			data := randStream(5<<20, 99)
			want["lane"] = data
			_, err := s.IngestStream(context.Background(), "lane", bytes.NewReader(data))
			return err
		}},
		{"compact", forgetOldest,
			func(s *Store, _ map[string][]byte) error {
				cs, err := s.Compact(context.Background(), 0.95)
				if err == nil && cs.ContainersCollected == 0 {
					err = fmt.Errorf("compact found nothing to collect: %+v", cs)
				}
				return err
			}},
		{"epoch", forgetOldest, func(s *Store, _ map[string][]byte) error {
			st, err := s.MaintenanceEpoch(context.Background())
			if err == nil && st.ContainersMerged == 0 {
				err = fmt.Errorf("the epoch merged nothing: %+v", st)
			}
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
				ExpectedBytes: 64 << 20, Maintenance: maintOptions()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := map[string][]byte{}
			for i, data := range ingestGens(t, s, 81, 6) {
				want[s.Backups()[i].Label] = data
			}
			if row.prepare != nil {
				for _, label := range row.prepare(t, s) {
					delete(want, label)
				}
			}
			// At the gate the backup has written at least the 3 MB it read
			// less a segment and a hash job in flight, and has not filled
			// its first container: that container stays open, and the
			// backup seals nothing, until the gate opens.
			gated := newGatedReader(randStream(4<<20, 98))
			want["gated"] = gated.data
			backupDone := make(chan error, 1)
			go func() {
				_, err := s.Backup(context.Background(), "gated", gated)
				backupDone <- err
			}()
			<-gated.reached
			waitForOpenContainer(t, s)

			// The other writer runs while the gated backup's container is
			// open. It may not finish before the backup does (a merge's drop
			// waits out the foreground), so the gate opens once it has
			// reserved space or returned.
			dev := s.eng.Containers().Device()
			frontier := dev.Size()
			runDone := make(chan error, 1)
			go func() { runDone <- row.run(s, want) }()
			var runErr error
			ran := false
			for deadline := time.Now().Add(ingestDeadline); !ran && dev.Size() == frontier; {
				select {
				case runErr = <-runDone:
					ran = true
				case <-time.After(time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s neither reserved space nor returned", row.name)
				}
			}
			close(gated.open)
			withinDeadline(t,
				func() error { return <-backupDone },
				func() error {
					if ran {
						return runErr
					}
					return <-runDone
				})
			verifyStore(t, s, want)
		})
	}
}
