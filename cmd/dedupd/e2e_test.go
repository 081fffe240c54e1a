package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/cli"
)

// The e2e tests below need a real dedupd process so they can kill it
// uncleanly. Rather than depend on a pre-built binary, the test binary
// re-execs itself: when the marker variable is set, TestMain runs dedupd's
// real entry point instead of the test suite.
const childEnv = "DEDUPD_E2E_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		cli.Main("dedupd", realMain)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dedupdProc is one spawned dedupd server process.
type dedupdProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
}

// startDedupd spawns a dedupd child on a fresh port over a file-backend
// store in dir, waits until /healthz answers, and returns the handle.
func startDedupd(t *testing.T, dir string, extraArgs ...string) *dedupdProc {
	t.Helper()
	addr := freeAddr(t)
	args := []string{
		"-addr", addr,
		"-engine", "defrag",
		"-backend", "file",
		"-store.dir", dir,
		"-expected.gb", "0.05",
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &dedupdProc{cmd: cmd, addr: addr, dir: dir}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill() //nolint:errcheck // best-effort teardown
			p.cmd.Wait()         //nolint:errcheck // best-effort teardown
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url("/healthz"))
		if err == nil {
			resp.Body.Close() //nolint:errcheck // health poll
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("dedupd on %s never became healthy", addr)
	return nil
}

func (p *dedupdProc) url(path string) string { return "http://" + p.addr + path }

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() //nolint:errcheck // reserving a port
	return addr
}

// seededData is deterministic pseudo-random content for one backup stream.
func seededData(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf) //nolint:errcheck // never fails
	return buf
}

func uploadBackup(p *dedupdProc, label string, data []byte) error {
	resp, err := http.Post(p.url("/v1/backups/"+label), "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // status is the signal
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("upload %s: status %d: %s", label, resp.StatusCode, body)
	}
	return nil
}

// tenantsInflight polls /v1/stats for the default tenant's in-flight count.
func tenantsInflight(p *dedupdProc) (int, error) {
	resp, err := http.Get(p.url("/v1/stats"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //nolint:errcheck // decoded below
	var sv struct {
		Tenants map[string]int `json:"tenantsInflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		return 0, err
	}
	return sv.Tenants["default"], nil
}

// reopenAndAudit opens the store directory the dead server left behind and
// asserts the replay of its two logs produced a consistent store: fsck passes, every
// label in want restores bit-identically, and no other backups survived.
func reopenAndAudit(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	s, err := repro.Open(repro.Options{
		Engine:        repro.DeFrag,
		Alpha:         0.1,
		StoreData:     true,
		ExpectedBytes: 50 << 20,
		Backend:       repro.FileBackend,
		Dir:           dir,
	})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s.Close() //nolint:errcheck // test teardown

	ctx := context.Background()
	rep, err := s.Check(ctx, true)
	if err != nil {
		t.Fatalf("fsck after crash: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("store not fsck-clean after crash: %v", rep.Problems)
	}
	if got := len(s.Backups()); got != len(want) {
		var labels []string
		for _, b := range s.Backups() {
			labels = append(labels, b.Label)
		}
		t.Fatalf("retained %d backups %v, want %d", got, labels, len(want))
	}
	for label, data := range want {
		b := s.FindBackup(label)
		if b == nil {
			t.Fatalf("completed backup %q lost in crash", label)
		}
		var buf bytes.Buffer
		if _, err := s.Restore(ctx, b, &buf, true); err != nil {
			t.Fatalf("restore %q after crash: %v", label, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("restore %q after crash: content diverged (%d vs %d bytes)",
				label, buf.Len(), len(data))
		}
	}
}

// TestE2EKillMidIngest is the hard-crash path: a completed upload, then a
// second upload held mid-stream while the server takes SIGKILL. No drain, no
// store.Close — recovery has only the two logs. Reopening must be fsck-clean, the
// completed backup must restore bit-identically, and the half-ingested one
// must have vanished entirely.
func TestE2EKillMidIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	p := startDedupd(t, dir)

	done := seededData(1, 512<<10)
	if err := uploadBackup(p, "gen-complete", done); err != nil {
		t.Fatal(err)
	}

	// Hold a second upload in flight: stream through a pipe and keep
	// feeding it so the ingest is mid-container when the process dies.
	pr, pw := io.Pipe()
	uploadErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, p.url("/v1/backups/gen-doomed"), pr)
		if err != nil {
			uploadErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close() //nolint:errcheck // outcome irrelevant
		}
		uploadErr <- err
	}()
	feed := seededData(2, 64<<10)
	stopFeed := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopFeed:
				pw.CloseWithError(io.ErrClosedPipe) //nolint:errcheck // pipe teardown
				return
			default:
				if _, err := pw.Write(feed); err != nil {
					return
				}
			}
		}
	}()
	defer close(stopFeed)

	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := tenantsInflight(p)
		if err == nil && n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held upload never showed up in-flight (last err: %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait() //nolint:errcheck // killed on purpose
	<-uploadErr  // connection dies with the server; error content irrelevant

	reopenAndAudit(t, dir, map[string][]byte{"gen-complete": done})
}

// postMaintenance asks the server for one maintenance epoch. A transport
// error is returned as-is: when the process is killed mid-request the dead
// connection is the expected signal.
func postMaintenance(p *dedupdProc) error {
	resp, err := http.Post(p.url("/v1/maintenance"), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // status is the signal
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("maintenance: status %d: %s", resp.StatusCode, body)
	}
	return nil
}

// dispersedOf reorders base at 32 KiB granularity with unique blocks
// interleaved: against a store already holding newer history, its
// duplicates resolve far behind the write head, so the inline filter
// demotes the stream to write-through spill.
func dispersedOf(base []byte, salt byte) []byte {
	const block = 32 << 10
	var out bytes.Buffer
	n := len(base) / block
	for i := 0; i < n; i++ {
		j := (i*7 + 3) % n
		out.Write(base[j*block : (j+1)*block])
		if i%4 == 0 {
			fresh := make([]byte, block)
			for k := range fresh {
				fresh[k] = byte(i*131+k*17) ^ salt
			}
			out.Write(fresh)
		}
	}
	return out.Bytes()
}

// TestE2EKillDuringFilteredMaintenance is the crash story for the
// prioritized-filter pipeline: a server running with the inline filter on
// ingests streams the filter spills, survives one full out-of-line re-dedup
// epoch, and then takes SIGKILL while another maintenance epoch is in
// flight. No drain, no Close — reopening must be fsck-clean with every
// committed backup (including the spilled-then-rededuped one) restoring
// bit-identically.
func TestE2EKillDuringFilteredMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	p := startDedupd(t, dir,
		"-filter",
		"-filter.probation", "64",
		"-maintenance.util", "0.95",
	)

	want := make(map[string][]byte)
	base := seededData(20, 512<<10)
	want["base"] = base
	if err := uploadBackup(p, "base", base); err != nil {
		t.Fatal(err)
	}
	// Unique history pushes the write head past base's containers, so the
	// dispersed copy's duplicates score as cold.
	for i := 0; i < 3; i++ {
		label := fmt.Sprintf("fill-%d", i)
		want[label] = seededData(int64(21+i), 512<<10)
		if err := uploadBackup(p, label, want[label]); err != nil {
			t.Fatal(err)
		}
	}
	want["dispersed"] = dispersedOf(base, 0x5A)
	if err := uploadBackup(p, "dispersed", want["dispersed"]); err != nil {
		t.Fatal(err)
	}

	// One epoch completes cleanly: the spilled refs re-dedup onto the
	// authoritative copies while the server is live.
	if err := postMaintenance(p); err != nil {
		t.Fatal(err)
	}

	// Kill the process while a second epoch is in flight. Whether the kill
	// lands before, during, or after the epoch's work is deliberately racy —
	// every instant must be recoverable.
	maintDone := make(chan error, 1)
	go func() { maintDone <- postMaintenance(p) }()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait() //nolint:errcheck // killed on purpose
	<-maintDone  // connection outcome irrelevant

	reopenAndAudit(t, dir, want)
}

// TestE2ECrashAfterIngest: the server takes SIGKILL right after two ingests
// were acknowledged, so the logs' last records are a live container and its
// backup, and nothing closed the store. Both acknowledged backups must
// survive replay.
func TestE2ECrashAfterIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	p := startDedupd(t, dir)

	want := map[string][]byte{
		"gen-0": seededData(10, 384<<10),
		"gen-1": seededData(11, 384<<10),
	}
	for _, label := range []string{"gen-0", "gen-1"} {
		if err := uploadBackup(p, label, want[label]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait() //nolint:errcheck // killed on purpose

	reopenAndAudit(t, dir, want)
}

// TestE2ELoadgenWritesOnlyWhatIsAsked runs the smoke client as a real
// process, flags parsed as a user's would be: with no -loadgen.out it
// verifies its restores, prints the summary line with the trace round trip,
// and leaves its working directory empty; with one it writes that file and
// nothing else.
func TestE2ELoadgenWritesOnlyWhatIsAsked(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	// A fresh server per run: labels are per tenant and generation, so a
	// second run against the same store would upload them twice.
	loadgen := func(cwd string, extra ...string) string {
		t.Helper()
		p := startDedupd(t, t.TempDir())
		args := append([]string{"-loadgen", "-addr", p.addr, "-log.level", "warn",
			"-loadgen.tenants", "2", "-loadgen.gens", "2", "-loadgen.files", "4", "-loadgen.filekb", "64"}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Dir = cwd
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("dedupd %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	left := func(dir string) []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}

	cwd := t.TempDir()
	out := loadgen(cwd)
	for _, want := range []string{"verified=true", "0 failed", "trace round-trip: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary line lacks %q:\n%s", want, out)
		}
	}
	if names := left(cwd); len(names) != 0 {
		t.Errorf("-loadgen with no output flag left %v in its working directory", names)
	}

	cwd = t.TempDir()
	loadgen(cwd, "-loadgen.out", "traj.json")
	if names := left(cwd); len(names) != 1 || names[0] != "traj.json" {
		t.Fatalf("-loadgen.out traj.json left %v", names)
	}
	var rep loadgenReport
	raw, err := os.ReadFile(filepath.Join(cwd, "traj.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) != 8 || !rep.Summary.AllVerified || rep.Summary.Failed != 0 {
		t.Fatalf("trajectory: %d ops, summary %+v", len(rep.Ops), rep.Summary)
	}
}
