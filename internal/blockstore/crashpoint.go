package blockstore

import (
	"os"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Crash points let recovery tests kill the process at precisely the worst
// moments of a multi-step durable operation — between an intent record's
// fsync and the destructive work it authorizes, or halfway through that
// work. They model a SIGKILL: the process exits immediately, with no
// checkpoint or deferred cleanup. Production code never arms them; the dedupd
// e2e crash tests do, via a flag on the re-exec'd child.
const (
	// CrashMergeRemapped fires as a container merge's Drop is entered: the
	// recipes' remap away from the victims is durable in the catalog log, the
	// merge record is not yet written.
	CrashMergeRemapped = "merge-remapped"
	// CrashMergeIntent fires after a container merge's record is durably in
	// containers.log but before any victim file is deleted.
	CrashMergeIntent = "merge-intent"
	// CrashMergeFiles fires after the first victim's file is deleted,
	// mid-way through the merge's destructive phase.
	CrashMergeFiles = "merge-files"
	// CrashSealData fires after a container's data file has been renamed in
	// and before the seal record that makes the container exist.
	CrashSealData = "seal-data"
)

var armedCrashPoint atomic.Pointer[string]

// SetCrashPoint arms one named crash point ("" disarms). The next time the
// backend passes that point the process exits without cleanup.
func SetCrashPoint(name string) {
	if name == "" {
		armedCrashPoint.Store(nil)
		return
	}
	armedCrashPoint.Store(&name)
}

// maybeCrash exits the process if the named point is armed.
func maybeCrash(name string) {
	if p := armedCrashPoint.Load(); p != nil && *p == name {
		telemetry.Logger().Warn("simulating crash at point", "point", name)
		os.Exit(0)
	}
}
