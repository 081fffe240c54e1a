package blockstore

import (
	"runtime/debug"
	"sync"
	"unsafe"

	"repro/internal/telemetry"
)

// live is every section a read mapped and nobody has released yet, by its
// first byte. Release is keyed by the slice, not by a Backend method, so that
// a wrapper which forwards the slices it is given (Counting, the perf rig's
// meter) needs to know nothing of it.
var live = struct {
	sync.Mutex
	by map[*byte]mapping
}{by: make(map[*byte]mapping)}

type mapping struct {
	n     int
	unmap func() error
	fault func() error // the error a fault inside the mapping stands for
}

// track registers data, a mapping that unmap lets go of and in which a
// fault stands for fault().
func track(data []byte, unmap, fault func() error) {
	live.Lock()
	live.by[&data[0]] = mapping{n: len(data), unmap: unmap, fault: fault}
	live.Unlock()
}

// Mapped reports whether section is a mapping that Release will let go of,
// rather than bytes the collector owns.
func Mapped(section []byte) bool {
	if len(section) == 0 {
		return false
	}
	live.Lock()
	defer live.Unlock()
	_, ok := live.by[&section[0]]
	return ok
}

// Release lets go of a section ReadData or ReadDataRange returned, which
// nothing may read after: a mapping is unmapped, anything else (Sim's sealed
// sections, a metadata-only store's zeros, a plain read's copy) is left to
// the collector. Releasing a slice twice, or one that is no section, does
// nothing.
func Release(section []byte) {
	if len(section) == 0 {
		return
	}
	live.Lock()
	m, ok := live.by[&section[0]]
	delete(live.by, &section[0])
	live.Unlock()
	if !ok {
		return
	}
	if err := m.unmap(); err != nil {
		telemetry.Logger().Warn("blockstore: unmapping a data section failed; its address space stays taken", "err", err)
	}
}

// Guard runs fn, which reads sections a backend returned, and turns a fault
// on a live mapping into the error it stands for: ErrCorrupt naming the
// container when its file has become shorter than its fill (torn under the
// reader), another error naming it otherwise. Any other panic goes on. Only
// the calling goroutine is guarded: fn must not hand the bytes to another.
func Guard(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = faultError(r)
		}
	}()
	return fn()
}

// faultError is the error the fault r stands for, or r raised again when it
// is no fault on a live mapping.
func faultError(r any) error {
	f, ok := r.(interface{ Addr() uintptr })
	if !ok {
		panic(r)
	}
	at := f.Addr()
	live.Lock()
	var fault func() error
	for first, m := range live.by {
		if start := uintptr(unsafe.Pointer(first)); at >= start && at < start+uintptr(m.n) {
			fault = m.fault
			break
		}
	}
	live.Unlock()
	if fault == nil {
		panic(r)
	}
	return fault()
}
