package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/telemetry"
)

// The flags more than one tool takes are defined here, once each, in small
// groups a main registers on the command line before flag.Parse. A flag has
// the same name, default and meaning in every tool that has it.

// Telemetry is the -telemetry.addr / -telemetry.events pair.
type Telemetry struct{ Addr, Events string }

// TelemetryFlags defines -telemetry.addr and -telemetry.events into t.
func TelemetryFlags(t *Telemetry) {
	flag.StringVar(&t.Addr, "telemetry.addr", "", "serve live /metrics, /debug/snapshot and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	flag.StringVar(&t.Events, "telemetry.events", "", "write JSONL span events to this file")
}

// Start starts the endpoint the flags ask for; the caller closes it. When it
// serves, its /metrics URL goes to announce, or with announce nil to stderr
// as "telemetry: serving URL".
func (t Telemetry) Start(announce func(url string)) (*telemetry.Endpoint, error) {
	ep, err := telemetry.StartEndpoint(t.Addr, t.Events)
	if err != nil {
		return nil, err
	}
	if a := ep.Addr(); a != "" {
		url := "http://" + a + "/metrics"
		if announce == nil {
			fmt.Fprintf(os.Stderr, "telemetry: serving %s\n", url)
		} else {
			announce(url)
		}
	}
	return ep, nil
}

// Engine is the -engine / -alpha pair.
type Engine struct {
	Name  string
	Alpha float64
}

// EngineFlags defines -engine and -alpha into e.
func EngineFlags(e *Engine) {
	flag.StringVar(&e.Name, "engine", "defrag", "engine: defrag, ddfs, silo, sparse, idedup")
	flag.Float64Var(&e.Alpha, "alpha", 0.1, "DeFrag SPL threshold α")
}

// Backend is the -backend / -store.dir pair.
type Backend struct{ Name, Dir string }

// BackendFlags defines -backend and -store.dir into b.
func BackendFlags(b *Backend) {
	flag.StringVar(&b.Name, "backend", "sim", "storage backend: sim (in-memory) or file (durable directory store)")
	flag.StringVar(&b.Dir, "store.dir", "", "file backend root directory (required for -backend file)")
}

// RestoreCacheFlag defines -restore.cache into n.
func RestoreCacheFlag(n *int) {
	flag.IntVar(n, "restore.cache", 0, "restore cache capacity in containers, or under faa the window (0 = default, 8)")
}

// FilterFlag defines -filter into on.
func FilterFlag(on *bool) {
	flag.BoolVar(on, "filter", false, "enable the prioritized inline filter (DeFrag): poorly clustered streams write through and are re-deduped by maintenance")
}

// SeedFlag defines -seed into seed, defaulting to def.
func SeedFlag(seed *int64, def int64) {
	flag.Int64Var(seed, "seed", def, "workload seed")
}
