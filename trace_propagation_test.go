package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// syncBuffer lets the telemetry sink be read back safely after concurrent
// span ends.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestIngestStreamTracePropagation runs concurrent IngestStreams, each under
// its own (remote-parented) trace, and asserts from the span sink that every
// span emitted for a request carries that request's trace ID and a parent
// that is either the remote root or another span of the same trace. Run
// under -race this is the concurrency gate for context-threaded tracing.
func TestIngestStreamTracePropagation(t *testing.T) {
	var sink syncBuffer
	telemetry.SetSink(&sink)
	defer telemetry.SetSink(nil)
	setProcs(t, 2) // hashing on a pool, not inline

	store, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 64 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close() //nolint:errcheck // test teardown

	const streams = 4
	type req struct {
		trace  telemetry.TraceID
		remote telemetry.SpanID
	}
	reqs := make([]req, streams)
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		reqs[i] = req{trace: telemetry.NewTraceID(), remote: telemetry.NewSpanID()}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := telemetry.ContextWithRemoteParent(context.Background(), reqs[i].trace, reqs[i].remote)
			data := randStream(256<<10, int64(1000+i))
			_, errs[i] = store.IngestStream(ctx, fmt.Sprintf("t%d/gen0", i), bytes.NewReader(data))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}

	// Decode every span event and index them per trace.
	dec := json.NewDecoder(bytes.NewReader(sink.bytes()))
	perTrace := make(map[string][]telemetry.SpanRecord)
	for {
		var rec telemetry.SpanRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		perTrace[rec.Trace] = append(perTrace[rec.Trace], rec)
	}

	for i, rq := range reqs {
		spans := perTrace[rq.trace.String()]
		if len(spans) == 0 {
			t.Fatalf("request %d: no spans carry trace %s", i, rq.trace)
		}
		ids := make(map[string]bool, len(spans))
		for _, sp := range spans {
			if sp.ID == "" {
				t.Fatalf("request %d: span %q has no ID", i, sp.Name)
			}
			if ids[sp.ID] {
				t.Fatalf("request %d: duplicate span ID %s", i, sp.ID)
			}
			ids[sp.ID] = true
		}
		roots := 0
		for _, sp := range spans {
			switch {
			case sp.Parent == rq.remote.String():
				roots++ // local root, parented to the client's remote span
			case ids[sp.Parent]:
				// interior span, parented within the trace
			default:
				t.Fatalf("request %d: span %q parent %q is neither the remote root nor a span of trace %s",
					i, sp.Name, sp.Parent, rq.trace)
			}
		}
		if roots != 1 {
			t.Fatalf("request %d: %d local roots, want exactly 1", i, roots)
		}
		found := false
		for _, sp := range spans {
			found = found || sp.Name == "store.ingest_stream"
		}
		if !found {
			t.Fatalf("request %d: no store.ingest_stream span in trace (got %d spans)", i, len(spans))
		}
	}
}
