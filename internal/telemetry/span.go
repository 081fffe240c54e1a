package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed phase of the pipeline, a node of a request's trace
// tree: it carries the trace ID of the request it serves, its own random
// span ID, and its parent's span ID (zero for a root). Ending a span
// observes its wall duration into the `telemetry_span_seconds{span=...}`
// histogram, its simulated-clock duration (when set) into
// `telemetry_span_sim_seconds`, emits one JSONL event to the registry's
// sink when one is attached, and records the span into the registry's
// tail-capture buffer so slow or errored request trees survive for
// /debug/traces.
//
// A Span is owned by the goroutine that started it; attributes and errors
// must be set before End, and End must be called exactly once. Spans
// started from a context carrying another span join its trace with that
// span as parent; a context carrying a remote parent (a client's
// traceparent, see ContextWithRemoteParent) starts a local root of the
// remote trace.
type Span struct {
	reg    *Registry
	name   string
	trace  TraceID
	id     SpanID
	parent SpanID
	root   bool // local root: finalizes the trace's tail capture on End
	start  time.Time
	sim    time.Duration
	simSet bool
	ended  bool
	attrs  []Attr
	errMsg string
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

type spanCtxKey struct{}

// tracingOn gates the span layer (StartSpan returns a no-op nil span when
// false). The per-stage nanosecond counters (stage.go) are not gated — they
// are the always-on layer.
var tracingOn atomic.Bool

func init() { tracingOn.Store(true) }

// SetTracing enables or disables span tracing process-wide (the overhead
// kill switch; see the tracing-overhead guard test). Returns the previous
// setting.
func SetTracing(on bool) bool { return tracingOn.Swap(on) }

// StartSpan starts a span on the Default registry. The returned context
// carries the span, parenting any spans started from it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return std.StartSpan(ctx, name)
}

// StartSpan starts a named span, recording the span in ctx's lineage. With
// tracing disabled it returns ctx unchanged and a nil span (all Span
// methods are nil-safe no-ops).
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !tracingOn.Load() {
		return ctx, nil
	}
	s := &Span{
		reg:   r,
		name:  name,
		id:    NewSpanID(),
		start: time.Now(),
	}
	switch {
	case ctxSpan(ctx) != nil:
		p := ctxSpan(ctx)
		s.trace = p.trace
		s.parent = p.id
	default:
		if rp, ok := ctx.Value(remoteParentKey{}).(remoteParent); ok {
			s.trace = rp.trace
			s.parent = rp.span
		} else {
			s.trace = NewTraceID()
		}
		s.root = true
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

func ctxSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanFromContext returns the innermost span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	return ctxSpan(ctx)
}

// Trace returns the trace ID this span belongs to (zero for a nil span).
func (s *Span) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// ID returns the span's own ID (zero for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetSim attaches the simulated-clock duration of the spanned phase (the
// disk-model time the phase consumed, as opposed to the wall time the
// simulation took to compute it).
func (s *Span) SetSim(d time.Duration) {
	if s == nil {
		return
	}
	s.sim = d
	s.simSet = true
}

// SetAttr annotates the span. Must be called by the owning goroutine,
// before End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetError marks the span failed. Errored roots are always retained by the
// tail-capture buffer.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span: wall (and, if set, simulated) duration are observed
// into the per-span-name histograms, an event goes to the sink, and the
// span record lands in the tail-capture buffer (which, on a root span,
// decides whether the whole tree is retained). A second End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	wall := time.Since(s.start)
	s.reg.Histogram(
		Name("telemetry_span_seconds", "span", s.name),
		"wall-clock duration of pipeline phases, by span name",
		DurationBuckets,
	).ObserveDuration(wall)
	if s.simSet {
		s.reg.Histogram(
			Name("telemetry_span_sim_seconds", "span", s.name),
			"simulated-clock duration of pipeline phases, by span name",
			DurationBuckets,
		).ObserveDuration(s.sim)
	}
	rec := s.record(wall)
	s.reg.emitSpan(&rec)
	if tc := s.reg.tail; tc != nil {
		tc.add(rec, s.root)
	}
}

// record renders the span's exportable form.
func (s *Span) record(wall time.Duration) SpanRecord {
	rec := SpanRecord{
		Name:        s.name,
		Trace:       s.trace.String(),
		ID:          s.id.String(),
		StartUnixNS: s.start.UnixNano(),
		WallNS:      int64(wall),
		Err:         s.errMsg,
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	if s.simSet {
		rec.SimNS = int64(s.sim)
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	return rec
}

// SpanRecord is the exportable form of one finished span: the JSONL sink
// event and the node type of /debug/traces trees. IDs are hex as on the
// wire; Parent is empty for a trace's root span.
type SpanRecord struct {
	Name        string         `json:"span"`
	Trace       string         `json:"trace"`
	ID          string         `json:"id"`
	Parent      string         `json:"parent,omitempty"`
	StartUnixNS int64          `json:"start_unix_ns"`
	WallNS      int64          `json:"wall_ns"`
	SimNS       int64          `json:"sim_ns,omitempty"`
	Err         string         `json:"error,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// eventSink serializes JSONL writes from concurrent span ends.
type eventSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// SetSink directs structured span events to w as JSONL (one object per
// line). Pass nil to detach. The registry serializes writes; w need not be
// safe for concurrent use.
func (r *Registry) SetSink(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w == nil {
		r.sink = nil
		return
	}
	r.sink = &eventSink{enc: json.NewEncoder(w)}
}

// SetSink directs the Default registry's span events to w.
func SetSink(w io.Writer) { std.SetSink(w) }

func (r *Registry) emitSpan(rec *SpanRecord) {
	r.mu.RLock()
	sink := r.sink
	r.mu.RUnlock()
	if sink == nil {
		return
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	_ = sink.enc.Encode(rec) // best-effort: a failing sink must not break the pipeline
}
