// Package trace is CachePortal's dependency-free pipeline tracer. One
// trace follows one database update from the moment the engine commits it
// to the moment the web cache ejects the pages it invalidated — the causal
// chain behind a single point in the invalidator.staleness_seconds
// histogram.
//
// Design constraints, in order:
//
//   - Lock-cheap on the commit path. Allocating a trace ID is one atomic
//     add; an unsampled trace records nothing else. The span store is a
//     fixed ring buffer behind a mutex touched only for *recorded* spans.
//   - Bounded memory. Spans live in a ring of Buffer entries; old spans
//     are overwritten, never accumulated. The forced-sample set is a
//     bounded FIFO.
//   - Head-based sampling with a tail escape hatch. Whether a trace is
//     recorded is decided from its ID alone (every Nth trace), so every
//     process in the Figure-7 topology makes the same decision with no
//     coordination. When the invalidator discovers *after the fact* that a
//     trace is an outlier (an eject failed and the page is going stale),
//     it calls Force(id) so every subsequent span of that trace — the
//     retries, the circuit-breaker flush — is recorded even if the head
//     decision was "skip".
//
// All methods are nil-safe: a nil *Tracer is "tracing off" and costs one
// pointer compare, so components carry an optional tracer without guards.
package trace

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Context identifies a position in a trace: the trace itself plus the
// span that any new child should hang off. It travels in-band — inside
// UpdateLog records (on the wire too), and the eject stream's records
// (see Context.String / ParseContext).
type Context struct {
	Trace int64 `json:"trace"`
	Span  int64 `json:"span,omitempty"`
}

// Valid reports whether the context belongs to a trace at all. The zero
// Context means "untraced" and is what every recording method returns when
// tracing is off.
func (c Context) Valid() bool { return c.Trace != 0 }

// String renders the context for header transport as "trace:span".
func (c Context) String() string {
	return strconv.FormatInt(c.Trace, 10) + ":" + strconv.FormatInt(c.Span, 10)
}

// ParseContext parses the Context.String form. Malformed input yields the
// zero (invalid) Context — header corruption must never fail an eject.
func ParseContext(s string) Context {
	t, sp, ok := strings.Cut(s, ":")
	if !ok {
		return Context{}
	}
	trace, err1 := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	span, err2 := strconv.ParseInt(strings.TrimSpace(sp), 10, 64)
	if err1 != nil || err2 != nil {
		return Context{}
	}
	return Context{Trace: trace, Span: span}
}

// FormatContexts joins contexts into one comma-separated value, dropping
// invalid entries.
func FormatContexts(ctxs []Context) string {
	var b strings.Builder
	for _, c := range ctxs {
		if !c.Valid() {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// ParseContexts splits a FormatContexts value, dropping invalid entries.
func ParseContexts(s string) []Context {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]Context, 0, len(parts))
	for _, p := range parts {
		if c := ParseContext(p); c.Valid() {
			out = append(out, c)
		}
	}
	return out
}

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one recorded hop of the pipeline. Terminal marks the span that
// closes the trace (the web cache's eject); a trace whose span set includes
// a terminal span is complete.
type Span struct {
	Trace    int64     `json:"trace"`
	ID       int64     `json:"id"`
	Parent   int64     `json:"parent,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	DurNS    int64     `json:"dur_ns"`
	Terminal bool      `json:"terminal,omitempty"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// End returns the span's end time.
func (s Span) End() time.Time { return s.Start.Add(time.Duration(s.DurNS)) }

// DefaultSample is the daemons' default head-sampling rate: record every
// 64th trace. Production update rates make 1-in-64 plenty for exemplars;
// tests and the smoke harness use 1.
const DefaultSample = 64

// DefaultBuffer is the default span ring capacity.
const DefaultBuffer = 4096

// maxForced bounds the forced-sample set; oldest pins are evicted first.
const maxForced = 1024

// Tracer allocates trace IDs, decides sampling, and stores recorded spans
// in a bounded ring. The zero value is unusable; construct with New. A nil
// *Tracer is valid everywhere and means tracing is disabled.
type Tracer struct {
	sample    int64
	nextTrace atomic.Int64
	nextSpan  atomic.Int64
	forceAll  atomic.Bool
	recorded  atomic.Int64
	dropped   atomic.Int64

	mu      sync.Mutex
	ring    []Span
	pos     int  // next write index
	full    bool // ring has wrapped at least once
	forced  map[int64]struct{}
	forcedQ []int64 // FIFO eviction order for forced
}

// New builds a Tracer recording every sampleEvery-th trace (<=1 records
// all) into a ring of buffer spans (<=0 uses DefaultBuffer).
func New(sampleEvery, buffer int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	return &Tracer{
		sample: int64(sampleEvery),
		ring:   make([]Span, buffer),
		forced: make(map[int64]struct{}),
	}
}

// Sampled reports the head-based decision for a trace ID: true for every
// sample-th ID. Deterministic in the ID, so every process agrees.
func (t *Tracer) Sampled(id int64) bool {
	if t == nil || id == 0 {
		return false
	}
	return t.sample <= 1 || id%t.sample == 0
}

// Recording reports whether spans of the given trace should be recorded
// now: head-sampled, force-pinned, or under ForceAll.
func (t *Tracer) Recording(id int64) bool {
	if t == nil || id == 0 {
		return false
	}
	if t.sample <= 1 || id%t.sample == 0 || t.forceAll.Load() {
		return true
	}
	t.mu.Lock()
	_, ok := t.forced[id]
	t.mu.Unlock()
	return ok
}

// Force pins a trace ID so its subsequent spans are recorded regardless of
// the head-sampling decision — the forced-sample hook for outliers
// discovered mid-flight (a failed eject, a breaker trip). The pin set is
// bounded; the oldest pin is evicted past maxForced.
func (t *Tracer) Force(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.forced[id]; ok {
		return
	}
	for len(t.forcedQ) >= maxForced {
		delete(t.forced, t.forcedQ[0])
		t.forcedQ = t.forcedQ[1:]
	}
	t.forced[id] = struct{}{}
	t.forcedQ = append(t.forcedQ, id)
}

// SetForceAll toggles recording of every trace regardless of sampling —
// the smoke harness and tests use it instead of sample=1 wiring.
func (t *Tracer) SetForceAll(on bool) {
	if t == nil {
		return
	}
	t.forceAll.Store(on)
}

// Root opens a new trace and records its root span (when sampled). The
// returned Context carries a span ID even for unsampled traces, so the
// parent chain stays coherent if the trace is forced later.
func (t *Tracer) Root(name string, start, end time.Time, attrs ...Attr) Context {
	if t == nil {
		return Context{}
	}
	ctx := Context{Trace: t.nextTrace.Add(1), Span: t.nextSpan.Add(1)}
	if t.Recording(ctx.Trace) {
		t.push(Span{
			Trace: ctx.Trace, ID: ctx.Span, Name: name,
			Start: start, DurNS: int64(end.Sub(start)), Attrs: attrs,
		})
	}
	return ctx
}

// Record adds a child span under ctx with explicit start/end times and
// returns the child's context. Spans are recorded retroactively — the
// invalidator times a whole cycle phase and attributes it to each sampled
// trace in the batch — so there is no open/close API, just Record.
// Unrecorded traces return ctx unchanged so chains pass through.
func (t *Tracer) Record(ctx Context, name string, start, end time.Time, attrs ...Attr) Context {
	return t.record(ctx, name, start, end, false, attrs)
}

// RecordTerminal is Record for the span that closes the trace — the web
// cache's eject.
func (t *Tracer) RecordTerminal(ctx Context, name string, start, end time.Time, attrs ...Attr) Context {
	return t.record(ctx, name, start, end, true, attrs)
}

func (t *Tracer) record(ctx Context, name string, start, end time.Time, terminal bool, attrs []Attr) Context {
	if t == nil || !ctx.Valid() || !t.Recording(ctx.Trace) {
		return ctx
	}
	id := t.nextSpan.Add(1)
	t.push(Span{
		Trace: ctx.Trace, ID: id, Parent: ctx.Span, Name: name,
		Start: start, DurNS: int64(end.Sub(start)), Terminal: terminal, Attrs: attrs,
	})
	return Context{Trace: ctx.Trace, Span: id}
}

func (t *Tracer) push(s Span) {
	t.recorded.Add(1)
	t.mu.Lock()
	if t.full {
		t.dropped.Add(1)
	}
	t.ring[t.pos] = s
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Spans returns the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.ring[:t.pos]...)
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.pos:]...)
	return append(out, t.ring[:t.pos]...)
}

// TraceSpans returns the buffered spans of one trace, oldest first.
func (t *Tracer) TraceSpans(id int64) []Span {
	all := t.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out[:len(out):len(out)]
}

// Summary is the per-trace rollup served by /debug/trace's list view.
type Summary struct {
	Trace    int64     `json:"trace"`
	Root     string    `json:"root,omitempty"` // name of the parentless span
	Spans    int       `json:"spans"`
	Start    time.Time `json:"start"`
	DurMS    float64   `json:"dur_ms"` // earliest start to latest end
	Complete bool      `json:"complete"`
}

// Traces rolls the buffer up into one Summary per trace, most recent
// first. A trace is Complete when a terminal span was recorded for it.
func (t *Tracer) Traces() []Summary {
	if t == nil {
		return nil
	}
	type agg struct {
		Summary
		end time.Time
	}
	spans := t.Spans()
	byTrace := make(map[int64]*agg)
	order := make([]int64, 0, 16)
	for _, s := range spans {
		a, ok := byTrace[s.Trace]
		if !ok {
			a = &agg{Summary: Summary{Trace: s.Trace, Start: s.Start}, end: s.End()}
			byTrace[s.Trace] = a
			order = append(order, s.Trace)
		}
		a.Spans++
		if s.Parent == 0 && a.Root == "" {
			a.Root = s.Name
		}
		if s.Start.Before(a.Start) {
			a.Start = s.Start
		}
		if end := s.End(); end.After(a.end) {
			a.end = end
		}
		if s.Terminal {
			a.Complete = true
		}
	}
	out := make([]Summary, 0, len(order))
	for _, id := range order {
		a := byTrace[id]
		if a.end.After(a.Start) {
			a.DurMS = float64(a.end.Sub(a.Start)) / float64(time.Millisecond)
		}
		out = append(out, a.Summary)
	}
	// Most recent trace first; buffer order already groups spans, but
	// traces interleave, so sort by start (then ID for stability).
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].Trace > out[j].Trace
	})
	return out
}

// Stats is the tracer's own accounting, served alongside /debug/trace.
type Stats struct {
	Sample   int   `json:"sample"`
	Buffer   int   `json:"buffer"`
	Recorded int64 `json:"recorded"`
	Dropped  int64 `json:"dropped"` // overwritten by ring wrap
	Forced   int   `json:"forced"`  // currently pinned trace IDs
}

// Stats returns the tracer's accounting counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	forced := len(t.forced)
	t.mu.Unlock()
	return Stats{
		Sample:   int(t.sample),
		Buffer:   len(t.ring),
		Recorded: t.recorded.Load(),
		Dropped:  t.dropped.Load(),
		Forced:   forced,
	}
}
