package invalidator

import (
	"time"

	"repro/internal/trace"
	"repro/internal/webcache"
)

// Ejector delivers invalidation messages to caches (§4.2.4).
type Ejector interface {
	// Eject invalidates the pages with the given cache keys. Any error
	// means the whole batch stays queued and is retried next cycle
	// (ejection is idempotent, so re-ejecting accepted keys is harmless).
	Eject(keys []string) error
}

// TracedEjector is implemented by ejectors that can propagate pipeline
// trace contexts alongside the keys: ctxs maps a key to the context of the
// update that invalidated it (keys without recording traces are absent).
// The in-process CacheEjector records the terminal webcache.eject span
// itself; cluster.StreamEjector writes the contexts onto the eject stream
// so each consuming cache closes the trace. Semantics are otherwise
// identical to Eject.
type TracedEjector interface {
	Ejector
	EjectTraced(keys []string, ctxs map[string]trace.Context) error
}

// BulkEjector is implemented by ejectors that can flush an entire cache —
// the recovery path when log loss makes precise invalidation impossible.
type BulkEjector interface {
	EjectAll() error
}

// CacheEjector invalidates an in-process web cache directly. With a Tracer
// it records the terminal webcache.eject span for each traced key — the
// in-process analogue of the remote cache closing the trace.
type CacheEjector struct {
	Cache  *webcache.Cache
	Tracer *trace.Tracer
}

// Eject implements Ejector.
func (e CacheEjector) Eject(keys []string) error {
	e.Cache.InvalidateMany(keys)
	return nil
}

// EjectTraced implements TracedEjector: the eject is the end of each
// trace's pipeline, so the span is terminal — a trace with one is a
// complete commit-to-eject story.
func (e CacheEjector) EjectTraced(keys []string, ctxs map[string]trace.Context) error {
	start := time.Now()
	e.Cache.InvalidateMany(keys)
	end := time.Now()
	eachDistinctTrace(ctxs, func(ctx trace.Context) {
		e.Tracer.RecordTerminal(ctx, "webcache.eject", start, end)
	})
	return nil
}

// EjectAll implements BulkEjector.
func (e CacheEjector) EjectAll() error {
	e.Cache.Clear()
	return nil
}

// FuncEjector adapts a function.
type FuncEjector func(keys []string) error

// Eject implements Ejector.
func (f FuncEjector) Eject(keys []string) error { return f(keys) }
