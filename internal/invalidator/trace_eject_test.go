package invalidator

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/webcache"
)

// TestStreamEjectorPropagatesTraceContexts: EjectTraced must write each
// batch's distinct trace contexts onto the eject stream, and a cache
// consuming the stream over HTTP on the far side must close those traces —
// terminal webcache.eject spans appear in the *remote* tracer under the
// originating trace IDs, parented on the invalidator-side spans the record
// named.
func TestStreamEjectorPropagatesTraceContexts(t *testing.T) {
	remote := trace.New(1, 256)
	// Like cmd/webcached -trace: stream records name traces the sender
	// already chose to record, so the remote head decision must not apply.
	remote.SetForceAll(true)

	stream := cluster.NewEjectLog(0)
	srv := httptest.NewServer(stream.Handler())
	defer srv.Close()
	cache := webcache.NewCache(0)
	cache.Put(&webcache.Entry{Key: "k1"})
	cache.Put(&webcache.Entry{Key: "k2"})
	consumer := &cluster.Consumer{
		URL:   srv.URL,
		Wait:  50 * time.Millisecond,
		Apply: webcache.StreamApplier(cache, remote),
		Clear: cache.Clear,
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { consumer.Run(stop); close(done) }()
	defer func() { close(stop); <-done }()

	var ej TracedEjector = cluster.StreamEjector{Log: stream}
	ctxs := map[string]trace.Context{
		"k1": {Trace: 41, Span: 7},
		"k2": {Trace: 43, Span: 9},
	}
	if err := ej.EjectTraced([]string{"k1", "k2"}, ctxs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for consumer.Cursor() < stream.NextSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("consumer stuck at cursor %d, head %d", consumer.Cursor(), stream.NextSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cache.Len() != 0 {
		t.Fatalf("%d keys still cached", cache.Len())
	}

	for ctxTrace, parent := range map[int64]int64{41: 7, 43: 9} {
		spans := remote.TraceSpans(ctxTrace)
		if len(spans) != 1 {
			t.Fatalf("trace %d: %d spans on the cache side, want 1", ctxTrace, len(spans))
		}
		s := spans[0]
		if s.Name != "webcache.eject" || !s.Terminal {
			t.Fatalf("trace %d: span %q terminal=%v, want terminal webcache.eject", ctxTrace, s.Name, s.Terminal)
		}
		if s.Parent != parent {
			t.Fatalf("trace %d: eject span parent %d, want %d (the record's span)", ctxTrace, s.Parent, parent)
		}
		if got := attr(s, "removed"); got != "2" {
			t.Fatalf("trace %d: removed=%q, want 2", ctxTrace, got)
		}
	}
}

func attr(s trace.Span, k string) string {
	for _, a := range s.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}
