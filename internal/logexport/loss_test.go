package logexport

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/sniffer"
)

// TestMirrorPassesOnUpstreamLoss: entries the mirror never pulled are lost
// for good when the exporter's log trims past the mirror's cursor, or when
// a restarted application server begins a new log behind the same URL. The
// mapper reading the mirror must see the loss, so the invalidator flushes
// the pages it can no longer map; after a restart the mirror goes on with
// the new log from its first entry.
func TestMirrorPassesOnUpstreamLoss(t *testing.T) {
	serve := func(e *Exporter) (*atomic.Pointer[Exporter], *httptest.Server) {
		var cur atomic.Pointer[Exporter]
		cur.Store(e)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cur.Load().Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return &cur, ts
	}
	appendN := func(l *appserver.RequestLog, n int) {
		for i := 0; i < n; i++ {
			l.Append(appserver.RequestLogEntry{Servlet: "s", CacheKey: "k", Cached: true})
		}
	}

	t.Run("trimmed", func(t *testing.T) {
		e := &Exporter{Requests: appserver.NewRequestLog(2), Queries: driver.NewQueryLog(0)}
		appendN(e.Requests, 5)
		_, ts := serve(e)
		m := NewMirror(ts.URL)
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		mapper := sniffer.NewMapper(m.Requests, m.Queries, sniffer.NewQIURLMap())
		mapper.Run()
		if !mapper.TakeTruncated() {
			t.Fatal("mapper did not see the entries the exporter trimmed")
		}
	})

	t.Run("restarted", func(t *testing.T) {
		e := &Exporter{Requests: appserver.NewRequestLog(0), Queries: driver.NewQueryLog(0)}
		appendN(e.Requests, 5)
		cur, ts := serve(e)
		m := NewMirror(ts.URL)
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		mapper := sniffer.NewMapper(m.Requests, m.Queries, sniffer.NewQIURLMap())
		mapper.Run()
		if mapper.TakeTruncated() {
			t.Fatal("truncation before any loss")
		}

		fresh := &Exporter{Requests: appserver.NewRequestLog(0), Queries: driver.NewQueryLog(0)}
		appendN(fresh.Requests, 1)
		cur.Store(fresh)
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		mapper.Run()
		if !mapper.TakeTruncated() {
			t.Fatal("mapper did not see the restarted application server's lost entries")
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		n := mapper.Run()
		if mapper.TakeTruncated() {
			t.Fatal("the restart reported twice")
		}
		if n != 1 {
			t.Fatalf("after the restart the mapper mapped %d entries, want the new log's 1", n)
		}
	})
}
