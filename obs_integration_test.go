package cacheportal

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFreshnessTraceRecordsStaleness drives one full update→invalidate round
// trip through a live site and asserts the freshness trace produced a
// commit-to-eject staleness sample: the record was stamped at ingestion, the
// stamp survived delta analysis and eject, and the measured window is
// positive.
func TestFreshnessTraceRecordsStaleness(t *testing.T) {
	site := carSite(t)
	url := site.CacheURL + "/under?price=20000"
	_, _, key := fetch(t, url)

	if err := site.Exec("INSERT INTO Car VALUES ('Toyota', 'Avalon', 18000)"); err != nil {
		t.Fatal(err)
	}
	if !site.WaitForInvalidation(key, 5*time.Second) {
		t.Fatal("page not invalidated")
	}

	snap := site.Obs.Snapshot()
	h, ok := snap.Histograms["invalidator.staleness_seconds"]
	if !ok {
		t.Fatal("staleness histogram missing from snapshot")
	}
	if h.Count < 1 {
		t.Fatalf("no staleness samples recorded: %+v", h)
	}
	if h.Sum <= 0 {
		t.Fatalf("staleness sum not positive: %g", h.Sum)
	}
	perServlet, ok := snap.Histograms["invalidator.staleness_seconds.under"]
	if !ok || perServlet.Count < 1 {
		t.Fatalf("per-servlet staleness missing: ok=%v %+v", ok, perServlet)
	}

	// The pipeline counters must show the trip: records ingested, a page
	// invalidated, cycles run.
	for _, name := range []string{
		"invalidator.cycles_total",
		"invalidator.update_records_total",
		"invalidator.pages_invalidated_total",
		"sniffer.map_runs_total",
	} {
		if snap.Counters[name] < 1 {
			t.Fatalf("%s = %d, want >= 1", name, snap.Counters[name])
		}
	}
	if snap.Gauges["webcache.invalidations_total"] < 1 {
		t.Fatalf("cache invalidation gauge: %d", snap.Gauges["webcache.invalidations_total"])
	}

	// The /debug/metrics document a daemon would serve round-trips with the
	// staleness histogram intact.
	rw := httptest.NewRecorder()
	obs.MetricsHandler(site.Obs).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/metrics", nil))
	var decoded obs.Snapshot
	if err := json.Unmarshal(rw.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/debug/metrics not JSON: %v", err)
	}
	if decoded.Histograms["invalidator.staleness_seconds"].Count < 1 {
		t.Fatal("staleness histogram empty in /debug/metrics")
	}
}

// TestFeedMetricsAndFreshnessTrace is the event-driven twin: with the
// fallback timer effectively off (hour-long interval), the update stream
// alone must carry a commit through to an eject, the freshness trace must
// record the staleness window, and the stream delivery and mapping metrics
// must surface in /debug/metrics.
func TestFeedMetricsAndFreshnessTrace(t *testing.T) {
	site := feedCarSite(t)
	url := site.CacheURL + "/under?price=20000"
	_, _, key := fetch(t, url)
	if key == "" {
		t.Fatal("no cache key")
	}

	if err := site.Exec("INSERT INTO Car VALUES ('Toyota', 'Avalon', 18000)"); err != nil {
		t.Fatal(err)
	}
	// Passive wait: nothing calls Cycle, so the eviction can only come from
	// the event path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, present := site.Cache.Peek(key); !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("event-driven site never evicted the stale page")
		}
		time.Sleep(2 * time.Millisecond)
	}

	snap := site.Obs.Snapshot()
	h, ok := snap.Histograms["invalidator.staleness_seconds"]
	if !ok || h.Count < 1 {
		t.Fatalf("staleness histogram missing or empty under feed mode: ok=%v %+v", ok, h)
	}
	// The event path's whole point: commit-to-eject staleness is bounded by
	// the cycle time, strictly below the cycle interval that floors pull mode
	// (here the hour-long fallback).
	if p95 := h.Quantile(0.95); p95 >= time.Hour.Seconds() {
		t.Fatalf("p95 staleness %.3fs not below the cycle interval", p95)
	}
	if snap.Counters["invalidator.event_cycles_total"] < 1 {
		t.Fatal("no event-driven cycles recorded")
	}

	// The update-log stream delivered the record, and the mapper read the
	// request that cached the page from its log in place.
	if snap.Gauges["feed.delivered_total"] < 1 {
		t.Fatalf("feed.delivered_total = %d, want >= 1", snap.Gauges["feed.delivered_total"])
	}
	if snap.Counters["sniffer.pages_mapped_total"] < 1 {
		t.Fatalf("sniffer.pages_mapped_total = %d, want >= 1", snap.Counters["sniffer.pages_mapped_total"])
	}
	if snap.Gauges["feed.resubscribes_total"] != 0 {
		t.Fatalf("healthy stream resubscribed %d times", snap.Gauges["feed.resubscribes_total"])
	}

	// And the daemon-facing document carries all of it.
	rw := httptest.NewRecorder()
	obs.MetricsHandler(site.Obs).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/metrics", nil))
	var decoded obs.Snapshot
	if err := json.Unmarshal(rw.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/debug/metrics not JSON: %v", err)
	}
	if decoded.Histograms["invalidator.staleness_seconds"].Count < 1 {
		t.Fatal("staleness histogram empty in /debug/metrics")
	}
	if decoded.Gauges["feed.delivered_total"] < 1 {
		t.Fatal("feed gauges missing from /debug/metrics")
	}
}
