package cacheportal

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSoakFeed is the event-driven endurance run: a full site in feed mode
// (hour-long fallback interval, so every eviction is stream-driven) under a
// sustained mixed read/write workload, followed by a goroutine-leak check.
// Gated behind SOAK_FEED=1 because it runs for SOAK_SECONDS (default 30)
// wall-clock seconds; `make soak-feed` runs it under the race detector.
func TestSoakFeed(t *testing.T) {
	if os.Getenv("SOAK_FEED") == "" {
		t.Skip("set SOAK_FEED=1 to run the event-driven soak (make soak-feed)")
	}
	dur := 30 * time.Second
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("bad SOAK_SECONDS=%q", v)
		}
		dur = time.Duration(secs) * time.Second
	}

	baseline := runtime.NumGoroutine()
	site := feedCarSite(t)
	url := site.CacheURL + "/under?price=20000"

	// Mixed workload until the deadline: fetch (fills the cache and feeds the
	// mapper), then a relevant write (must evict via the stream), then verify
	// the page eventually reflects the write. Every round uses a fresh model
	// name so staleness is detectable by content.
	deadline := time.Now().Add(dur)
	rounds, evictions := 0, 0
	for time.Now().Before(deadline) {
		model := fmt.Sprintf("Soak%d", rounds)
		if body, _, key := fetch(t, url); key != "" && !strings.Contains(body, model) {
			if err := site.Exec(fmt.Sprintf(
				"INSERT INTO Mileage VALUES ('%s', 30)", model)); err != nil {
				t.Fatal(err)
			}
			if err := site.Exec(fmt.Sprintf(
				"INSERT INTO Car VALUES ('Soaker', '%s', 17000)", model)); err != nil {
				t.Fatal(err)
			}
			evictDeadline := time.Now().Add(5 * time.Second)
			for {
				if _, present := site.Cache.Peek(key); !present {
					evictions++
					break
				}
				if time.Now().After(evictDeadline) {
					t.Fatalf("round %d: stream never evicted the stale page", rounds)
				}
				time.Sleep(time.Millisecond)
			}
			if body, _, _ := fetch(t, url); !strings.Contains(body, model) {
				t.Fatalf("round %d: refetched page stale: %q", rounds, body)
			}
		}
		rounds++
	}
	if evictions == 0 {
		t.Fatal("soak made no progress: no stream-driven evictions")
	}

	snap := site.Obs.Snapshot()
	if snap.Counters["invalidator.event_cycles_total"] < int64(evictions) {
		t.Fatalf("event cycles %d < evictions %d", snap.Counters["invalidator.event_cycles_total"], evictions)
	}
	if snap.Gauges["feed.resubscribes_total"] != 0 {
		t.Fatalf("healthy stream resubscribed %d times", snap.Gauges["feed.resubscribes_total"])
	}
	// Real ejects of mapped pages, not instant misses on an uncached page:
	// the freshness trace only records staleness for the former.
	h := snap.Histograms["invalidator.staleness_seconds"]
	if h.Count < int64(evictions) {
		t.Fatalf("staleness samples %d < evictions %d (pages not actually cached?)", h.Count, evictions)
	}
	p50, p95 := h.Quantile(0.5), h.Quantile(0.95)
	t.Logf("soak: %s, %d rounds, %d stream evictions, %d event cycles, staleness p50=%.2fms p95=%.2fms",
		dur, rounds, evictions, snap.Counters["invalidator.event_cycles_total"], p50*1e3, p95*1e3)
	// A cycle starts the moment a commit lands: the median commit-to-eject
	// over the soak must stay under 10 ms (the coalescing window the loop no
	// longer has), race detector and all.
	if p50 >= 0.010 {
		t.Fatalf("median commit-to-eject staleness %.2fms over the soak, want < 10ms", p50*1e3)
	}

	// Leak check: tear the site down and the goroutine count must settle back
	// to the pre-site baseline (pumps, streams, long-poll parks, run loops
	// all exit). Snapshot the stacks on failure so the leak is attributable.
	site.Close()
	settleDeadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(settleDeadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("goroutine leak after Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), sb.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
