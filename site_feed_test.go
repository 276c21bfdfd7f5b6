package cacheportal

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// feedCarSite is carSite with event-driven invalidation and an hour-long
// fallback interval: any freshness the tests observe comes from the update
// stream, not the timer.
func feedCarSite(t testing.TB) *Site {
	t.Helper()
	return feedCarSiteEvery(t, time.Hour)
}

// feedCarSiteEvery is feedCarSite with the fallback interval chosen.
func feedCarSiteEvery(t testing.TB, interval time.Duration) *Site {
	t.Helper()
	site, err := NewSite(SiteConfig{
		Schema: `
			CREATE TABLE Car (maker TEXT, model TEXT, price FLOAT);
			CREATE TABLE Mileage (model TEXT, EPA INT);
			INSERT INTO Car VALUES ('Toyota', 'Corolla', 15000), ('Honda', 'Civic', 16000), ('BMW', 'M3', 70000);
			INSERT INTO Mileage VALUES ('Corolla', 33), ('Civic', 31), ('M3', 19), ('Avalon', 26);
		`,
		Servlets: []ServletDef{
			{
				Meta: Meta{Name: "under", Keys: KeySpec{Get: []string{"price"}}},
				Handler: func(ctx *Context) (*Page, error) {
					lease, err := ctx.Lease("db")
					if err != nil {
						return nil, err
					}
					defer lease.Release()
					res, err := lease.Query(
						"SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage " +
							"WHERE Car.model = Mileage.model AND Car.price < " + ctx.Param("price"))
					if err != nil {
						return nil, err
					}
					var b strings.Builder
					for _, r := range res.Rows {
						fmt.Fprintf(&b, "%s\n", r[1])
					}
					return &Page{Body: []byte(b.String())}, nil
				},
			},
		},
		Interval: interval,
		Feed:     true,
		// The soak's workload invalidates the page on every round, which
		// policy discovery flags as cache-unfriendly after a few batches;
		// an uncached page would turn the stream-eviction assertions into
		// no-ops. Pin it cacheable the way an administrator would (§4.1.3).
		Rules: []Rule{{Servlet: "under", Action: AlwaysCache}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// TestSiteFeedEventDriven is the end-to-end event path: with the fallback
// timer effectively disabled, a backend update must still evict the cached
// page — the update-log stream wakes the portal, whose cycle maps the page
// from the request/query feeds and invalidates it. Nothing calls Cycle.
func TestSiteFeedEventDriven(t *testing.T) {
	site := feedCarSite(t)
	url := site.CacheURL + "/under?price=20000"

	body, _, key := fetch(t, url)
	if key == "" {
		t.Fatal("no cache key")
	}
	if !strings.Contains(body, "Corolla") || strings.Contains(body, "Avalon") {
		t.Fatalf("seed page: %q", body)
	}
	if _, hit, _ := fetch(t, url); hit != "hit" {
		t.Fatalf("second fetch: %s", hit)
	}

	// A relevant update: Avalon joins with Mileage and passes the predicate.
	if err := site.Exec("INSERT INTO Car VALUES ('Toyota', 'Avalon', 18000)"); err != nil {
		t.Fatal(err)
	}
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
	if body, _, _ = fetch(t, url); !strings.Contains(body, "Avalon") {
		t.Fatalf("refetched page stale: %q", body)
	}

	// Irrelevant update: the page must stay cached (no spurious ejects from
	// the event path).
	_, _, key = fetch(t, url)
	if err := site.Exec("INSERT INTO Car VALUES ('Audi', 'A8', 90000)"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // give an event cycle time to run
	if _, present := site.Cache.Peek(key); !present {
		t.Fatal("irrelevant update evicted the page")
	}

	// The event machinery must actually have fired.
	snap := site.Obs.Snapshot()
	if snap.Counters["invalidator.event_cycles_total"] == 0 {
		t.Fatal("no event-driven cycles recorded")
	}
}

// TestSiteFeedPassiveEjectLatency holds the self-clocked loop to its promise
// at site level: nothing calls Cycle, the fallback interval is a second, and
// the median wait from a commit returning to the stale page leaving the cache
// must still come in under 10 ms — the coalescing window the loop used to sit
// in before looking at an update. The real figure is well under a millisecond;
// the bar is loose enough for -race on a shared runner.
func TestSiteFeedPassiveEjectLatency(t *testing.T) {
	site := feedCarSiteEvery(t, time.Second)
	url := site.CacheURL + "/under?price=20000"
	const rounds = 50
	waits := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		_, _, key := fetch(t, url)
		if _, present := site.Cache.Peek(key); !present {
			t.Fatalf("round %d: page was not cached", i)
		}
		if err := site.Exec(fmt.Sprintf("INSERT INTO Car VALUES ('Toyota', 'Avalon', %d)", 10000+i)); err != nil {
			t.Fatal(err)
		}
		committed := time.Now()
		for {
			if _, present := site.Cache.Peek(key); !present {
				break
			}
			if time.Since(committed) > 10*time.Second {
				t.Fatalf("round %d: stale page never evicted", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
		waits = append(waits, time.Since(committed))
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	p50 := waits[rounds/2]
	t.Logf("passive commit-to-eject: p50=%v max=%v", p50, waits[rounds-1])
	if p50 >= 10*time.Millisecond {
		t.Fatalf("median passive commit-to-eject %v, want < 10ms", p50)
	}
}
