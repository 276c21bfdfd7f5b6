package cacheportal

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// benchStalenessSite builds the car site used by BenchmarkCommitToEject with
// the same 100ms cycle interval in both modes; only the trigger differs. In
// interval mode the timer is the sole driver, so commit-to-eject staleness is
// uniform over the interval plus cycle time. In feed mode the interval is
// merely the fallback and the update stream fires the cycle, so staleness
// collapses to the cycle time.
func benchStalenessSite(b *testing.B, feed bool, tracer *trace.Tracer) *Site {
	b.Helper()
	site, err := NewSite(SiteConfig{
		Tracer: tracer,
		Schema: `
			CREATE TABLE Car (maker TEXT, model TEXT, price FLOAT);
			CREATE TABLE Mileage (model TEXT, EPA INT);
			INSERT INTO Car VALUES ('Toyota', 'Corolla', 15000), ('Honda', 'Civic', 16000), ('BMW', 'M3', 70000);
			INSERT INTO Mileage VALUES ('Corolla', 33), ('Civic', 31), ('M3', 19);
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
					var sb strings.Builder
					for _, r := range res.Rows {
						fmt.Fprintf(&sb, "%s\n", r[1])
					}
					return &Page{Body: []byte(sb.String())}, nil
				},
			},
		},
		Interval: 100 * time.Millisecond,
		Feed:     feed,
		// The workload invalidates 100% of the page's instances on every
		// update, which policy discovery rightly flags as cache-unfriendly
		// after a few batches — and an uncached page would make "eviction"
		// instant and the staleness numbers meaningless. Pin it cacheable the
		// way an administrator would (§4.1.3).
		Rules: []Rule{{Servlet: "under", Action: AlwaysCache}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(site.Close)
	return site
}

// BenchmarkCommitToEject measures the freshness half of the paper's
// trade-off end to end: a backend commit against a cached page, then a
// passive wait (nothing calls Cycle) until the page is gone from the web
// cache. ns/op is the wall-clock commit-to-eject window; the reported
// p50/p95-staleness-ms come from the pipeline's own freshness trace. The
// acceptance bar for event-driven mode is p95 strictly below the 100ms cycle
// interval that pull mode is bound by.
func BenchmarkCommitToEject(b *testing.B) {
	for _, mode := range []struct {
		name   string
		feed   bool
		traced bool
	}{
		{"interval", false, false},
		{"feed", true, false},
		// Tracing's worst case: every trace head-sampled, spans on every hop.
		// The acceptance bar is p95 staleness within 5% of the untraced feed
		// run (benchjson computes the ratio as "trace_overhead").
		{"feed-traced", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var tracer *trace.Tracer
			if mode.traced {
				tracer = trace.New(1, trace.DefaultBuffer)
			}
			site := benchStalenessSite(b, mode.feed, tracer)
			url := site.CacheURL + "/under?price=20000"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, _, key := fetch(b, url)
				if key == "" {
					b.Fatal("no cache key")
				}
				b.StartTimer()
				// One update record per iteration, committed inside the timed
				// window: the new row joins an existing Mileage row and passes
				// the page's predicate, so it must evict.
				if err := site.Exec(fmt.Sprintf(
					"INSERT INTO Car VALUES ('Bencher%d', 'Corolla', 17000)", i)); err != nil {
					b.Fatal(err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for {
					if _, present := site.Cache.Peek(key); !present {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("iter %d: page never evicted", i)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			b.StopTimer()
			h := site.Obs.Snapshot().Histograms["invalidator.staleness_seconds"]
			if h.Count > 0 {
				b.ReportMetric(h.Quantile(0.50)*1e3, "p50-staleness-ms")
				b.ReportMetric(h.Quantile(0.95)*1e3, "p95-staleness-ms")
			}
		})
	}
}
