package cacheportal

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/appserver"
	"repro/internal/cluster"
	"repro/internal/demoapp"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/invalidator"
	"repro/internal/logexport"
	"repro/internal/obs"
	"repro/internal/sniffer"
	"repro/internal/webcache"
	"repro/internal/wire"
)

// TestChaosPipelineConverges is the chaos integration test capping the fault
// tolerance work: the full Figure-7 topology (DBMS, app server with log
// export, web cache, remote invalidator) with a seeded fault injector on
// every invalidation edge — the log-mirror HTTP transport, the update-log
// puller, and the eject-stream ejector. Faults delay, error, drop, and
// black-hole operations at random; the assertion is the paper's §4.2.4
// guarantee: no stale page survives — every update's page is ejected within
// a bounded number of cycles, and once the faults heal the pipeline is fully
// caught up. Reproducible from the injector seed.
func TestChaosPipelineConverges(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:          7,
		ErrorRate:     0.20,
		DropRate:      0.10,
		BlackholeRate: 0.05,
		DelayRate:     0.20,
		Delay:         2 * time.Millisecond,
		BlackholeHold: 50 * time.Millisecond,
	})
	inj.Disable() // boot cleanly; chaos starts once the site is warm
	reg := obs.NewRegistry()
	inj.Instrument(reg, "")

	// Machine 1: the DBMS.
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`
		CREATE TABLE Car (maker TEXT, model TEXT, price FLOAT);
		CREATE TABLE Mileage (model TEXT, EPA INT);
		INSERT INTO Car VALUES ('Toyota', 'Corolla', 15000), ('BMW', 'M3', 70000);
		INSERT INTO Mileage VALUES ('Corolla', 33), ('M3', 19), ('Avalon', 26);
	`); err != nil {
		t.Fatal(err)
	}
	dbSrv := wire.NewServer(db)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbSrv.Close()

	// Machine 2: the application server with HTTP log export.
	qlog := driver.NewQueryLog(0)
	pool, err := driver.NewPool(driver.NewLoggingDriver(driver.NetDriver{}, qlog), dbAddr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sources := driver.NewRegistry()
	sources.Bind("db", pool)
	rlog := appserver.NewRequestLog(0)
	app := appserver.NewServer(sources, rlog)
	app.MustRegister(appserver.Meta{Name: "over", Keys: appserver.KeySpec{Get: []string{"min"}}},
		appserver.ServletFunc(func(ctx *appserver.Context) (*appserver.Page, error) {
			lease, err := ctx.Lease("db")
			if err != nil {
				return nil, err
			}
			defer lease.Release()
			res, err := lease.Query(
				"SELECT Car.model, Mileage.EPA FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price > " + ctx.Param("min"))
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			for _, r := range res.Rows {
				fmt.Fprintf(&b, "%s %s\n", r[0], r[1])
			}
			return &appserver.Page{Body: []byte(b.String())}, nil
		}))
	exporter := &logexport.Exporter{Requests: rlog, Queries: qlog}
	appHTTP := httptest.NewServer(exporter.Wrap(app))
	defer appHTTP.Close()

	// Machine 4's eject stream, which machine 3 tails.
	ejects := cluster.NewEjectLog(0)
	streamHTTP := httptest.NewServer(ejects.Handler())
	defer streamHTTP.Close()

	// Machine 3: the web cache.
	cache := webcache.NewCache(0)
	cacheHTTP := httptest.NewServer(webcache.NewProxy(appHTTP.URL, cache))
	defer cacheHTTP.Close()
	tail := startTail(streamHTTP.URL, cache)
	defer tail.halt()

	// Machine 4: the invalidator, every edge wrapped with the injector —
	// faulty HTTP transport under the log mirror, faulty puller over the
	// wire client, faulty ejector over the stream ejector.
	mirror := logexport.NewMirror(appHTTP.URL)
	mirror.Client = &http.Client{
		Transport: faults.WrapTransport(nil, inj),
		Timeout:   2 * time.Second,
	}
	qiMap := sniffer.NewQIURLMap()
	mapper := sniffer.NewMapper(mirror.Requests, mirror.Queries, qiMap)
	logClient, err := wire.Dial(dbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer logClient.Close()
	pollConn, err := driver.NetDriver{}.Connect(dbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pollConn.Close()
	inv := invalidator.New(invalidator.Config{
		Map:    qiMap,
		Mapper: mapper,
		Puller: faults.Puller{Next: invalidator.WireLogPuller{Client: logClient}, Inj: inj},
		Poller: pollConn,
		Ejector: faults.Ejector{
			Next: cluster.StreamEjector{Log: ejects},
			Inj:  inj,
		},
		Obs: reg,
	})

	// cycle is fault-tolerant by construction: a failed sync or cycle is
	// exactly what the chaos is for, so errors are tolerated, not fatal.
	// Like invalidatord, a cycle never runs against a failed log fetch:
	// consuming update records while blind to the requests that cached the
	// affected pages would be unsound, faults or no faults.
	cycle := func() {
		if _, err := mirror.Sync(); err != nil {
			return
		}
		inv.Cycle()
		tail.waitCaughtUp(t, ejects)
	}
	cycle() // swallow seed-data log records

	get := func() (key, hit string) {
		resp, err := http.Get(cacheHTTP.URL + "/over?min=20000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("X-Cacheportal-Key"), resp.Header.Get(webcache.HitHeader)
	}

	key, _ := get()
	if key == "" {
		t.Fatal("no cache key on first response")
	}
	cycle() // ingest the mapping cleanly

	inj.Enable()
	const rounds = 6
	price := 25000
	for r := 0; r < rounds; r++ {
		// (Re-)warm the page; under chaos the mapping may be re-ingested on
		// a later cycle, which is fine.
		if k, _ := get(); k != "" {
			key = k
		}
		// A relevant update: the new Avalon passes the price predicate and
		// joins with Mileage, so the cached page is stale from here on.
		price++
		if _, err := db.ExecSQL(fmt.Sprintf("INSERT INTO Car VALUES ('Toyota', 'Avalon', %d)", price)); err != nil {
			t.Fatal(err)
		}
		// §4.2.4 under faults: the eject must land within a bounded number
		// of cycles — delayed by retries and backoff, never lost.
		gone := false
		for c := 0; c < 400; c++ {
			cycle()
			if _, cached := cache.Peek(key); !cached {
				gone = true
				break
			}
		}
		if !gone {
			t.Fatalf("round %d: stale page %s survived 400 chaos cycles (permanent staleness)", r, key)
		}
	}

	// Heal and verify the pipeline is clean: a final update round converges
	// within a handful of cycles.
	inj.Heal()
	if k, _ := get(); k != "" {
		key = k
	}
	price++
	if _, err := db.ExecSQL(fmt.Sprintf("INSERT INTO Car VALUES ('Toyota', 'Avalon', %d)", price)); err != nil {
		t.Fatal(err)
	}
	gone := false
	for c := 0; c < 20; c++ {
		cycle()
		if _, cached := cache.Peek(key); !cached {
			gone = true
			break
		}
	}
	if !gone {
		t.Fatal("healed pipeline did not converge")
	}

	// The chaos must actually have happened for this test to mean anything.
	snap := reg.Snapshot()
	if snap.Counters["faults.injected_total"] == 0 {
		t.Fatal("no faults were injected")
	}
	t.Logf("chaos run: %d faults (%d errors, %d drops, %d blackholes, %d delays), %d cycles, %d cycle errors, %d eject errors, %d breaker trips",
		snap.Counters["faults.injected_total"], snap.Counters["faults.errors_total"],
		snap.Counters["faults.drops_total"], snap.Counters["faults.blackholes_total"],
		snap.Counters["faults.delays_total"], snap.Counters["invalidator.cycles_total"],
		snap.Counters["invalidator.cycle_errors_total"], snap.Counters["invalidator.eject_errors_total"],
		snap.Counters["invalidator.breaker_trips_total"])
}

// TestSiteChaos exercises the packaged chaos wiring (SiteConfig.Chaos): the
// single-process Configuration III site with a fault injector on its
// invalidation path still keeps every page fresh.
func TestSiteChaos(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:      3,
		ErrorRate: 0.25,
		DropRate:  0.10,
		DelayRate: 0.20,
		Delay:     2 * time.Millisecond,
	})
	inj.Disable()
	var defs []ServletDef
	for _, d := range demoapp.Servlets("db") {
		defs = append(defs, ServletDef{Meta: d.Meta, Handler: d.Handler})
	}
	site, err := NewSite(SiteConfig{
		Schema:   demoapp.DefaultSchemaSQL(),
		Servlets: defs,
		Interval: 20 * time.Millisecond,
		Chaos:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Cacheportal-Key")
	}

	inj.Enable()
	nextID := 70_000_000
	for r := 0; r < 3; r++ {
		cat := r % demoapp.JoinValues
		key := get(fmt.Sprintf("%s/light?cat=%d", site.CacheURL, cat))
		nextID++
		if err := site.Exec(fmt.Sprintf("INSERT INTO small VALUES (%d, %d, 'x')", nextID, cat)); err != nil {
			t.Fatal(err)
		}
		if !site.WaitForInvalidation(key, 30*time.Second) {
			t.Fatalf("round %d: page %s never invalidated under chaos", r, key)
		}
	}
	inj.Heal()
	if got := site.Obs.Snapshot().Counters["faults.injected_total"]; got == 0 {
		t.Fatal("no faults were injected")
	}
}

// TestChaosFeedResumesFromCursor caps the feed work's fault story: the
// mirror's long-poll pump (Mirror.Run) under a chaotic transport — requests
// erroring, dropping mid-stream, and delayed at random — must resume from its
// cursor across every failure: once healed, both mirrored logs hold exactly
// the source entries, in order, with no re-delivery and no skips.
func TestChaosFeedResumesFromCursor(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:      11,
		ErrorRate: 0.30,
		DropRate:  0.20,
		DelayRate: 0.20,
		Delay:     time.Millisecond,
	})
	inj.Disable()
	reg := obs.NewRegistry()
	inj.Instrument(reg, "")

	rlog := appserver.NewRequestLog(0)
	qlog := driver.NewQueryLog(0)
	exporter := &logexport.Exporter{Requests: rlog, Queries: qlog, MaxWait: time.Second}
	ts := httptest.NewServer(exporter.Handler())
	defer ts.Close()

	mirror := logexport.NewMirror(ts.URL)
	mirror.Client = &http.Client{
		Transport: faults.WrapTransport(nil, inj),
		Timeout:   time.Second,
	}
	mirror.LongPoll = 100 * time.Millisecond
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); mirror.Run(stop) }()

	// Chaos on while the source logs grow: the pump keeps hitting injected
	// failures mid-stream and must carry its cursors across them.
	inj.Enable()
	base := time.Now()
	const n = 40
	for i := 0; i < n; i++ {
		qlog.Append(driver.QueryLogEntry{SQL: fmt.Sprintf("q%d", i), Receive: base, Deliver: base})
		rlog.Append(appserver.RequestLogEntry{Servlet: "s", CacheKey: fmt.Sprintf("k%d", i),
			Cached: true, Receive: base, Deliver: base})
		time.Sleep(2 * time.Millisecond)
	}
	inj.Heal()

	deadline := time.Now().Add(30 * time.Second)
	for mirror.Queries.Len() < n || mirror.Requests.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("healed pump stuck: %d/%d queries, %d/%d requests mirrored",
				mirror.Queries.Len(), n, mirror.Requests.Len(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	qs, _ := mirror.Queries.Since(1)
	if len(qs) != n {
		t.Fatalf("query log re-delivered: %d entries, want %d", len(qs), n)
	}
	for i, q := range qs {
		if q.SQL != fmt.Sprintf("q%d", i) {
			t.Fatalf("query %d: got %q (duplicate or skip across resume)", i, q.SQL)
		}
	}
	reqs, _ := mirror.Requests.Since(1)
	if len(reqs) != n {
		t.Fatalf("request log re-delivered: %d entries, want %d", len(reqs), n)
	}
	for i, r := range reqs {
		if r.CacheKey != fmt.Sprintf("k%d", i) {
			t.Fatalf("request %d: got %q (duplicate or skip across resume)", i, r.CacheKey)
		}
	}
	if reg.Snapshot().Counters["faults.injected_total"] == 0 {
		t.Fatal("no faults were injected")
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pump did not stop")
	}
}
