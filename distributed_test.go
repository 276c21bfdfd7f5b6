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
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/invalidator"
	"repro/internal/logexport"
	"repro/internal/sniffer"
	"repro/internal/webcache"
	"repro/internal/wire"
)

// TestDistributedFigure7Deployment exercises the paper's actual deployment
// topology end-to-end: four separate "machines" — DBMS (wire protocol),
// application server (with HTTP log export), web cache (reverse proxy),
// and the invalidator — communicating only over the network: logs fetched
// over HTTP, the update log pulled over the wire protocol, polling queries
// over the wire protocol, invalidations delivered over the eject stream the
// invalidator serves and the web cache tails.
func TestDistributedFigure7Deployment(t *testing.T) {
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

	// Machine 2: the application server, logs exported over HTTP.
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

	// Machine 4: invalidatord — mirror + mapper + invalidator, all remote.
	mirror := logexport.NewMirror(appHTTP.URL)
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
		Map:     qiMap,
		Mapper:  mapper,
		Puller:  invalidator.WireLogPuller{Client: logClient},
		Poller:  pollConn,
		Ejector: cluster.StreamEjector{Log: ejects},
	})
	cycle := func() invalidator.Report {
		t.Helper()
		if _, err := mirror.Sync(); err != nil {
			t.Fatal(err)
		}
		rep, err := inv.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		tail.waitCaughtUp(t, ejects)
		return rep
	}
	cycle() // swallow seed-data log records

	get := func() (string, string) {
		resp, err := http.Get(cacheHTTP.URL + "/over?min=20000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get(webcache.HitHeader)
	}

	b1, h1 := get()
	if h1 != "miss" || !strings.Contains(b1, "M3") {
		t.Fatalf("first: %s %q", h1, b1)
	}
	if _, h := get(); h != "hit" {
		t.Fatalf("second: %s", h)
	}
	cycle() // ingest the mapping

	// Irrelevant insert: fails the price predicate, page stays cached.
	if _, err := db.ExecSQL("INSERT INTO Car VALUES ('Kia', 'Rio', 12000)"); err != nil {
		t.Fatal(err)
	}
	rep := cycle()
	if rep.Invalidated != 0 {
		t.Fatalf("irrelevant insert invalidated: %+v", rep)
	}
	if _, h := get(); h != "hit" {
		t.Fatalf("after irrelevant insert: %s", h)
	}

	// Relevant insert: poll over the wire finds Avalon's mileage row, the
	// eject reaches the cache machine over the stream.
	if _, err := db.ExecSQL("INSERT INTO Car VALUES ('Toyota', 'Avalon', 25000)"); err != nil {
		t.Fatal(err)
	}
	rep = cycle()
	if rep.Invalidated != 1 || rep.Polls != 1 {
		t.Fatalf("relevant insert: %+v", rep)
	}
	b3, h3 := get()
	if h3 != "miss" || !strings.Contains(b3, "Avalon") {
		t.Fatalf("after invalidation: %s %q", h3, b3)
	}
}

// TestDistributedMultipleCaches: several caches (front-end + edge caches
// in the paper's Figure 1) each tail the one eject stream. Every eject
// reaches every cache; a cache whose consumer stops blocks nobody else and
// catches up on everything it missed when it resumes.
func TestDistributedMultipleCaches(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cacheportal-Key", "k1")
		w.Header().Set("Cache-Control", `private, owner="cacheportal"`)
		fmt.Fprint(w, "content")
	}))
	defer origin.Close()
	ejects := cluster.NewEjectLog(0)
	streamHTTP := httptest.NewServer(ejects.Handler())
	defer streamHTTP.Close()

	var caches []*webcache.Cache
	var urls []string
	var tails []*streamTail
	for i := 0; i < 3; i++ {
		c := webcache.NewCache(0)
		caches = append(caches, c)
		srv := httptest.NewServer(webcache.NewProxy(origin.URL, c))
		defer srv.Close()
		urls = append(urls, srv.URL)
		tail := startTail(streamHTTP.URL, c)
		defer tail.halt()
		tails = append(tails, tail)
	}
	warm := func() {
		t.Helper()
		for i, u := range urls {
			resp, err := http.Get(u + "/page")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if caches[i].Len() != 1 {
				t.Fatalf("cache %d not warmed", i)
			}
		}
	}
	ej := cluster.StreamEjector{Log: ejects}

	warm()
	if err := ej.Eject([]string{"k1"}); err != nil {
		t.Fatal(err)
	}
	for i, tail := range tails {
		tail.waitCaughtUp(t, ejects)
		if caches[i].Len() != 0 {
			t.Fatalf("cache %d not ejected", i)
		}
	}

	// Cache 0 drops off the stream: the others still get the next eject.
	tails[0].halt()
	warm()
	if err := ej.Eject([]string{"k1"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tails); i++ {
		tails[i].waitCaughtUp(t, ejects)
		if caches[i].Len() != 0 {
			t.Fatalf("cache %d missed the eject while cache 0 was down", i)
		}
	}
	if caches[0].Len() != 1 {
		t.Fatal("stopped cache 0 applied an eject")
	}
	// On resume it catches up from its cursor.
	tails[0].resume()
	tails[0].waitCaughtUp(t, ejects)
	if caches[0].Len() != 0 {
		t.Fatal("resumed cache 0 did not catch up on the missed eject")
	}
	if n := tails[0].c.Cleared(); n != 0 {
		t.Fatalf("resumed cache 0 cleared %d times; a cursor resume needs none", n)
	}
}

// streamTail tails an eject stream into a cache over HTTP, as
// cmd/webcached -eject-stream does; halt and resume drop it off the stream
// and bring it back at its cursor.
type streamTail struct {
	c          *cluster.Consumer
	stop, done chan struct{}
}

func startTail(url string, cache *webcache.Cache) *streamTail {
	s := &streamTail{c: &cluster.Consumer{
		URL:   url,
		Wait:  50 * time.Millisecond,
		Apply: webcache.StreamApplier(cache, nil),
		Clear: cache.Clear,
	}}
	s.resume()
	return s
}

func (s *streamTail) resume() {
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func(stop, done chan struct{}) {
		s.c.Run(stop)
		close(done)
	}(s.stop, s.done)
}

func (s *streamTail) halt() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// waitCaughtUp blocks until the consumer has applied every record in log.
func (s *streamTail) waitCaughtUp(t *testing.T, log *cluster.EjectLog) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.c.Cursor() < log.NextSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("eject consumer stuck at cursor %d, head %d", s.c.Cursor(), log.NextSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSiteInterval confirms the Portal honours the configured cadence and
// MinSensitivity feedback.
func TestSiteInterval(t *testing.T) {
	site := carSite(t)
	if site.Portal.Interval() != 50*time.Millisecond {
		t.Fatalf("interval: %v", site.Portal.Interval())
	}
	if site.App.MinSensitivity != 50*time.Millisecond {
		t.Fatalf("min sensitivity: %v", site.App.MinSensitivity)
	}
}
