package invalidator

import (
	"testing"
	"time"

	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/sniffer"
)

// hookPuller runs before, once, ahead of the pull it delegates to.
type hookPuller struct {
	next   LogPuller
	before func()
}

func (p *hookPuller) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	if f := p.before; f != nil {
		p.before = nil
		f()
	}
	return p.next.PullSince(lsn)
}

// TestCycleMapsRequestsLoggedBeforeAPulledCommit: a page is fetched (its
// request and query logged) and then a row it shows is inserted, both
// while a cycle is under way. Whichever cycle pulls the insert must
// already know the page; a cycle that mapped requests before pulling the
// update log consumed the insert blind, and nothing ever ejected the page.
func TestCycleMapsRequestsLoggedBeforeAPulledCommit(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript(carSchema); err != nil {
		t.Fatal(err)
	}
	reqs, queries := appserver.NewRequestLog(0), driver.NewQueryLog(0)
	m := sniffer.NewQIURLMap()
	puller := &hookPuller{next: EngineLogPuller{Log: db.Log()}}
	pollConn, err := driver.DirectDriver{DB: db}.Connect("")
	if err != nil {
		t.Fatal(err)
	}
	var ejected []string
	inv := New(Config{
		Map:    m,
		Mapper: sniffer.NewMapper(reqs, queries, m),
		Puller: puller,
		Poller: pollConn,
		Ejector: FuncEjector(func(keys []string) error {
			ejected = append(ejected, keys...)
			return nil
		}),
	})
	if _, err := inv.Cycle(); err != nil { // swallow the schema's records
		t.Fatal(err)
	}
	puller.before = func() {
		receive := time.Now()
		queries.Append(driver.QueryLogEntry{SQL: "SELECT maker, model FROM Car WHERE price < 20000", Receive: receive, Deliver: time.Now()})
		reqs.Append(appserver.RequestLogEntry{Servlet: "under", CacheKey: "url1", Receive: receive, Deliver: time.Now(), Cached: true})
		if _, err := db.ExecSQL("INSERT INTO Car VALUES ('Toyota', 'Avalon', 10000)"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := inv.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	if len(ejected) != 1 || ejected[0] != "url1" {
		t.Fatalf("ejected %q, want the page showing the inserted row", ejected)
	}
}
