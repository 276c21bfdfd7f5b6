package sniffer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/obs"
)

// scanMapper is the mapper's attribution as it was before the lease index:
// every request scans every buffered query, and pruning rewrites the whole
// buffer once its head has expired. It polls the logs, reads nothing else of
// Mapper, and is the oracle of TestMapperIndexEquivalence.
type scanMapper struct {
	Requests      *appserver.RequestLog
	Queries       *driver.QueryLog
	Map           *QIURLMap
	Mode          MapperMode
	Retention     time.Duration
	OnlyCacheable bool

	lastReq   int64
	lastQuery int64
	buffer    []driver.QueryLogEntry
}

func (mp *scanMapper) run() (mapped, attributed int) {
	reqs, _ := mp.Requests.Since(mp.lastReq)
	if len(reqs) > 0 {
		mp.lastReq = reqs[len(reqs)-1].ID + 1
	}
	qs, _ := mp.Queries.Since(mp.lastQuery)
	if len(qs) > 0 {
		mp.lastQuery = qs[len(qs)-1].ID + 1
	}
	mp.buffer = append(mp.buffer, qs...)

	for _, req := range reqs {
		if mp.OnlyCacheable && !req.Cached {
			continue
		}
		var queries []QueryInstance
		for _, q := range mp.buffer {
			if !mp.attributable(req, q) {
				continue
			}
			queries = append(queries, QueryInstance{
				SQL:     q.SQL,
				LogID:   q.ID,
				Receive: q.Receive,
				Deliver: q.Deliver,
			})
		}
		mp.Map.Record(req.CacheKey, req.Servlet, req.ID, queries)
		mapped++
		attributed += len(queries)
	}

	// Drop buffered queries that no future request can claim.
	retention := mp.Retention
	if retention <= 0 {
		retention = 30 * time.Second
	}
	cutoff := time.Now().Add(-retention)
	if len(mp.buffer) == 0 || mp.buffer[0].Deliver.After(cutoff) {
		return mapped, attributed
	}
	kept := mp.buffer[:0]
	for _, q := range mp.buffer {
		if q.Deliver.After(cutoff) {
			kept = append(kept, q)
		}
	}
	mp.buffer = kept
	return mapped, attributed
}

func (mp *scanMapper) attributable(req appserver.RequestLogEntry, q driver.QueryLogEntry) bool {
	if q.Err != "" {
		return false
	}
	if q.Receive.Before(req.Receive) || q.Deliver.After(req.Deliver) {
		return false
	}
	if mp.Mode == LeaseAffine && q.LeaseID != 0 && len(req.LeaseIDs) > 0 {
		for _, id := range req.LeaseIDs {
			if id == q.LeaseID {
				return true
			}
		}
		return false
	}
	return true
}

// mapperWorld is a random request log and query log on a whole-second grid
// over the last two hours, each in delivery order, as the request logger and
// the driver append them. Requests overlap, use zero to two leases (a lease
// may be listed twice), and are sometimes not cacheable. Their queries come
// from their own leases, from no lease, from another request's lease or from
// a lease no request holds; most lie inside their request's interval, some
// outside, and some failed. Orphan queries belong to no request.
type mapperWorld struct {
	start  time.Time
	events []worldEvent // in delivery order; a query before a request delivered the same second
}

type worldEvent struct {
	sec int // seconds after start
	req *appserver.RequestLogEntry
	q   *driver.QueryLogEntry
}

const worldSeconds = 7200

func newMapperWorld(rng *rand.Rand) mapperWorld {
	w := mapperWorld{start: time.Now().Add(-worldSeconds * time.Second).Truncate(time.Second)}
	at := func(sec int) time.Time { return w.start.Add(time.Duration(sec) * time.Second) }
	type span struct{ from, to int }
	var reqSpans []span
	var leases []int64
	nextLease := int64(1)
	query := func(lease int64, from, to int) {
		recv := from + rng.Intn(to-from+1)
		deliv := recv + rng.Intn(to-recv+1)
		q := &driver.QueryLogEntry{
			LeaseID: lease, SQL: fmt.Sprintf("SELECT %d", rng.Intn(1000)),
			Receive: at(recv), Deliver: at(deliv),
		}
		if rng.Intn(10) == 0 {
			q.Err = "engine: boom"
		}
		w.events = append(w.events, worldEvent{sec: deliv, q: q})
	}
	for i, n := 0, 30+rng.Intn(40); i < n; i++ {
		from := rng.Intn(worldSeconds - 300)
		to := from + rng.Intn(300)
		req := &appserver.RequestLogEntry{
			Servlet: fmt.Sprintf("s%d", rng.Intn(3)), CacheKey: fmt.Sprintf("page-%d", rng.Intn(8)),
			Receive: at(from), Deliver: at(to), Cached: rng.Intn(5) != 0,
		}
		for l := rng.Intn(3); l > 0; l-- {
			req.LeaseIDs = append(req.LeaseIDs, nextLease)
			leases = append(leases, nextLease)
			nextLease++
		}
		if len(req.LeaseIDs) > 0 && rng.Intn(8) == 0 {
			req.LeaseIDs = append(req.LeaseIDs, req.LeaseIDs[0])
		}
		reqSpans = append(reqSpans, span{from, to})
		w.events = append(w.events, worldEvent{sec: to, req: req})
		for k := rng.Intn(5); k > 0; k-- {
			var lease int64
			switch r := rng.Intn(10); {
			case r < 6 && len(req.LeaseIDs) > 0:
				lease = req.LeaseIDs[rng.Intn(len(req.LeaseIDs))]
			case r < 8:
				lease = 0
			case r < 9 && len(leases) > 0:
				lease = leases[rng.Intn(len(leases))]
			default:
				lease = 1000 + int64(rng.Intn(50))
			}
			if rng.Intn(5) == 0 { // outside the request's interval
				from2 := max(0, from-60+rng.Intn(60))
				query(lease, from2, min(worldSeconds, to+rng.Intn(60)))
			} else {
				query(lease, from, to)
			}
		}
	}
	for k := rng.Intn(20); k > 0; k-- {
		from := rng.Intn(worldSeconds - 10)
		var lease int64
		if rng.Intn(2) == 0 {
			lease = 1 + rng.Int63n(nextLease)
		}
		query(lease, from, from+rng.Intn(10))
	}
	sort.SliceStable(w.events, func(i, j int) bool {
		a, b := w.events[i], w.events[j]
		if a.sec != b.sec {
			return a.sec < b.sec
		}
		return a.q != nil && b.q == nil
	})
	return w
}

// mapSig is the QI/URL map's content, sorted by cache key; MappedAt, a wall
// clock reading, is left out.
func mapSig(m *QIURLMap) []PageMapping {
	pages, _ := m.Snapshot()
	sort.Slice(pages, func(i, j int) bool { return pages[i].CacheKey < pages[j].CacheKey })
	for i := range pages {
		pages[i].MappedAt = time.Time{}
	}
	return pages
}

// TestMapperIndexEquivalence: over random request and query logs fed in
// rounds, with the retention window moving across runs, the lease-indexed
// mapper records exactly the mappings the full scan did — the same query
// instances in the same order after every Run — in both attribution modes
// and in both feed and polling mode.
func TestMapperIndexEquivalence(t *testing.T) {
	worlds := 40
	if testing.Short() {
		worlds = 10
	}
	for _, mode := range []MapperMode{LeaseAffine, IntervalOnly} {
		for _, feeds := range []bool{false, true} {
			t.Run(fmt.Sprintf("mode=%d/feeds=%v", mode, feeds), func(t *testing.T) {
				var attributed, expired int
				for seed := int64(1); seed <= int64(worlds); seed++ {
					a, e := checkMapperWorld(t, rand.New(rand.NewSource(seed)), mode, feeds)
					attributed += a
					expired += e
				}
				// The property is vacuous unless queries were attributed and
				// the window dropped some before a request could claim them.
				if attributed == 0 || expired == 0 {
					t.Fatalf("attributed %d queries, %d mappings lost queries to retention", attributed, expired)
				}
			})
		}
	}
}

// checkMapperWorld runs one world through both mappers and returns the
// queries attributed and how many runs' mappings retention had shrunk
// (compared with an unbounded window).
func checkMapperWorld(t *testing.T, rng *rand.Rand, mode MapperMode, feeds bool) (attributed, expired int) {
	t.Helper()
	w := newMapperWorld(rng)
	rlog, qlog := appserver.NewRequestLog(0), driver.NewQueryLog(0)
	got := NewMapper(rlog, qlog, NewQIURLMap())
	got.Mode, got.UseFeeds = mode, feeds
	defer got.Close()
	want := &scanMapper{Requests: rlog, Queries: qlog, Map: NewQIURLMap(), Mode: mode, OnlyCacheable: true, lastReq: 1, lastQuery: 1}
	unbounded := &scanMapper{Requests: rlog, Queries: qlog, Map: NewQIURLMap(), Mode: mode, OnlyCacheable: true, lastReq: 1, lastQuery: 1,
		Retention: 100 * worldSeconds * time.Second}

	next := 0
	for end := 0; next < len(w.events); {
		end += 1 + rng.Intn(900)
		for ; next < len(w.events) && w.events[next].sec <= end; next++ {
			if ev := w.events[next]; ev.q != nil {
				qlog.Append(*ev.q)
			} else {
				rlog.Append(*ev.req)
			}
		}
		// The cutoff trails the round's end by window seconds and half a
		// second more, so no grid timestamp sits within the microseconds
		// between this reading of the clock and the mappers'.
		window := []int{5, 30, 120, 600}[rng.Intn(4)]
		cutoff := w.start.Add(time.Duration(end-window)*time.Second - 500*time.Millisecond)
		got.Retention = time.Since(cutoff)
		want.Retention = got.Retention

		gotMapped := got.Run()
		wantMapped, n := want.run()
		unbounded.run()
		if gotMapped != wantMapped {
			t.Fatalf("round ending %ds: Run mapped %d requests, scan %d", end, gotMapped, wantMapped)
		}
		if g, s := mapSig(got.Map), mapSig(want.Map); !reflect.DeepEqual(g, s) {
			t.Fatalf("round ending %ds (mode %d, feeds %v): maps differ\nindexed: %+v\nscan:    %+v", end, mode, feeds, g, s)
		}
		// Pruning keeps exactly what the scan keeps, and the index covers
		// exactly the buffer.
		indexed := 0
		for _, l := range got.byLease {
			indexed += len(l)
		}
		if len(got.buffer) != len(want.buffer) || indexed != len(got.buffer) {
			t.Fatalf("round ending %ds: %d buffered (%d indexed), scan buffers %d", end, len(got.buffer), indexed, len(want.buffer))
		}
		attributed += n
		if !reflect.DeepEqual(mapSig(want.Map), mapSig(unbounded.Map)) {
			expired++
		}
	}
	return attributed, expired
}

// TestMapperExaminesOwnLeases: a leased request in LeaseAffine mode looks
// only at its own leases' and the unleased buffered queries, which
// sniffer.queries_examined_total counts; a lease-less request still scans
// the whole buffer.
func TestMapperExaminesOwnLeases(t *testing.T) {
	rlog, qlog := appserver.NewRequestLog(0), driver.NewQueryLog(0)
	mp := NewMapper(rlog, qlog, NewQIURLMap())
	mp.Obs = obs.NewRegistry()
	base := time.Now()
	q := func(lease int64, at time.Duration) {
		qlog.Append(driver.QueryLogEntry{LeaseID: lease, SQL: "SELECT 1", Receive: base.Add(at), Deliver: base.Add(at + time.Millisecond)})
	}
	for i := int64(0); i < 100; i++ {
		q(100+i, 5*time.Millisecond) // other requests' leases
	}
	q(7, 2*time.Millisecond)
	q(0, 3*time.Millisecond)
	q(7, 20*time.Millisecond) // own lease, outside the interval
	rlog.Append(appserver.RequestLogEntry{CacheKey: "leased", Cached: true, Receive: base, Deliver: base.Add(10 * time.Millisecond), LeaseIDs: []int64{7}})
	rlog.Append(appserver.RequestLogEntry{CacheKey: "lease-less", Cached: true, Receive: base, Deliver: base.Add(10 * time.Millisecond)})
	mp.Run()

	if pm, _ := mp.Map.Get("leased"); len(pm.Queries) != 2 {
		t.Fatalf("leased request attributed %d queries, want 2", len(pm.Queries))
	}
	if pm, _ := mp.Map.Get("lease-less"); len(pm.Queries) != 102 {
		t.Fatalf("lease-less request attributed %d queries, want 102", len(pm.Queries))
	}
	if got, want := mp.Obs.Counter("sniffer.queries_examined_total").Value(), int64(3+103); got != want {
		t.Fatalf("examined %d buffered queries, want %d", got, want)
	}
}

// BenchmarkMapperRun is one mapping pass in the steady state of a cold-read
// site: about 5,800 queries buffered inside the retention window, 20
// requests per run, each with its own lease and one query; every run buffers
// 20 new queries and expires 20 old ones.
func BenchmarkMapperRun(b *testing.B) {
	const perRun, window = 20, 290 // runs inside the window: 5,800 buffered
	rlog, qlog := appserver.NewRequestLog(0), driver.NewQueryLog(0)
	mp := NewMapper(rlog, qlog, NewQIURLMap())
	// Run i happens at virtual time origin + i ms, in the past.
	origin := time.Now().Add(-time.Hour)
	lease := int64(0)
	run := func(i int) {
		t0 := origin.Add(time.Duration(i) * time.Millisecond)
		for r := 0; r < perRun; r++ {
			lease++
			recv := t0.Add(time.Duration(r) * time.Microsecond)
			qlog.Append(driver.QueryLogEntry{
				LeaseID: lease, SQL: "SELECT id, ver, val FROM small WHERE cat = 1 ORDER BY id",
				Receive: recv.Add(50 * time.Microsecond), Deliver: recv.Add(400 * time.Microsecond),
			})
			rlog.Append(appserver.RequestLogEntry{
				Servlet: "light", CacheKey: fmt.Sprintf("site/light/%d", lease%512), Cached: true,
				Receive: recv, Deliver: recv.Add(500 * time.Microsecond), LeaseIDs: []int64{lease},
			})
		}
		mp.Retention = time.Since(t0.Add(-window * time.Millisecond))
		mp.Run()
	}
	for i := 0; i < window; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(window + i)
	}
}
