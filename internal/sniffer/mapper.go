package sniffer

import (
	"time"

	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/feed"
	"repro/internal/obs"
)

// MapperMode selects how queries are attributed to requests.
type MapperMode int

// Mapper modes. LeaseAffine is the zero value so configurations default to
// the precise mode.
const (
	// LeaseAffine requires, besides interval containment, that the query's
	// pool lease is one of the leases the request used, which removes the
	// ambiguity when the application goes through connection pools (the
	// recommended BEA deployment).
	LeaseAffine MapperMode = iota
	// IntervalOnly reproduces the paper's §3.3 rule exactly: a query belongs
	// to a request when the query's [receive, delivery] interval is
	// contained in the request's interval. Under concurrency this can
	// attribute a query to several overlapping requests; the result is
	// conservative (extra mappings cause extra invalidations, never stale
	// pages).
	IntervalOnly
)

// Mapper is the request-to-query mapper (§3.3): it incrementally reads the
// request log and the query log and writes the QI/URL map.
type Mapper struct {
	Requests *appserver.RequestLog
	Queries  *driver.QueryLog
	Map      *QIURLMap
	Mode     MapperMode
	// Retention bounds how long unmatched query entries are buffered while
	// waiting for their request entry (requests are logged at delivery
	// time, after their queries). Default 30s.
	Retention time.Duration
	// OnlyCacheable skips requests whose responses were not cacheable
	// (their pages are never stored, so no invalidation is needed). On by
	// default via NewMapper.
	OnlyCacheable bool
	// Obs, when set, receives the mapper's build metrics: pages mapped,
	// queries attributed, run latency, buffered-query depth, truncations.
	// Set it before the first Run; handles are resolved lazily once.
	Obs *obs.Registry
	// UseFeeds switches Run from re-polling the two logs to draining feed
	// subscriptions: block-free incremental reads with truncation in-band.
	// Set before the first Run.
	UseFeeds bool
	// FeedBuffer bounds each subscription's batch buffering (feed defaults
	// when <= 0).
	FeedBuffer int

	lastReq   int64
	lastQuery int64
	buffer    []driver.QueryLogEntry // unmatched queries, oldest first
	truncated bool                   // a log was truncated before we read it

	// Feed-mode subscriptions, opened lazily on the first Run.
	reqSub *feed.Subscription[appserver.RequestLogEntry]
	qSub   *feed.Subscription[driver.QueryLogEntry]

	met *mapperMetrics
}

// mapperMetrics are the mapper's cached obs handles.
type mapperMetrics struct {
	runs       *obs.Counter
	pages      *obs.Counter
	queries    *obs.Counter
	truncs     *obs.Counter
	runSeconds *obs.Histogram
	buffered   *obs.Gauge
}

// TakeTruncated reports whether a source log was truncated since the last
// call (entries were lost before the mapper read them) and clears the flag.
// Lost request entries mean cached pages may exist with no QI/URL mapping;
// the invalidator reacts by flushing the caches entirely — the only sound
// recovery, since an unmapped page can never be invalidated precisely.
func (mp *Mapper) TakeTruncated() bool {
	t := mp.truncated
	mp.truncated = false
	return t
}

// NewMapper wires a mapper over the two logs.
func NewMapper(requests *appserver.RequestLog, queries *driver.QueryLog, m *QIURLMap) *Mapper {
	return &Mapper{
		Requests:      requests,
		Queries:       queries,
		Map:           m,
		Mode:          LeaseAffine,
		Retention:     30 * time.Second,
		OnlyCacheable: true,
		lastReq:       1,
		lastQuery:     1,
	}
}

// metrics lazily resolves the obs handles (the mapper is single-flight, so
// no lock is needed).
func (mp *Mapper) metrics() *mapperMetrics {
	if mp.met == nil && mp.Obs != nil {
		mp.met = &mapperMetrics{
			runs:       mp.Obs.Counter("sniffer.map_runs_total"),
			pages:      mp.Obs.Counter("sniffer.pages_mapped_total"),
			queries:    mp.Obs.Counter("sniffer.queries_attributed_total"),
			truncs:     mp.Obs.Counter("sniffer.truncations_total"),
			runSeconds: mp.Obs.Histogram("sniffer.map_run_seconds"),
			buffered:   mp.Obs.Gauge("sniffer.queries_buffered"),
		}
	}
	return mp.met
}

// Run performs one mapping pass and returns how many request entries were
// mapped. Call it periodically (the invalidator's cycle does).
func (mp *Mapper) Run() int {
	met := mp.metrics()
	var runStart time.Time
	if met != nil {
		runStart = time.Now()
	}
	mapped, attributed := mp.run()
	if met != nil {
		met.runs.Inc()
		met.pages.Add(int64(mapped))
		met.queries.Add(int64(attributed))
		met.buffered.Set(int64(len(mp.buffer)))
		met.runSeconds.ObserveDuration(time.Since(runStart))
	}
	return mapped
}

// Close releases the mapper's feed subscriptions (no-op in polling mode or
// before the first feed-mode Run).
func (mp *Mapper) Close() {
	if mp.reqSub != nil {
		mp.reqSub.Close()
	}
	if mp.qSub != nil {
		mp.qSub.Close()
	}
}

// run is the mapping pass proper; it returns mapped request entries and
// attributed query instances.
func (mp *Mapper) run() (mapped, attributed int) {
	var reqs []appserver.RequestLogEntry
	var qs []driver.QueryLogEntry
	var reqTrunc, qTrunc bool
	if mp.UseFeeds {
		if mp.reqSub == nil {
			mp.reqSub = mp.Requests.Subscribe(mp.lastReq, mp.FeedBuffer)
		}
		if mp.qSub == nil {
			mp.qSub = mp.Queries.Subscribe(mp.lastQuery, mp.FeedBuffer)
		}
		// Feed pumps deliver asynchronously, but a mapping pass must observe
		// every entry logged before it started: the invalidator consumes
		// update records right after this runs, and an update analyzed while
		// its page is still unmapped leaves that page stale forever. So each
		// drain is topped up synchronously to its log's current head —
		// requests before queries, preserving the polling invariant that a
		// mapped request's queries are always visible. When the pump has
		// caught up the top-up is an empty read; the drained prefix is never
		// re-read (Drain skips below its cursor on later runs).
		reqs, reqTrunc, mp.lastReq = feed.Drain(mp.reqSub, mp.lastReq)
		if tail, tTrunc, next, _ := mp.Requests.SinceNext(mp.lastReq); len(tail) > 0 || tTrunc {
			reqs = append(reqs, tail...)
			reqTrunc = reqTrunc || tTrunc
			mp.lastReq = next
		}
		qs, qTrunc, mp.lastQuery = feed.Drain(mp.qSub, mp.lastQuery)
		if tail, tTrunc, next, _ := mp.Queries.SinceNext(mp.lastQuery); len(tail) > 0 || tTrunc {
			qs = append(qs, tail...)
			qTrunc = qTrunc || tTrunc
			mp.lastQuery = next
		}
	} else {
		// Pull requests first: any query belonging to a pulled request was
		// logged before the request's delivery-time log append, so pulling
		// queries second cannot miss them.
		reqs, reqTrunc = mp.Requests.Since(mp.lastReq)
		if len(reqs) > 0 {
			mp.lastReq = reqs[len(reqs)-1].ID + 1
		}
		qs, qTrunc = mp.Queries.Since(mp.lastQuery)
		if len(qs) > 0 {
			mp.lastQuery = qs[len(qs)-1].ID + 1
		}
	}
	if reqTrunc || qTrunc {
		mp.truncated = true
		if mp.met != nil {
			mp.met.truncs.Inc()
		}
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
	// The buffer is oldest first, so while its head is inside the retention
	// window there is nothing to drop — and an event-driven invalidator runs
	// this once per update, not once per interval.
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

// attributable implements the §3.3 containment rule, optionally narrowed by
// lease affinity. Failed queries are never attributed: they produced no
// page content.
func (mp *Mapper) attributable(req appserver.RequestLogEntry, q driver.QueryLogEntry) bool {
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
