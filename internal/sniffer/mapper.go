package sniffer

import (
	"slices"
	"time"

	"repro/internal/appserver"
	"repro/internal/driver"
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

	lastReq   int64
	lastQuery int64
	buffer    []driver.QueryLogEntry // unmatched queries, oldest first
	base      int                    // position of buffer[0] among all queries ever buffered
	// byLease indexes the buffer: lease ID (0 for unleased queries) → the
	// positions of its buffered queries, oldest first.
	byLease   map[int64][]int
	truncated bool // a log was truncated before we read it

	met *mapperMetrics
}

// mapperMetrics are the mapper's cached obs handles.
type mapperMetrics struct {
	runs       *obs.Counter
	pages      *obs.Counter
	queries    *obs.Counter
	examined   *obs.Counter
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
			examined:   mp.Obs.Counter("sniffer.queries_examined_total"),
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
	mapped, attributed, examined := mp.run()
	if met != nil {
		met.runs.Inc()
		met.pages.Add(int64(mapped))
		met.queries.Add(int64(attributed))
		met.examined.Add(int64(examined))
		met.buffered.Set(int64(len(mp.buffer)))
		met.runSeconds.ObserveDuration(time.Since(runStart))
	}
	return mapped
}

// run is the mapping pass proper; it returns mapped request entries,
// attributed query instances and buffered queries examined.
func (mp *Mapper) run() (mapped, attributed, examined int) {
	// Read requests first: any query belonging to a read request was logged
	// before the request's delivery-time append, so reading queries second
	// cannot miss them. Both reads are synchronous, so a pass observes every
	// entry logged before it started — the invalidator pulls the update
	// records it analyzes just before this runs, and an update analyzed
	// while its page is still unmapped would leave that page stale forever.
	reqs, reqTrunc, next, _ := mp.Requests.SinceNext(mp.lastReq)
	mp.lastReq = next
	qs, qTrunc, next, _ := mp.Queries.SinceNext(mp.lastQuery)
	mp.lastQuery = next
	if reqTrunc || qTrunc {
		mp.truncated = true
		if mp.met != nil {
			mp.met.truncs.Inc()
		}
	}
	if mp.byLease == nil {
		mp.byLease = make(map[int64][]int)
	}
	for _, q := range qs {
		pos := mp.base + len(mp.buffer)
		mp.buffer = append(mp.buffer, q)
		mp.byLease[q.LeaseID] = append(mp.byLease[q.LeaseID], pos)
	}

	for i := range reqs {
		req := &reqs[i]
		if mp.OnlyCacheable && !req.Cached {
			continue
		}
		var queries []QueryInstance
		var n int
		if mp.Mode == LeaseAffine && len(req.LeaseIDs) > 0 {
			queries, n = mp.attributeLeased(req)
		} else {
			for j := range mp.buffer {
				if q := &mp.buffer[j]; mp.attributable(req, q) {
					queries = append(queries, instance(q))
				}
			}
			n = len(mp.buffer)
		}
		mp.Map.Record(req.CacheKey, req.Servlet, req.ID, queries)
		mapped++
		attributed += len(queries)
		examined += n
	}

	mp.prune()
	return mapped, attributed, examined
}

// attributeLeased attributes to a request with leases, in LeaseAffine mode,
// the buffered queries that can qualify: its own leases' and the unleased
// ones. Lease IDs are unique per pool acquisition, so no other query can.
// The lists are merged back into log order, the order a scan of the whole
// buffer yields. It returns the attributed queries and how many it examined.
func (mp *Mapper) attributeLeased(req *appserver.RequestLogEntry) ([]QueryInstance, int) {
	var stack [4][]int
	lists := stack[:0]
	if l := mp.byLease[0]; len(l) > 0 {
		lists = append(lists, l)
	}
	for i, id := range req.LeaseIDs {
		if id == 0 || slices.Contains(req.LeaseIDs[:i], id) {
			continue
		}
		if l := mp.byLease[id]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	var queries []QueryInstance
	examined := 0
	for {
		next := -1
		for i, l := range lists {
			if len(l) > 0 && (next < 0 || l[0] < lists[next][0]) {
				next = i
			}
		}
		if next < 0 {
			return queries, examined
		}
		q := &mp.buffer[lists[next][0]-mp.base]
		lists[next] = lists[next][1:]
		examined++
		if mp.attributable(req, q) {
			queries = append(queries, instance(q))
		}
	}
}

// prune drops buffered queries no future request can claim: those delivered
// more than Retention ago. Queries are logged at delivery, so the expired
// ones are the buffer's prefix, and each lease's expired queries the prefix
// of its list; the work is proportional to what expires.
func (mp *Mapper) prune() {
	retention := mp.Retention
	if retention <= 0 {
		retention = 30 * time.Second
	}
	cutoff := time.Now().Add(-retention)
	n := 0
	for n < len(mp.buffer) && !mp.buffer[n].Deliver.After(cutoff) {
		id := mp.buffer[n].LeaseID
		if l := mp.byLease[id][1:]; len(l) > 0 {
			mp.byLease[id] = l
		} else {
			delete(mp.byLease, id)
		}
		n++
	}
	clear(mp.buffer[:n]) // release the SQL text before the array is regrown
	mp.buffer = mp.buffer[n:]
	mp.base += n
}

func instance(q *driver.QueryLogEntry) QueryInstance {
	return QueryInstance{SQL: q.SQL, LogID: q.ID, Receive: q.Receive, Deliver: q.Deliver}
}

// attributable implements the §3.3 containment rule, optionally narrowed by
// lease affinity. Failed queries are never attributed: they produced no
// page content.
func (mp *Mapper) attributable(req *appserver.RequestLogEntry, q *driver.QueryLogEntry) bool {
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
