// Package datacache implements the middle-tier database cache of the
// paper's Configuration II (§1.2): a query-result cache that sits between
// the application server and the single shared DBMS, in the style of the
// Oracle 8i data cache. Results of SELECT statements are cached by query
// text; a synchronization daemon polls the database's update log and
// invalidates every cached result whose underlying tables changed — the
// "heavy database-cache synchronization" the paper contrasts with
// Configuration III's page-level invalidation.
package datacache

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// Stats counts cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Passthrough   int64 // non-SELECT statements forwarded to the DBMS
	Invalidations int64
	Syncs         int64
}

// HitRatio returns hits/(hits+misses) over SELECTs, 0 when idle.
func (s Stats) HitRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// LogPuller abstracts how the cache reads the database's update log: over
// the wire (wire.Client.LogSince) or in-process (engine.UpdateLog.Since).
type LogPuller interface {
	// PullSince returns records with LSN >= lsn, a truncation flag, and the
	// next LSN to poll from.
	PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error)
}

// EngineLogPuller adapts an in-process engine.UpdateLog.
type EngineLogPuller struct{ Log *engine.UpdateLog }

// PullSince implements LogPuller. The resume cursor comes from the same
// read as the records: a NextLSN read after Since would skip whatever was
// appended in between.
func (p EngineLogPuller) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	recs, trunc, next, _ := p.Log.SinceNext(lsn)
	return recs, trunc, next, nil
}

type cached struct {
	sql    string
	result *engine.Result
	tables map[string]struct{} // lower-cased base tables
}

// DataCache caches SELECT results in front of a backing connection pool.
type DataCache struct {
	pool *driver.Pool

	// AccessDelay models the cost of reaching the cache itself. Table 2's
	// experiments assume it is negligible (zero); Table 3's model the cache
	// as a local DBMS whose connection establishment is expensive.
	AccessDelay time.Duration

	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element
	lru      *list.List
	byTable  map[string]map[string]struct{} // table → set of cached SQL keys
	lastLSN  int64
	stats    Stats
}

// New creates a data cache over pool holding at most capacity results
// (unbounded if capacity <= 0).
func New(pool *driver.Pool, capacity int) *DataCache {
	return &DataCache{
		pool:     pool,
		capacity: capacity,
		items:    make(map[string]*list.Element),
		lru:      list.New(),
		byTable:  make(map[string]map[string]struct{}),
		lastLSN:  1,
	}
}

// Query serves sql: SELECTs are answered from cache when possible, DML and
// DDL pass through to the DBMS (and conservatively invalidate the affected
// table's cached results immediately, keeping this cache's own clients
// read-your-writes consistent; cross-client changes arrive via Sync).
func (d *DataCache) Query(sql string) (*engine.Result, error) {
	if d.AccessDelay > 0 {
		time.Sleep(d.AccessDelay)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, isSelect := stmt.(*sqlparser.SelectStmt)
	if !isSelect {
		d.mu.Lock()
		d.stats.Passthrough++
		d.mu.Unlock()
		res, err := d.forward(sql)
		if err == nil {
			d.invalidateForStmt(stmt)
		}
		return res, err
	}

	key := strings.TrimSpace(sql)
	d.mu.Lock()
	if el, ok := d.items[key]; ok {
		d.lru.MoveToFront(el)
		d.stats.Hits++
		res := el.Value.(*cached).result
		d.mu.Unlock()
		return res, nil
	}
	d.stats.Misses++
	d.mu.Unlock()

	res, err := d.forward(sql)
	if err != nil {
		return nil, err
	}
	tables := map[string]struct{}{}
	for _, ref := range sel.Tables() {
		tables[strings.ToLower(ref.Name)] = struct{}{}
	}
	d.store(&cached{sql: key, result: res, tables: tables})
	return res, nil
}

func (d *DataCache) forward(sql string) (*engine.Result, error) {
	lease, err := d.pool.Get()
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	return lease.Query(sql)
}

func (d *DataCache) store(c *cached) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.items[c.sql]; ok {
		d.detach(el.Value.(*cached))
		el.Value = c
		d.lru.MoveToFront(el)
	} else {
		el := d.lru.PushFront(c)
		d.items[c.sql] = el
		if d.capacity > 0 && d.lru.Len() > d.capacity {
			oldest := d.lru.Back()
			if oldest != nil {
				oc := oldest.Value.(*cached)
				d.lru.Remove(oldest)
				delete(d.items, oc.sql)
				d.detach(oc)
			}
		}
	}
	for t := range c.tables {
		set, ok := d.byTable[t]
		if !ok {
			set = make(map[string]struct{})
			d.byTable[t] = set
		}
		set[c.sql] = struct{}{}
	}
}

func (d *DataCache) detach(c *cached) {
	for t := range c.tables {
		if set, ok := d.byTable[t]; ok {
			delete(set, c.sql)
			if len(set) == 0 {
				delete(d.byTable, t)
			}
		}
	}
}

// invalidateForStmt drops cached results that reference the table a DML/DDL
// statement touched.
func (d *DataCache) invalidateForStmt(stmt sqlparser.Stmt) {
	var table string
	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		table = s.Table
	case *sqlparser.UpdateStmt:
		table = s.Table
	case *sqlparser.DeleteStmt:
		table = s.Table
	case *sqlparser.DropTableStmt:
		table = s.Table
	default:
		return
	}
	d.InvalidateTable(table)
}

// InvalidateTable drops every cached result referencing the table and
// returns the count.
func (d *DataCache) InvalidateTable(table string) int {
	key := strings.ToLower(table)
	d.mu.Lock()
	defer d.mu.Unlock()
	set, ok := d.byTable[key]
	if !ok {
		return 0
	}
	n := 0
	for sql := range set {
		if el, ok := d.items[sql]; ok {
			c := el.Value.(*cached)
			d.lru.Remove(el)
			delete(d.items, sql)
			// remove from every table set, not only this one
			for t := range c.tables {
				if s2, ok := d.byTable[t]; ok && t != key {
					delete(s2, sql)
					if len(s2) == 0 {
						delete(d.byTable, t)
					}
				}
			}
			d.stats.Invalidations++
			n++
		}
	}
	delete(d.byTable, key)
	return n
}

// Sync pulls the update log through p and invalidates cached results whose
// tables changed; the paper models this as one log-fetch query per cache
// per second (§5.2.5). It returns how many results were invalidated.
func (d *DataCache) Sync(p LogPuller) (int, error) {
	d.mu.Lock()
	last := d.lastLSN
	d.mu.Unlock()
	recs, truncated, next, err := p.PullSince(last)
	if err != nil {
		return 0, fmt.Errorf("datacache: sync: %w", err)
	}
	n := 0
	if truncated {
		// Missed part of the log: every cached result may be stale.
		d.mu.Lock()
		n = d.lru.Len()
		d.items = make(map[string]*list.Element)
		d.lru.Init()
		d.byTable = make(map[string]map[string]struct{})
		d.stats.Invalidations += int64(n)
		d.mu.Unlock()
	} else {
		seen := map[string]struct{}{}
		for _, rec := range recs {
			key := strings.ToLower(rec.Table)
			if _, done := seen[key]; done {
				continue
			}
			seen[key] = struct{}{}
			n += d.InvalidateTable(rec.Table)
		}
	}
	d.mu.Lock()
	d.lastLSN = next
	d.stats.Syncs++
	d.mu.Unlock()
	return n, nil
}

// StartSyncLoop runs Sync every interval until stop is closed.
func (d *DataCache) StartSyncLoop(p LogPuller, interval time.Duration, stop <-chan struct{}) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				d.Sync(p) // best effort; next tick retries
			}
		}
	}()
}

// Len returns the number of cached results.
func (d *DataCache) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}

// Stats returns a copy of the counters.
func (d *DataCache) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ---------------------------------------------------------------------------
// driver integration
// ---------------------------------------------------------------------------

// Driver exposes the data cache as a driver.Driver so servlets use it
// exactly like a direct database connection (Configuration II wiring).
type Driver struct{ Cache *DataCache }

// Connect returns a connection backed by the shared cache.
func (d Driver) Connect(string) (driver.Conn, error) {
	if d.Cache == nil {
		return nil, fmt.Errorf("datacache: driver has no cache")
	}
	return conn{cache: d.Cache}, nil
}

type conn struct{ cache *DataCache }

func (c conn) Query(sql string) (*engine.Result, error) { return c.cache.Query(sql) }
func (c conn) Close() error                             { return nil }
