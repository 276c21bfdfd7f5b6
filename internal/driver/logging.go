package driver

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// QueryLogEntry is one record of the query log: the exact SQL text the
// application sent plus the two timestamps the paper's query logger records
// (§3.2: "the query string and the two timestamps, query receive time and
// result delivery").
type QueryLogEntry struct {
	ID      int64 // unique, monotonically increasing
	LeaseID int64 // pool lease that issued the query; 0 when unpooled
	SQL     string
	Receive time.Time // when the driver received the query
	Deliver time.Time // when the result was delivered back
	Err     string    // non-empty when the query failed
}

// QueryLog is a bounded, thread-safe log of executed queries. The sniffer's
// request-to-query mapper reads it incrementally (SinceNext); the
// log export's long poll waits on Changed.
type QueryLog struct {
	mu      sync.Mutex
	entries []QueryLogEntry
	firstID int64
	nextID  int64
	cap     int
	// changed is closed on every append and then replaced (close-and-replace
	// broadcast; see Changed).
	changed chan struct{}
}

// DefaultQueryLogCapacity bounds query-log memory when no capacity is given.
const DefaultQueryLogCapacity = 1 << 16

// NewQueryLog creates a log holding at most capacity entries
// (DefaultQueryLogCapacity if capacity <= 0).
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = DefaultQueryLogCapacity
	}
	return &QueryLog{firstID: 1, nextID: 1, cap: capacity, changed: make(chan struct{})}
}

// Append adds an entry, assigning its ID.
func (l *QueryLog) Append(e QueryLogEntry) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.ID = l.nextID
	l.nextID++
	l.entries = append(l.entries, e)
	// Amortized trimming: drop down to capacity only once the log exceeds
	// 1.5× capacity, so appends stay O(1).
	if len(l.entries) > l.cap*3/2 {
		drop := len(l.entries) - l.cap
		l.entries = append(l.entries[:0:0], l.entries[drop:]...)
		l.firstID += int64(drop)
	}
	close(l.changed)
	l.changed = make(chan struct{})
	return e.ID
}

// Since returns a copy of entries with ID >= id and whether older entries
// were discarded.
func (l *QueryLog) Since(id int64) (entries []QueryLogEntry, truncated bool) {
	entries, truncated, _, _ = l.SinceNext(id)
	return entries, truncated
}

// SinceNext is Since plus the resume cursor and truncation context, observed
// atomically: next is one past the last returned entry, first is the oldest
// retained ID.
func (l *QueryLog) SinceNext(id int64) (entries []QueryLogEntry, truncated bool, next, first int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < 1 {
		id = 1
	}
	truncated = id < l.firstID
	next = l.nextID
	first = l.firstID
	start := id - l.firstID
	if start < 0 {
		start = 0
	}
	if start >= int64(len(l.entries)) {
		return nil, truncated, next, first
	}
	out := make([]QueryLogEntry, int64(len(l.entries))-start)
	copy(out, l.entries[start:])
	return out, truncated, next, first
}

// Changed returns a channel closed when an entry may have been appended since
// the call; re-obtain it after each wakeup.
func (l *QueryLog) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}

// NextID returns the ID the next entry will receive.
func (l *QueryLog) NextID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID
}

// Len returns the number of retained entries.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// ---------------------------------------------------------------------------
// LoggingDriver: the JDBC wrapper (paper §3.2)
// ---------------------------------------------------------------------------

// LoggingDriver wraps another Driver so every connection it opens records
// its queries into a shared QueryLog. This is the paper's JDBC-wrapper
// query logger: it interposes at the driver layer, so explicit connections,
// pool connections and data-source connections are all captured without
// application changes.
type LoggingDriver struct {
	Inner Driver
	Log   *QueryLog
}

// NewLoggingDriver wraps inner, logging to log.
func NewLoggingDriver(inner Driver, log *QueryLog) *LoggingDriver {
	return &LoggingDriver{Inner: inner, Log: log}
}

// Connect opens a logged connection via the inner driver.
func (d *LoggingDriver) Connect(url string) (Conn, error) {
	c, err := d.Inner.Connect(url)
	if err != nil {
		return nil, err
	}
	return &LoggingConn{inner: c, log: d.Log}, nil
}

// LoggingConn wraps a Conn, recording every query.
type LoggingConn struct {
	inner Conn
	log   *QueryLog
	tag   atomic.Int64 // current lease ID, set by Pool on Get
}

// SetTag attaches a lease ID to subsequent queries on this connection.
// Pool.Get calls it automatically for pooled logging connections.
func (c *LoggingConn) SetTag(id int64) { c.tag.Store(id) }

// Query executes sql on the wrapped connection, logging text and both
// timestamps.
func (c *LoggingConn) Query(sql string) (*engine.Result, error) {
	recv := time.Now()
	res, err := c.inner.Query(sql)
	entry := QueryLogEntry{
		LeaseID: c.tag.Load(),
		SQL:     sql,
		Receive: recv,
		Deliver: time.Now(),
	}
	if err != nil {
		entry.Err = err.Error()
	}
	c.log.Append(entry)
	return res, err
}

// Close closes the wrapped connection.
func (c *LoggingConn) Close() error { return c.inner.Close() }

// Taggable is implemented by connections that can carry a lease tag.
type Taggable interface{ SetTag(id int64) }
