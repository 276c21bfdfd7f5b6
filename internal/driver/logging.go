package driver

import (
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/feed"
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

// QueryLog is the bounded, thread-safe query log, a feed.Log of entries
// numbered by ID. The sniffer's request-to-query mapper reads it
// incrementally (SinceNext); the log export's long poll waits on it.
type QueryLog struct {
	*feed.Log[QueryLogEntry]
}

// DefaultQueryLogCapacity bounds query-log memory when no capacity is given.
const DefaultQueryLogCapacity = 1 << 16

// NewQueryLog creates a log holding at most capacity entries
// (DefaultQueryLogCapacity if capacity <= 0).
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = DefaultQueryLogCapacity
	}
	return &QueryLog{feed.NewLog(capacity, func(e *QueryLogEntry, id int64) { e.ID = id })}
}

// NextID returns the ID the next entry will receive.
func (l *QueryLog) NextID() int64 { return l.Next() }

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
