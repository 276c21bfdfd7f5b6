package appserver

import (
	"time"

	"repro/internal/feed"
)

// RequestLogEntry is one record of the HTTP request log, with the fields
// the paper's request logger extracts (§3.1): a unique ID, the request
// string (page name + GET parameters), the cookie string, the POST string,
// and receive/delivery timestamps. CacheKey is the canonical page
// identifier computed from the servlet's key spec.
type RequestLogEntry struct {
	ID       int64
	Servlet  string
	Request  string // path?rawquery
	Cookies  string
	Post     string
	CacheKey string
	Receive  time.Time
	Deliver  time.Time
	Status   int
	Cached   bool    // whether the response was marked cacheable
	LeaseIDs []int64 // pool leases the request used (query attribution)
}

// RequestLog is the bounded, thread-safe request log, a feed.Log of
// entries numbered by ID. The sniffer's request-to-query mapper reads it
// incrementally (SinceNext); the log export's long poll waits on it.
type RequestLog struct {
	*feed.Log[RequestLogEntry]
}

// DefaultRequestLogCapacity bounds request log memory when no capacity is
// given.
const DefaultRequestLogCapacity = 1 << 16

// NewRequestLog creates a log holding at most capacity entries
// (DefaultRequestLogCapacity if capacity <= 0).
func NewRequestLog(capacity int) *RequestLog {
	if capacity <= 0 {
		capacity = DefaultRequestLogCapacity
	}
	return &RequestLog{feed.NewLog(capacity, func(e *RequestLogEntry, id int64) { e.ID = id })}
}

// NextID returns the ID the next entry will receive.
func (l *RequestLog) NextID() int64 { return l.Next() }
