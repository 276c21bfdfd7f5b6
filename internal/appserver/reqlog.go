package appserver

import (
	"sync"
	"time"
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

// RequestLog is a bounded, thread-safe request log. The sniffer's
// request-to-query mapper reads it incrementally (SinceNext); the
// log export's long poll waits on Changed.
type RequestLog struct {
	mu      sync.Mutex
	entries []RequestLogEntry
	firstID int64
	nextID  int64
	cap     int
	// changed is closed on every append and then replaced (close-and-replace
	// broadcast; see Changed).
	changed chan struct{}
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
	return &RequestLog{firstID: 1, nextID: 1, cap: capacity, changed: make(chan struct{})}
}

// Append adds an entry, assigning and returning its ID.
func (l *RequestLog) Append(e RequestLogEntry) int64 {
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

// Since returns entries with ID >= id plus whether older entries were
// discarded.
func (l *RequestLog) Since(id int64) (entries []RequestLogEntry, truncated bool) {
	entries, truncated, _, _ = l.SinceNext(id)
	return entries, truncated
}

// SinceNext is Since plus the resume cursor and truncation context, observed
// atomically: next is one past the last returned entry, first is the oldest
// retained ID.
func (l *RequestLog) SinceNext(id int64) (entries []RequestLogEntry, truncated bool, next, first int64) {
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
	out := make([]RequestLogEntry, int64(len(l.entries))-start)
	copy(out, l.entries[start:])
	return out, truncated, next, first
}

// Changed returns a channel closed when an entry may have been appended since
// the call; re-obtain it after each wakeup.
func (l *RequestLog) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}

// NextID returns the ID the next entry will receive.
func (l *RequestLog) NextID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID
}

// Len returns the number of retained entries.
func (l *RequestLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
