package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feed"
	"repro/internal/mem"
)

// UpdateOp distinguishes the two primitive changes in the update log. An SQL
// UPDATE appears as a delete of the old row followed by an insert of the new
// one, which is exactly the Δ⁻R / Δ⁺R decomposition the invalidator consumes
// (paper §4.2.1).
type UpdateOp int

// Update operations.
const (
	OpInsert UpdateOp = iota
	OpDelete
)

// String names the operation ("INSERT" or "DELETE").
func (op UpdateOp) String() string {
	if op == OpInsert {
		return "INSERT"
	}
	return "DELETE"
}

// UpdateRecord is one entry of the database update log.
type UpdateRecord struct {
	LSN   int64 // monotonically increasing log sequence number, from 1
	Time  time.Time
	Table string // table name as created (original case)
	Op    UpdateOp
	// Columns are the schema column names at the time of the change. Records
	// of one table share the slice (mem.Schema.ColumnNames): read-only.
	Columns []string
	Row     mem.Row // full image of the inserted/deleted row
	// Trace/Span carry the pipeline-trace context stamped at commit time
	// (see Database.SetTracer): Trace identifies the end-to-end trace this
	// change opened, Span the engine.commit root span. Zero when tracing is
	// off; they ride the log (and the wire protocol) in-band so every
	// downstream hop can attach child spans without side channels.
	Trace int64
	Span  int64
}

// UpdateLog is an append-only, bounded-memory log of row-level changes.
// Readers poll with Since or subscribe with Subscribe (blocking on arrival
// instead of re-copying the suffix); the log retains at most Capacity
// records (old records are discarded, and readers that fell behind can
// detect truncation by comparing the first returned LSN with the one they
// asked for).
type UpdateLog struct {
	mu       sync.Mutex
	recs     []UpdateRecord
	firstLSN int64 // LSN of recs[0]
	capacity int
	// next mirrors the next LSN atomically so idle readers (Since at the
	// head, NextLSN) never touch the mutex — a cycle-cadence poller with no
	// new records costs two atomic loads, not a lock acquisition.
	next atomic.Int64
	// changed is closed on every append and then replaced; Changed hands it
	// to readers that want to block until new records may exist.
	changed chan struct{}

	hubOnce sync.Once
	hub     *feed.Hub[UpdateRecord]
}

// DefaultLogCapacity bounds update log memory when no capacity is given.
const DefaultLogCapacity = 1 << 16

// NewUpdateLog creates a log retaining at most capacity records
// (DefaultLogCapacity if capacity <= 0).
func NewUpdateLog(capacity int) *UpdateLog {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	l := &UpdateLog{firstLSN: 1, capacity: capacity, changed: make(chan struct{})}
	l.next.Store(1)
	return l
}

// Append adds a record, assigning its LSN, and returns that LSN.
func (l *UpdateLog) Append(rec UpdateRecord) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.LSN = l.next.Load()
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	l.next.Add(1)
	l.recs = append(l.recs, rec)
	// Trim in half-capacity batches so appends stay amortized O(1): between
	// Capacity and 1.5×Capacity records are retained at any time.
	if over := len(l.recs) - l.capacity*3/2; over > 0 {
		drop := len(l.recs) - l.capacity
		l.recs = append(l.recs[:0:0], l.recs[drop:]...)
		l.firstLSN += int64(drop)
	}
	// Wake subscribers: close-and-replace broadcasts to every waiter at
	// once without tracking them individually.
	close(l.changed)
	l.changed = make(chan struct{})
	return rec.LSN
}

// NextLSN returns the LSN the next appended record will receive.
func (l *UpdateLog) NextLSN() int64 { return l.next.Load() }

// FirstLSN returns the oldest LSN the log still retains.
func (l *UpdateLog) FirstLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// Changed returns a channel that is closed when a record may have been
// appended since the call. Re-obtain it after every wakeup; a Since issued
// after obtaining the channel observes every record whose append closed an
// earlier channel.
func (l *UpdateLog) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}

// Since returns a copy of all records with LSN >= lsn, plus truncated=true
// when records at or after lsn have already been discarded (the caller
// missed changes and must fall back to conservative behaviour).
func (l *UpdateLog) Since(lsn int64) (recs []UpdateRecord, truncated bool) {
	recs, truncated, _, _ = l.SinceNext(lsn)
	return recs, truncated
}

// SinceNext is Since plus the resume cursor and truncation context, all
// observed atomically under one lock acquisition: next is exactly one past
// the last returned record (never a later LSN whose record was not
// returned), and first is the oldest retained LSN. Callers advancing a
// cursor must use this next — reading NextLSN separately races with
// appends and would skip records. A caller already at the head (lsn ==
// NextLSN) returns on the atomic fast path without taking the mutex or
// allocating.
func (l *UpdateLog) SinceNext(lsn int64) (recs []UpdateRecord, truncated bool, next, first int64) {
	if lsn < 1 {
		lsn = 1
	}
	// Idle fast path: a reader exactly at the head can get nothing, and
	// lsn == nextLSN >= firstLSN rules truncation out, so the answer needs
	// neither the mutex nor an allocation. The cadence pollers hit this on
	// every quiet cycle. (A cursor PAST the head — possible only against a
	// different, restarted log — takes the slow path so next snaps back to
	// the real head.) first is 0 here: "no truncation context needed".
	if lsn == l.next.Load() {
		return nil, false, lsn, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	truncated = lsn < l.firstLSN
	next = l.next.Load()
	first = l.firstLSN
	start := lsn - l.firstLSN
	if start < 0 {
		start = 0
	}
	if start >= int64(len(l.recs)) {
		return nil, truncated, next, first
	}
	out := make([]UpdateRecord, int64(len(l.recs))-start)
	copy(out, l.recs[start:])
	return out, truncated, next, first
}

// Subscribe opens a feed subscription at cursor: batches of records are
// delivered as they arrive, with bounded buffering (buffer batches; feed
// defaults when <= 0) and the truncation signal in-band. Close the
// subscription when done; resume a replacement from the last consumed
// batch's Next.
func (l *UpdateLog) Subscribe(cursor int64, buffer int) *feed.Subscription[UpdateRecord] {
	return l.Hub().Subscribe(cursor, buffer)
}

// Hub exposes the log's fan-out feed hub (created on first use), for
// callers that want hub-level stats alongside subscriptions.
func (l *UpdateLog) Hub() *feed.Hub[UpdateRecord] {
	l.hubOnce.Do(func() {
		l.hub = feed.NewHub(func(cursor int64) ([]UpdateRecord, bool, int64, int64) {
			return l.SinceNext(cursor)
		}, l.Changed)
	})
	return l.hub
}

// Delta groups a batch of update records into per-relation Δ⁺ (inserts) and
// Δ⁻ (deletes) tables, the form §4.2.1 prescribes for group processing.
type Delta struct {
	Table   string
	Columns []string
	Plus    []mem.Row // Δ⁺R: inserted rows
	Minus   []mem.Row // Δ⁻R: deleted rows
	// Stamp is the commit time of the oldest record folded into this delta
	// — the freshness-trace origin. A page invalidated because of this
	// delta has been stale since at most Stamp, so eject-time minus Stamp
	// is the measured staleness window (paper §5's freshness criterion).
	Stamp time.Time
	// Trace/Span follow Stamp: the trace context of the oldest record in
	// the delta, so the staleness a page is charged with and the trace that
	// explains it describe the same commit.
	Trace int64
	Span  int64
}

// BuildDeltas partitions records by table, preserving first-appearance
// order of tables. Table-name matching is case-insensitive; the first
// record's spelling and column set win.
func BuildDeltas(recs []UpdateRecord) []*Delta {
	var order []string
	byTable := map[string]*Delta{}
	for _, rec := range recs {
		key := lowerName(rec.Table)
		d, ok := byTable[key]
		if !ok {
			d = &Delta{Table: rec.Table, Columns: rec.Columns, Stamp: rec.Time, Trace: rec.Trace, Span: rec.Span}
			byTable[key] = d
			order = append(order, key)
		}
		if !rec.Time.IsZero() && (d.Stamp.IsZero() || rec.Time.Before(d.Stamp)) {
			d.Stamp = rec.Time
			d.Trace, d.Span = rec.Trace, rec.Span
		}
		if rec.Op == OpInsert {
			d.Plus = append(d.Plus, rec.Row)
		} else {
			d.Minus = append(d.Minus, rec.Row)
		}
	}
	out := make([]*Delta, len(order))
	for i, k := range order {
		out[i] = byTable[k]
	}
	return out
}

func lowerName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}
