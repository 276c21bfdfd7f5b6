package engine

import (
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

// UpdateLog is the database update log: a feed.Log of row-level changes,
// numbered by LSN and stamped with their commit time. Readers poll with
// Since/SinceNext or subscribe (blocking on arrival instead of re-copying
// the suffix); the log retains the newest Capacity records, and its Epoch
// tells a remote reader that a restarted database began a new log.
type UpdateLog struct {
	*feed.Log[UpdateRecord]
}

// DefaultLogCapacity bounds update log memory when no capacity is given.
const DefaultLogCapacity = 1 << 16

// NewUpdateLog creates a log retaining at most capacity records
// (DefaultLogCapacity if capacity <= 0).
func NewUpdateLog(capacity int) *UpdateLog {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	return &UpdateLog{feed.NewLog(capacity, func(rec *UpdateRecord, lsn int64) {
		rec.LSN = lsn
		if rec.Time.IsZero() {
			rec.Time = time.Now()
		}
	})}
}

// NextLSN returns the LSN the next appended record will receive.
func (l *UpdateLog) NextLSN() int64 { return l.Next() }

// FirstLSN returns the oldest LSN the log still retains.
func (l *UpdateLog) FirstLSN() int64 { return l.First() }

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
