package wire

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultFeedBuffer bounds how many update records a LogFeed holds between
// the stream and its consumer before backpressure stops the read.
const DefaultFeedBuffer = 1 << 16

// LogFeed consumes a server's SUBSCRIBE_LOG stream on a dedicated Client and
// re-presents it with the LogSince pull contract: PullSince drains whatever
// the stream has buffered, so the invalidator's cycle logic runs unchanged in
// event-driven mode — only the trigger (Changed) and the transport differ
// from polling.
//
// The feed heals itself: a dropped stream or a stream error resubscribes
// from the last buffered cursor through the client's reconnect backoff,
// losing nothing and re-delivering nothing.
type LogFeed struct {
	c      *Client
	buffer int

	mu        sync.Mutex
	cond      *sync.Cond // signals buffer space to the stream goroutine
	recs      []engine.UpdateRecord
	truncated bool  // sticky until the next PullSince reports it
	firstLSN  int64 // newest remote truncation context seen
	next      int64 // resume cursor: one past the last buffered record
	low       int64 // oldest LSN still answerable from the buffer
	changed   chan struct{}
	closed    bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	resubscribes atomic.Int64
	delivered    atomic.Int64
	bursts       atomic.Int64 // frames that carried records

	tracer atomic.Pointer[trace.Tracer]
}

// NewLogFeed starts streaming the server's update log from cursor on c, which
// must be dedicated to this feed (streams own the connection; see
// Client.streamLog). buffer bounds buffered records (DefaultFeedBuffer when
// <= 0). Close the feed to stop the stream and the client.
func NewLogFeed(c *Client, cursor int64, buffer int) *LogFeed {
	if buffer <= 0 {
		buffer = DefaultFeedBuffer
	}
	if cursor < 1 {
		cursor = 1
	}
	f := &LogFeed{
		c:       c,
		buffer:  buffer,
		next:    cursor,
		low:     cursor,
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	go f.run()
	return f
}

// run keeps one stream open, resubscribing from the resume cursor after each
// failure with capped jittered backoff (the client's reconnect backoff gates
// the redial itself; this pause keeps the subscribe loop from spinning while
// that window is open).
func (f *LogFeed) run() {
	defer close(f.done)
	attempts := 0
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		f.mu.Lock()
		cursor := f.next
		f.mu.Unlock()
		got := false
		f.c.streamLog(cursor, func(resp Response) {
			got = true
			f.deliver(resp)
		})
		if got {
			attempts = 0
		}
		attempts++
		f.resubscribes.Add(1)
		select {
		case <-f.stop:
			return
		case <-time.After(backoff.Delay(f.c.backoffBase(), attempts, f.c.maxBackoff())):
		}
	}
}

// deliver buffers one record-bearing frame, blocking for space when the
// consumer is behind (backpressure propagates to the server through the
// unread TCP stream, exactly like a slow subscriber on the hub).
func (f *LogFeed) deliver(resp Response) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.recs) >= f.buffer && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		return
	}
	tr := f.tracer.Load()
	now := time.Now()
	for _, r := range resp.Records {
		rec := DecodeRecord(r)
		if rec.LSN >= f.next {
			f.recs = append(f.recs, rec)
			// feed.deliver: commit to stream delivery on this consumer —
			// the wire hop of the trace, parented on the commit span.
			if tr.Recording(rec.Trace) {
				ctx := tr.Record(trace.Context{Trace: rec.Trace, Span: rec.Span},
					"feed.deliver", rec.Time, now)
				rec.Trace, rec.Span = ctx.Trace, ctx.Span
				f.recs[len(f.recs)-1] = rec
			}
		}
	}
	f.truncated = f.truncated || resp.Truncated
	if resp.FirstLSN > f.firstLSN {
		f.firstLSN = resp.FirstLSN
	}
	if resp.NextLSN > f.next {
		f.next = resp.NextLSN
	}
	f.delivered.Add(int64(len(resp.Records)))
	f.bursts.Add(1)
	close(f.changed)
	f.changed = make(chan struct{})
}

// PullSince drains the buffered stream: records with LSN >= lsn, whether the
// server's log was truncated before the caller's cursor, and the cursor to
// pull from next. It never blocks on the network: the answer is whatever the
// stream has delivered so far.
func (f *LogFeed) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	if lsn < 1 {
		lsn = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false, lsn, errors.New("wire: log feed closed")
	}
	truncated := f.truncated
	f.truncated = false
	// A cursor behind what this feed can still serve (records drained by an
	// earlier pull) is a miss, same as a log that trimmed past it.
	if lsn < f.low {
		truncated = true
	}
	var out []engine.UpdateRecord
	for _, r := range f.recs {
		if r.LSN >= lsn {
			out = append(out, r)
		}
	}
	f.recs = f.recs[:0]
	next := f.next
	if next < lsn {
		next = lsn
	}
	f.low = next
	f.cond.Broadcast()
	return out, truncated, next, nil
}

// Changed returns a channel closed when the stream has delivered new records
// since the call — the event-driven trigger. Re-obtain it after each wakeup.
func (f *LogFeed) Changed() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.changed
}

// FirstLSN returns the newest truncation context received from the server (0
// if none was ever needed).
func (f *LogFeed) FirstLSN() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstLSN
}

// Next returns the resume cursor: one past the newest record the stream has
// delivered. Waiting for Next to reach a log's head is how a caller knows
// the feed has caught up with records appended before it subscribed.
func (f *LogFeed) Next() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Buffered returns how many records are waiting for the next PullSince.
func (f *LogFeed) Buffered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.recs)
}

// Resubscribes counts stream re-establishments (drops, not the first
// subscribe).
func (f *LogFeed) Resubscribes() int64 { return f.resubscribes.Load() }

// Delivered counts records received from the stream.
func (f *LogFeed) Delivered() int64 { return f.delivered.Load() }

// Bursts counts record-bearing frames received — Delivered/Bursts is the
// mean coalesced-burst size.
func (f *LogFeed) Bursts() int64 { return f.bursts.Load() }

// SetTracer attaches a pipeline tracer: each sampled record delivered by
// the stream gets a "feed.deliver" span (commit time → delivery time) and
// the record's context is advanced to it, so invalidator spans parent on
// the feed hop. nil detaches.
func (f *LogFeed) SetTracer(t *trace.Tracer) { f.tracer.Store(t) }

// Instrument registers the feed's health under "<prefix>.": buffer occupancy
// (records waiting for the next pull), records and record-bearing frames
// received (their ratio is the mean coalesced-burst size), and stream
// re-establishments. Pull-style gauges, so the stream path is untouched.
func (f *LogFeed) Instrument(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+".buffered", func() int64 { return int64(f.Buffered()) })
	reg.GaugeFunc(prefix+".delivered_total", f.Delivered)
	reg.GaugeFunc(prefix+".bursts_total", f.Bursts)
	reg.GaugeFunc(prefix+".resubscribes_total", f.Resubscribes)
}

// Close stops the stream and closes the underlying client. Safe to call
// twice; blocks until the stream goroutine exits.
func (f *LogFeed) Close() error {
	f.stopOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		f.cond.Broadcast()
		f.mu.Unlock()
		close(f.stop)
		f.c.Close() // unblocks a read in flight
	})
	<-f.done
	return nil
}
