package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/trace"
)

// The eject stream is how invalidations leave the invalidator for every
// other cache process: the invalidator appends each eject batch to an
// EjectLog and every cache node long-polls it from its own cursor. A
// replica that drops and rejoins catches up from where it left off instead
// of serving permanently stale pages; one that lags past the retention
// window sees the truncation signal in-band and falls back to the
// conservative recovery every other log in this system uses — clear
// everything, re-warm from the origin. A restarted invalidator starts a
// new log under a new epoch, which its consumers treat the same way.

// DefaultEjectRetain bounds how many eject records the log keeps for
// resuming consumers. At the default eject batch size this covers hundreds
// of thousands of ejected keys of catch-up.
const DefaultEjectRetain = 8192

// DefaultStreamMaxWait caps how long the stream handler parks a long poll
// (mirrors the log exporter's cap; clients should use a shorter wait than
// their HTTP client timeout).
const DefaultStreamMaxWait = 25 * time.Second

// EjectRecord is one entry of the eject stream: a batch of cache keys to
// invalidate, or a whole-cache clear (the invalidator's conservative
// recovery, which must reach replicas too). Traces lists the batch's
// distinct pipeline trace contexts (trace.FormatContexts), so each
// consuming cache can close those traces with its terminal eject span.
type EjectRecord struct {
	Seq    int64    `json:"seq"`
	Keys   []string `json:"keys,omitempty"`
	Clear  bool     `json:"clear,omitempty"`
	Traces string   `json:"traces,omitempty"`
}

// EjectLog is the append-only, bounded-retention eject stream. Sequences
// are dense and start at 1, like every cursor-addressed log here; the
// epoch, drawn at random per log, tells a consumer that the sequences it
// holds a cursor into belong to a log that no longer exists.
type EjectLog struct {
	epoch   int64
	mu      sync.Mutex
	recs    []EjectRecord
	first   int64 // seq of recs[0]; == next when empty
	next    int64
	retain  int
	changed chan struct{}
}

// NewEjectLog creates a log retaining up to retain records
// (DefaultEjectRetain when <= 0).
func NewEjectLog(retain int) *EjectLog {
	if retain <= 0 {
		retain = DefaultEjectRetain
	}
	epoch := rand.Int64()
	for epoch == 0 { // 0 is a consumer's "no epoch seen yet"
		epoch = rand.Int64()
	}
	return &EjectLog{epoch: epoch, first: 1, next: 1, retain: retain, changed: make(chan struct{})}
}

// Append adds an eject batch and returns its sequence.
func (l *EjectLog) Append(keys []string) int64 {
	return l.append(EjectRecord{Keys: append([]string(nil), keys...)})
}

// AppendClear adds a whole-cache clear record.
func (l *EjectLog) AppendClear() int64 {
	return l.append(EjectRecord{Clear: true})
}

func (l *EjectLog) append(rec EjectRecord) int64 {
	l.mu.Lock()
	rec.Seq = l.next
	l.next++
	l.recs = append(l.recs, rec)
	if drop := len(l.recs) - l.retain; drop > 0 {
		l.recs = append(l.recs[:0:0], l.recs[drop:]...)
		l.first += int64(drop)
	}
	ch := l.changed
	l.changed = make(chan struct{})
	l.mu.Unlock()
	close(ch)
	return rec.Seq
}

// Since reads all records with seq >= cursor — the feed.Pull shape:
// records, whether records the caller wanted were already discarded, the
// cursor to resume from, and the oldest retained sequence.
func (l *EjectLog) Since(cursor int64) (recs []EjectRecord, truncated bool, next, first int64) {
	if cursor < 1 {
		cursor = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < l.first {
		truncated = true
		cursor = l.first
	}
	if off := cursor - l.first; off < int64(len(l.recs)) {
		recs = append([]EjectRecord(nil), l.recs[off:]...)
	}
	return recs, truncated, l.next, l.first
}

// Changed returns a channel closed on the next append. Obtain it before
// reading Since, re-obtain after every wakeup.
func (l *EjectLog) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}

// NextSeq returns the sequence the next append will get — the stream head,
// which a caught-up consumer's cursor equals.
func (l *EjectLog) NextSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// streamPage is the stream handler's JSON shape, mirroring the log
// exporter's pages: records plus resume/truncation context and the log's
// epoch.
type streamPage struct {
	Records   []EjectRecord `json:"records"`
	Truncated bool          `json:"truncated"`
	Next      int64         `json:"next"`
	First     int64         `json:"first"`
	Epoch     int64         `json:"epoch"`
}

// Handler serves the stream over HTTP: GET ?cursor=N&wait=DUR returns all
// records at or after the cursor, long-polling up to wait (capped at
// DefaultStreamMaxWait) when the log has nothing new — the SUBSCRIBE-style
// edge each webcached consumes the invalidator through.
func (l *EjectLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		cursor := int64(1)
		if v := r.URL.Query().Get("cursor"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad cursor", http.StatusBadRequest)
				return
			}
			cursor = n
		}
		var wait time.Duration
		if v := r.URL.Query().Get("wait"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad wait", http.StatusBadRequest)
				return
			}
			if d > DefaultStreamMaxWait {
				d = DefaultStreamMaxWait
			}
			wait = d
		}
		recs, trunc, next, first := l.Since(cursor)
		if len(recs) == 0 && !trunc && wait > 0 {
			deadline := time.NewTimer(wait)
			defer deadline.Stop()
		poll:
			for {
				// Channel before re-read, so an append racing the read either
				// lands in the read or wakes us — never lost.
				ch := l.Changed()
				recs, trunc, next, first = l.Since(cursor)
				if len(recs) > 0 || trunc {
					break
				}
				select {
				case <-ch:
				case <-deadline.C:
					break poll
				case <-r.Context().Done():
					return
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(streamPage{Records: recs, Truncated: trunc, Next: next, First: first, Epoch: l.epoch})
	})
}

// StreamEjector adapts the log to the invalidator's Ejector, TracedEjector
// and BulkEjector shapes: ejects are appended to the stream for the cache
// nodes to consume. Appends cannot fail, so the invalidator's
// retry/breaker machinery never triggers on this edge; delivery failures
// become consumer lag instead.
type StreamEjector struct {
	Log *EjectLog
}

// Eject implements the invalidator's Ejector.
func (e StreamEjector) Eject(keys []string) error { return e.EjectTraced(keys, nil) }

// EjectTraced implements the invalidator's TracedEjector: the batch's
// distinct trace contexts, in key order, ride the record's Traces field.
func (e StreamEjector) EjectTraced(keys []string, ctxs map[string]trace.Context) error {
	if len(keys) == 0 {
		return nil
	}
	var list []trace.Context
	seen := make(map[int64]bool, len(ctxs))
	for _, k := range keys {
		if ctx, ok := ctxs[k]; ok && ctx.Valid() && !seen[ctx.Trace] {
			seen[ctx.Trace] = true
			list = append(list, ctx)
		}
	}
	e.Log.append(EjectRecord{Keys: append([]string(nil), keys...), Traces: trace.FormatContexts(list)})
	return nil
}

// EjectAll implements the invalidator's BulkEjector: replicas must see the
// conservative clear too, so it rides the stream as a record.
func (e StreamEjector) EjectAll() error {
	e.Log.AppendClear()
	return nil
}

// Consumer tails an eject stream endpoint over HTTP with cursor resume:
// Run long-polls, applies each record through Apply/Clear, and advances
// the cursor only after applying — so a consumer stopped and restarted at
// its cursor misses nothing. A truncated response (the log dropped records
// we had not seen) triggers Clear: with ejects lost, clearing everything
// is the only way back to freshness. So does a page from a different log
// than the cursor was taken in — a new epoch, or a head below the cursor,
// as when the invalidator restarted: the consumer clears once and re-reads
// the new log from its oldest record.
type Consumer struct {
	// URL is the stream endpoint (EjectLog.Handler's mount).
	URL string
	// Client performs the long polls; its timeout must exceed Wait.
	// httpx.Default (10s) when nil.
	Client *http.Client
	// Apply invalidates a batch of keys in the local cache (required);
	// traces is the record's Traces field.
	Apply func(keys []string, traces string)
	// Clear flushes the local cache — truncation recovery (required).
	Clear func()
	// Wait is the server-side long-poll wait per request (default 5s).
	Wait time.Duration
	// OnError, when set, observes transport/decode failures (the consumer
	// itself just retries).
	OnError func(error)

	cursor  atomic.Int64
	applied atomic.Int64
	cleared atomic.Int64
	epoch   int64 // the log the cursor belongs to; 0 until the first page
}

// Cursor returns the resume cursor: the sequence after the last applied
// record.
func (c *Consumer) Cursor() int64 {
	if v := c.cursor.Load(); v > 0 {
		return v
	}
	return 1
}

// SetCursor positions the consumer before Run — a rejoining node hands
// back the cursor it saved when it dropped.
func (c *Consumer) SetCursor(v int64) { c.cursor.Store(v) }

// Applied returns how many key-batch records were applied; Cleared how
// many clears (including truncation recoveries) ran.
func (c *Consumer) Applied() int64 { return c.applied.Load() }

// Cleared returns how many whole-cache clears the consumer performed.
func (c *Consumer) Cleared() int64 { return c.cleared.Load() }

// retryEvery is the consumer's constant retry cadence: one refused dial per
// interval costs next to nothing, and a backoff grown during an outage
// would leave ejected pages served for its length after the producer is
// back.
const retryEvery = 250 * time.Millisecond

// Run tails the stream until stop closes. A failed poll is retried every
// retryEvery from the same cursor, however long the producer stays away,
// so a restarted producer's clear and ejects land within one retry of its
// return. A long poll in flight when stop closes is aborted immediately
// rather than riding out its wait.
func (c *Consumer) Run(stop <-chan struct{}) {
	wait := c.Wait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-stop
		cancel()
	}()
	for {
		select {
		case <-stop:
			return
		default:
		}
		page, err := c.fetch(ctx, wait)
		if err != nil {
			if c.OnError != nil {
				c.OnError(err)
			}
			select {
			case <-time.After(retryEvery):
			case <-stop:
				return
			}
			continue
		}
		if (page.Epoch != 0 && c.epoch != 0 && page.Epoch != c.epoch) || page.Next < c.Cursor() {
			// The cursor indexes a log that is gone: whatever it lost in
			// between cannot be replayed, so clear and start over at the
			// new log's oldest record.
			c.epoch = page.Epoch
			c.Clear()
			c.cleared.Add(1)
			c.cursor.Store(page.First)
			continue
		}
		c.epoch = page.Epoch
		if page.Truncated {
			c.Clear()
			c.cleared.Add(1)
		}
		for _, rec := range page.Records {
			if rec.Clear {
				c.Clear()
				c.cleared.Add(1)
			} else if len(rec.Keys) > 0 {
				c.Apply(rec.Keys, rec.Traces)
				c.applied.Add(1)
			}
		}
		if page.Next > c.Cursor() {
			c.cursor.Store(page.Next)
		}
	}
}

func (c *Consumer) fetch(ctx context.Context, wait time.Duration) (streamPage, error) {
	var page streamPage
	url := fmt.Sprintf("%s?cursor=%d&wait=%s", c.URL, c.Cursor(), wait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return page, err
	}
	resp, err := httpx.Client(c.Client).Do(req)
	if err != nil {
		return page, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("cluster: eject stream: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return page, fmt.Errorf("cluster: eject stream: %w", err)
	}
	return page, nil
}
