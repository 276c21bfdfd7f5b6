// Package feed is a small, dependency-free abstraction for resumable,
// cursor-addressed event streams. A Hub turns an append-only log addressed
// by a monotonically increasing cursor (LSN or entry ID) with bounded
// retention — its incremental read operation plus its change notification —
// into a fan-out Feed: subscribers name the cursor they want to resume from
// and receive batches as records arrive, blocking on arrival instead of
// re-polling, with truncation surfaced in-band when the source discarded
// records the subscriber had not yet read. Its one source is the database
// update log, which the wire server streams to SUBSCRIBE_LOG clients; the
// request and query logs share the invalidator's process and are read in
// place.
//
// Delivery is pull-through-push: each subscription owns a pump goroutine
// that reads the source incrementally and sends batches on a bounded
// channel. Backpressure is structural — when the subscriber stops draining,
// the pump blocks on the channel and simply stops reading, so a slow
// subscriber costs nothing but its own lag; if it lags past the source's
// retention window the next batch carries the truncation signal, exactly as
// a slow poller would have observed. Because the cursor is the only
// subscription state, a subscription can be closed and reopened at its last
// cursor with no loss and no duplication — the heal semantics the fault
// layer (internal/faults) assumes for every invalidation edge.
package feed

import (
	"sync"
	"sync/atomic"
)

// Batch is one delivery from a subscription: records in sequence order plus
// the context needed to resume or to recover from truncation.
type Batch[T any] struct {
	// Recs are the records, in source order.
	Recs []T
	// Next is the cursor to resume from after consuming this batch.
	Next int64
	// FirstSeq is the oldest sequence number the source still retained when
	// this batch was read — the truncation context: everything before it is
	// gone for good.
	FirstSeq int64
	// Truncated reports that records at or after the subscription's cursor
	// were discarded before this batch was read: the subscriber missed
	// records and must fall back to its conservative recovery.
	Truncated bool
}

// Pull reads the source incrementally: all records with sequence >= cursor,
// whether records at or after cursor were already discarded, the cursor to
// read from next, and the oldest retained sequence. Implementations must be
// safe for concurrent use and must return recs/next consistently (next is
// the sequence one past the last returned record, observed atomically with
// the read).
type Pull[T any] func(cursor int64) (recs []T, truncated bool, next int64, firstSeq int64)

// Changed returns a channel that becomes ready (is closed) when records may
// have been appended since the channel was obtained. Callers must re-obtain
// the channel after each wakeup; a Pull issued after obtaining the channel
// observes every record whose append closed an earlier channel.
type Changed func() <-chan struct{}

// DefaultMaxBatch bounds records per delivered batch when Hub.MaxBatch is
// unset, so one huge backlog drain cannot produce an unbounded frame.
const DefaultMaxBatch = 1024

// DefaultBuffer is the per-subscription batch-channel capacity when
// Subscribe is given a non-positive buffer.
const DefaultBuffer = 4

// Hub fans a cursor-addressed source out to any number of subscribers. The
// zero Hub is not usable; construct with NewHub.
type Hub[T any] struct {
	pull    Pull[T]
	changed Changed
	// MaxBatch bounds records per batch (DefaultMaxBatch when 0). Set before
	// the first Subscribe.
	MaxBatch int

	mu   sync.Mutex
	subs map[*Subscription[T]]struct{}

	// stats
	batches  atomic.Int64
	records  atomic.Int64
	truncs   atomic.Int64
	maxLag   atomic.Int64 // high-water subscriber lag, in records
	sourceAt atomic.Int64 // last `next` any pump observed (source head)
}

// NewHub builds a hub over a pull source and its change notification.
func NewHub[T any](pull Pull[T], changed Changed) *Hub[T] {
	return &Hub[T]{pull: pull, changed: changed, subs: make(map[*Subscription[T]]struct{})}
}

// Stats is a point-in-time summary of a hub's activity, for metrics export.
type Stats struct {
	Subscribers int   // live subscriptions
	Batches     int64 // batches delivered
	Records     int64 // records delivered
	Truncations int64 // batches that carried the truncation signal
	MaxLag      int64 // high-water records between source head and a cursor
	Buffered    int   // batches sitting in subscriber channels right now
}

// Stats snapshots the hub.
func (h *Hub[T]) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Stats{
		Subscribers: len(h.subs),
		Batches:     h.batches.Load(),
		Records:     h.records.Load(),
		Truncations: h.truncs.Load(),
		MaxLag:      h.maxLag.Load(),
	}
	for s := range h.subs {
		st.Buffered += len(s.ch)
	}
	return st
}

// Lag returns the current worst-case subscriber lag in records: the distance
// between the source head and the slowest live cursor (0 with no
// subscribers).
func (h *Hub[T]) Lag() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	head := h.sourceAt.Load()
	var lag int64
	for s := range h.subs {
		if d := head - s.cursor.Load(); d > lag {
			lag = d
		}
	}
	return lag
}

// Subscribe starts a subscription at cursor. buffer bounds how many batches
// may queue between the pump and the consumer (DefaultBuffer when <= 0);
// when the buffer is full the pump stops reading the source until the
// consumer drains — backpressure, not loss. Close the subscription to stop
// the pump; the batch channel is closed once the pump exits.
func (h *Hub[T]) Subscribe(cursor int64, buffer int) *Subscription[T] {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	if cursor < 1 {
		cursor = 1
	}
	s := &Subscription[T]{
		hub:     h,
		ch:      make(chan Batch[T], buffer),
		closeCh: make(chan struct{}),
	}
	s.cursor.Store(cursor)
	s.C = s.ch
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	go s.pump()
	return s
}

// Subscription is one consumer's view of a hub: read batches from C, resume
// later from Cursor(), stop with Close.
type Subscription[T any] struct {
	// C delivers batches in order. It is closed after Close (or hub
	// teardown); a closed C with no pending batches means the stream ended.
	C <-chan Batch[T]

	hub     *Hub[T]
	ch      chan Batch[T]
	closeCh chan struct{}
	closed  sync.Once
	cursor  atomic.Int64
}

// Cursor returns the next sequence the pump will read — after the stream
// ends, the cursor to hand a replacement subscription so no record is lost
// or re-delivered. Batches already sitting in C are past this cursor;
// consumers resuming elsewhere should prefer the Next of the last batch
// they actually consumed.
func (s *Subscription[T]) Cursor() int64 { return s.cursor.Load() }

// Close stops the pump. Idempotent. Pending batches already in C remain
// readable; C is closed once the pump notices.
func (s *Subscription[T]) Close() {
	s.closed.Do(func() { close(s.closeCh) })
}

// pump moves records from the source into the batch channel until closed.
func (s *Subscription[T]) pump() {
	h := s.hub
	maxBatch := h.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	defer func() {
		h.mu.Lock()
		delete(h.subs, s)
		h.mu.Unlock()
		close(s.ch)
	}()
	for {
		// Obtain the change channel BEFORE reading: an append racing with
		// the read either lands in this read or closes ch — never lost.
		ch := h.changed()
		cursor := s.cursor.Load()
		recs, truncated, next, first := h.pull(cursor)
		h.sourceAt.Store(next)
		if lag := next - cursor; lag > h.maxLag.Load() {
			h.maxLag.Store(lag)
		}
		if len(recs) == 0 && !truncated {
			select {
			case <-ch:
				continue
			case <-s.closeCh:
				return
			}
		}
		// Deliver, chunked so one backlog drain cannot produce an unbounded
		// batch. Only the first chunk can carry the truncation flag: chunks
		// after it start at a cursor the source demonstrably retains.
		for len(recs) > 0 || truncated {
			n := len(recs)
			if n > maxBatch {
				n = maxBatch
			}
			chunk := Batch[T]{Recs: recs[:n], FirstSeq: first, Truncated: truncated}
			recs = recs[n:]
			// Sequences are dense (cursor-addressed logs number records
			// consecutively), so the resume cursor of a non-final chunk is
			// just next minus what remains to deliver.
			chunk.Next = next - int64(len(recs))
			truncated = false
			select {
			case s.ch <- chunk:
				s.cursor.Store(chunk.Next)
				h.batches.Add(1)
				h.records.Add(int64(len(chunk.Recs)))
				if chunk.Truncated {
					h.truncs.Add(1)
				}
			case <-s.closeCh:
				return
			}
		}
	}
}
