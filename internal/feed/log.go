package feed

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Log is the append-only, bounded, cursor-addressed log every stream in
// this system is built on: the database update log, the request and query
// logs, and the eject stream. Sequences are dense and start at 1; the log
// retains exactly its newest capacity records in a ring that grows on
// demand. A reader keeps only a cursor — the next sequence it wants — and
// learns from Since that it fell behind the retention window; the Epoch,
// drawn at random per log, tells it that its cursor indexes a log that no
// longer exists (a restarted process numbers its new log from 1 again).
type Log[T any] struct {
	epoch    int64
	capacity int
	stamp    func(*T, int64)

	mu      sync.Mutex
	buf     []T // ring; the oldest retained record is buf[head]
	head    int
	changed Changes // closed by the next append
	// next and first mirror the head and the oldest retained sequence
	// atomically (written under mu), so a reader at the head answers
	// without the mutex. first <= next at every instant.
	next  atomic.Int64
	first atomic.Int64

	hubOnce sync.Once
	hub     *Hub[T]
}

// NewLog creates a log retaining the newest capacity records (at least
// one). stamp, when non-nil, runs under the log's lock on every appended
// record with the sequence it is assigned, so the record can carry it.
func NewLog[T any](capacity int, stamp func(rec *T, seq int64)) *Log[T] {
	epoch := rand.Int64()
	for epoch == 0 { // 0 is a reader's "no epoch seen yet"
		epoch = rand.Int64()
	}
	l := &Log[T]{epoch: epoch, capacity: max(capacity, 1), stamp: stamp}
	l.next.Store(1)
	l.first.Store(1)
	return l
}

// Append adds rec, assigning and returning its sequence. At capacity the
// oldest record is discarded.
func (l *Log[T]) Append(rec T) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.next.Load()
	if l.stamp != nil {
		l.stamp(&rec, seq)
	}
	n := int(seq - l.first.Load())
	if n == len(l.buf) {
		if n < l.capacity {
			l.grow(n)
		} else {
			l.head = (l.head + 1) % n
			l.first.Add(1)
			n--
		}
	}
	l.buf[(l.head+n)%len(l.buf)] = rec
	l.next.Store(seq + 1)
	l.changed.Notify()
	return seq
}

// grow doubles the ring (to at most capacity), laying the n retained
// records out from index 0.
func (l *Log[T]) grow(n int) {
	buf := make([]T, min(max(2*len(l.buf), 16), l.capacity))
	m := copy(buf, l.buf[l.head:n])
	copy(buf[m:n], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// Skip discards every retained record and consumes one sequence without a
// record, so every reader's cursor falls below First and its next read
// reports truncation. It is how a copy of a log passes on a loss it
// observed upstream.
func (l *Log[T]) Skip() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf, l.head = nil, 0
	next := l.next.Load() + 1
	l.next.Store(next)
	l.first.Store(next)
	l.changed.Notify()
}

// Since returns a copy of the records with sequence >= cursor, and whether
// records at or after cursor were already discarded (the reader missed
// records and must fall back to its conservative recovery).
func (l *Log[T]) Since(cursor int64) (recs []T, truncated bool) {
	recs, truncated, _, _ = l.SinceNext(cursor)
	return recs, truncated
}

// SinceNext is Since plus the resume cursor and the oldest retained
// sequence, all observed atomically: next is one past the last returned
// record — a reader advancing to it can never skip one — and snaps back to
// the head when cursor is past it. A reader exactly at the head answers on
// an atomic fast path, without the mutex or an allocation.
func (l *Log[T]) SinceNext(cursor int64) (recs []T, truncated bool, next, first int64) {
	cursor = max(cursor, 1)
	// first is loaded before next, so it never exceeds the head this read
	// reports.
	if first := l.first.Load(); cursor == l.next.Load() {
		return nil, false, cursor, first
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	next, first = l.next.Load(), l.first.Load()
	truncated = cursor < first
	cursor = max(cursor, first)
	if cursor >= next {
		return nil, truncated, next, first
	}
	recs = make([]T, next-cursor)
	i := (l.head + int(cursor-first)) % len(l.buf)
	m := copy(recs, l.buf[i:])
	copy(recs[m:], l.buf)
	return recs, truncated, next, first
}

// Changed returns a channel that is closed when a record may have been
// appended since the call. Re-obtain it after every wakeup; a read issued
// after obtaining the channel observes every record whose append closed an
// earlier channel.
func (l *Log[T]) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed.Chan()
}

// Next returns the sequence the next append will receive: the head, which
// a caught-up reader's cursor equals.
func (l *Log[T]) Next() int64 { return l.next.Load() }

// First returns the oldest sequence the log still retains (Next when it
// retains nothing).
func (l *Log[T]) First() int64 { return l.first.Load() }

// Len returns the number of retained records.
func (l *Log[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.next.Load() - l.first.Load())
}

// Epoch returns the log's random non-zero identity.
func (l *Log[T]) Epoch() int64 { return l.epoch }

// Wait blocks a long poll at cursor until the head moves off it — records
// arrived, or the cursor belongs to another log — or until d elapses or
// done closes. It wakes on the append itself; d <= 0 returns at once.
func (l *Log[T]) Wait(done <-chan struct{}, cursor int64, d time.Duration) {
	cursor = max(cursor, 1)
	if d <= 0 || l.Next() != cursor {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		// Channel before re-check, so an append racing the check either
		// moves the head or wakes us — never lost.
		ch := l.Changed()
		if l.Next() != cursor {
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			return
		case <-done:
			return
		}
	}
}

// Hub returns the log's fan-out hub (made on first use).
func (l *Log[T]) Hub() *Hub[T] {
	l.hubOnce.Do(func() { l.hub = NewHub(l.SinceNext, l.Changed) })
	return l.hub
}

// Subscribe opens a hub subscription at cursor (see Hub.Subscribe).
func (l *Log[T]) Subscribe(cursor int64, buffer int) *Subscription[T] {
	return l.Hub().Subscribe(cursor, buffer)
}

// Changes is a close-on-change broadcast: Chan hands out the channel that
// the next Notify closes, made on demand, so changes nobody waits for
// allocate nothing. Its owner's lock guards it.
type Changes struct {
	ch chan struct{}
}

// Chan returns the channel the next Notify closes.
func (c *Changes) Chan() <-chan struct{} {
	if c.ch == nil {
		c.ch = make(chan struct{})
	}
	return c.ch
}

// Notify wakes every holder of the current channel.
func (c *Changes) Notify() {
	if c.ch != nil {
		close(c.ch)
		c.ch = nil
	}
}
