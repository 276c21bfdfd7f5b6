package feed

import (
	"sync"
	"testing"
	"time"
)

// testLog is a minimal cursor-addressed log implementing the Pull/Changed
// contract the hub expects, mirroring the semantics of engine.UpdateLog.
type testLog struct {
	mu      sync.Mutex
	recs    []int
	first   int64
	next    int64
	changed chan struct{}
}

func newTestLog() *testLog {
	return &testLog{first: 1, next: 1, changed: make(chan struct{})}
}

func (l *testLog) Append(vs ...int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, vs...)
	l.next += int64(len(vs))
	close(l.changed)
	l.changed = make(chan struct{})
}

// Trim discards the oldest n records, as a bounded log would.
func (l *testLog) Trim(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.recs) {
		n = len(l.recs)
	}
	l.recs = l.recs[n:]
	l.first += int64(n)
}

func (l *testLog) Pull(cursor int64) ([]int, bool, int64, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < 1 {
		cursor = 1
	}
	truncated := cursor < l.first
	start := cursor - l.first
	if start < 0 {
		start = 0
	}
	if start >= int64(len(l.recs)) {
		return nil, truncated, l.next, l.first
	}
	out := make([]int, int64(len(l.recs))-start)
	copy(out, l.recs[start:])
	return out, truncated, l.next, l.first
}

func (l *testLog) Changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed
}

func recvBatch[T any](t *testing.T, sub *Subscription[T]) Batch[T] {
	t.Helper()
	select {
	case b, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription channel closed early")
		}
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a batch")
	}
	panic("unreachable")
}

func TestSubscribeDeliversAppends(t *testing.T) {
	l := newTestLog()
	h := NewHub(l.Pull, l.Changed)
	sub := h.Subscribe(1, 4)
	defer sub.Close()

	l.Append(10, 20)
	b := recvBatch(t, sub)
	if len(b.Recs) != 2 || b.Recs[0] != 10 || b.Recs[1] != 20 {
		t.Fatalf("batch recs = %v", b.Recs)
	}
	if b.Next != 3 || b.Truncated {
		t.Fatalf("batch next=%d truncated=%v", b.Next, b.Truncated)
	}

	// A second append wakes the blocked pump.
	l.Append(30)
	b = recvBatch(t, sub)
	if len(b.Recs) != 1 || b.Recs[0] != 30 || b.Next != 4 {
		t.Fatalf("second batch = %+v", b)
	}
}

func TestSubscribeResumesFromCursor(t *testing.T) {
	l := newTestLog()
	l.Append(1, 2, 3, 4, 5)
	h := NewHub(l.Pull, l.Changed)

	sub := h.Subscribe(3, 4)
	b := recvBatch(t, sub)
	if len(b.Recs) != 3 || b.Recs[0] != 3 {
		t.Fatalf("resume batch = %v", b.Recs)
	}
	sub.Close()

	// Resuming a replacement subscription at the delivered Next re-delivers
	// nothing and skips nothing.
	sub2 := h.Subscribe(b.Next, 4)
	defer sub2.Close()
	select {
	case got := <-sub2.C:
		t.Fatalf("unexpected batch at head: %+v", got)
	case <-time.After(20 * time.Millisecond):
	}
	l.Append(6)
	b2 := recvBatch(t, sub2)
	if len(b2.Recs) != 1 || b2.Recs[0] != 6 {
		t.Fatalf("post-resume batch = %v", b2.Recs)
	}
}

func TestTruncationSignal(t *testing.T) {
	l := newTestLog()
	l.Append(1, 2, 3, 4)
	l.Trim(2) // records 1,2 gone; first retained seq is 3
	h := NewHub(l.Pull, l.Changed)
	sub := h.Subscribe(1, 4)
	defer sub.Close()

	b := recvBatch(t, sub)
	if !b.Truncated {
		t.Fatal("missing truncation signal")
	}
	if b.FirstSeq != 3 {
		t.Fatalf("FirstSeq = %d, want 3", b.FirstSeq)
	}
	if len(b.Recs) != 2 || b.Recs[0] != 3 {
		t.Fatalf("truncated batch recs = %v", b.Recs)
	}

	// Truncation is reported once; the stream continues cleanly after.
	l.Append(5)
	b = recvBatch(t, sub)
	if b.Truncated {
		t.Fatal("truncation signal repeated on a clean batch")
	}
}

func TestFanOut(t *testing.T) {
	l := newTestLog()
	h := NewHub(l.Pull, l.Changed)
	a := h.Subscribe(1, 4)
	b := h.Subscribe(1, 4)
	defer a.Close()
	defer b.Close()

	l.Append(7, 8)
	ba, bb := recvBatch(t, a), recvBatch(t, b)
	if len(ba.Recs) != 2 || len(bb.Recs) != 2 {
		t.Fatalf("fan-out batches: %v / %v", ba.Recs, bb.Recs)
	}
	if st := h.Stats(); st.Subscribers != 2 || st.Records != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackpressureBoundsBuffering(t *testing.T) {
	l := newTestLog()
	h := NewHub(l.Pull, l.Changed)
	h.MaxBatch = 1
	sub := h.Subscribe(1, 2) // room for 2 one-record batches + 1 in the pump

	for i := 0; i < 100; i++ {
		l.Append(i)
	}
	// The pump must stall rather than buffer the whole backlog.
	time.Sleep(50 * time.Millisecond)
	if st := h.Stats(); st.Batches > 4 {
		t.Fatalf("pump ran ahead of the consumer: %d batches delivered", st.Batches)
	}
	// Draining releases the backlog in order, exactly once.
	next := 0
	deadline := time.Now().Add(5 * time.Second)
	for next < 100 && time.Now().Before(deadline) {
		b := recvBatch(t, sub)
		for _, r := range b.Recs {
			if r != next {
				t.Fatalf("record %d out of order (want %d)", r, next)
			}
			next++
		}
	}
	if next != 100 {
		t.Fatalf("drained %d of 100 records", next)
	}
	sub.Close()
}

func TestCloseStopsPumpAndClosesChannel(t *testing.T) {
	l := newTestLog()
	h := NewHub(l.Pull, l.Changed)
	sub := h.Subscribe(1, 4)
	sub.Close()
	sub.Close() // idempotent
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("unexpected batch after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after Close")
	}
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscriber leaked: %+v", st)
	}
}

func TestChunkingSplitsLargeBacklog(t *testing.T) {
	l := newTestLog()
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = i
	}
	l.Append(vals...)
	h := NewHub(l.Pull, l.Changed)
	h.MaxBatch = 3
	sub := h.Subscribe(1, 8)
	defer sub.Close()

	var got []int
	var next int64
	for len(got) < 10 {
		b := recvBatch(t, sub)
		if len(b.Recs) > 3 {
			t.Fatalf("chunk too large: %d", len(b.Recs))
		}
		got = append(got, b.Recs...)
		// Each chunk's Next must be exactly one past its last record:
		// record value i lives at sequence i+1, so Next == len(got)+1.
		if b.Next != int64(len(got))+1 {
			t.Fatalf("chunk Next = %d after %d records", b.Next, len(got))
		}
		next = b.Next
	}
	if next != 11 {
		t.Fatalf("final cursor = %d, want 11", next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("record %d = %d", i, v)
		}
	}
}
