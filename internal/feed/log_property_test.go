package feed_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/appserver"
	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/feed"
)

// TestLogProperties checks the cursor contract of every log built on
// feed.Log — the update, request, query and eject logs — under seeded
// random appends, skips, reads and capacities:
//
//   - Since returns a contiguous suffix ending at Next-1;
//   - Truncated is set exactly when the cursor is below First;
//   - a cursor above the head snaps next back to the head;
//   - exactly the newest capacity records are retained;
//   - a reader that took Changed before Since never misses an append.
func TestLogProperties(t *testing.T) {
	t.Run("update", func(t *testing.T) {
		checkLog(t, func(c int) *feed.Log[engine.UpdateRecord] { return engine.NewUpdateLog(c).Log },
			func(i int) engine.UpdateRecord { return engine.UpdateRecord{Table: fmt.Sprint(i)} },
			func(r engine.UpdateRecord) (int64, string) { return r.LSN, r.Table })
	})
	t.Run("request", func(t *testing.T) {
		checkLog(t, func(c int) *feed.Log[appserver.RequestLogEntry] { return appserver.NewRequestLog(c).Log },
			func(i int) appserver.RequestLogEntry { return appserver.RequestLogEntry{CacheKey: fmt.Sprint(i)} },
			func(e appserver.RequestLogEntry) (int64, string) { return e.ID, e.CacheKey })
	})
	t.Run("query", func(t *testing.T) {
		checkLog(t, func(c int) *feed.Log[driver.QueryLogEntry] { return driver.NewQueryLog(c).Log },
			func(i int) driver.QueryLogEntry { return driver.QueryLogEntry{SQL: fmt.Sprint(i)} },
			func(e driver.QueryLogEntry) (int64, string) { return e.ID, e.SQL })
	})
	t.Run("eject", func(t *testing.T) {
		checkLog(t, func(c int) *feed.Log[cluster.EjectRecord] { return cluster.NewEjectLog(c).Log },
			func(i int) cluster.EjectRecord { return cluster.EjectRecord{Keys: []string{fmt.Sprint(i)}} },
			func(r cluster.EjectRecord) (int64, string) { return r.Seq, r.Keys[0] })
	})
}

// checkLog runs the properties against one instantiation. newLog builds a
// log of the given capacity, rec makes the i-th appended record, and id
// reads back a record's sequence and the label rec gave it.
func checkLog[T any](t *testing.T, newLog func(capacity int) *feed.Log[T], rec func(i int) T, id func(T) (int64, string)) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		capacity := 1 + rng.IntN(20)
		l := newLog(capacity)
		// The model: sequence numbers first..next-1 are retained, and
		// label[seq] is what was appended under seq.
		first, next := int64(1), int64(1)
		label := map[int64]string{}
		for op := 0; op < 300; op++ {
			switch r := rng.IntN(100); {
			case r < 60:
				ch := l.Changed()
				seq := l.Append(rec(op))
				select {
				case <-ch:
				default:
					t.Fatalf("seed %d: Changed taken before an append stayed open", seed)
				}
				if seq != next {
					t.Fatalf("seed %d: append got seq %d, want %d", seed, seq, next)
				}
				label[seq] = fmt.Sprint(op)
				next++
				first = max(first, next-int64(capacity))
			case r < 63:
				l.Skip()
				next++
				first = next
			default:
				cursor := rng.Int64N(next+5) - 1
				recs, trunc, gotNext, gotFirst := l.SinceNext(cursor)
				if gotNext != next || gotFirst != first {
					t.Fatalf("seed %d: SinceNext(%d) next=%d first=%d, want %d %d", seed, cursor, gotNext, gotFirst, next, first)
				}
				if trunc != (max(cursor, 1) < first) {
					t.Fatalf("seed %d: SinceNext(%d) truncated=%v with first=%d", seed, cursor, trunc, first)
				}
				from := min(max(cursor, 1, first), next)
				if int64(len(recs)) != next-from {
					t.Fatalf("seed %d: SinceNext(%d) returned %d records, want %d..%d", seed, cursor, len(recs), from, next-1)
				}
				for i, r := range recs {
					seq, lab := id(r)
					if seq != from+int64(i) || lab != label[seq] {
						t.Fatalf("seed %d: SinceNext(%d)[%d] = seq %d %q, want seq %d %q", seed, cursor, i, seq, lab, from+int64(i), label[from+int64(i)])
					}
				}
			}
			if l.Next() != next || l.First() != first || l.Len() != int(next-first) {
				t.Fatalf("seed %d: Next/First/Len = %d/%d/%d, want %d/%d/%d", seed, l.Next(), l.First(), l.Len(), next, first, next-first)
			}
		}
		checkWakeups(t, l, rec, id, rng)
	}
}

// checkWakeups races a reader against a writer: the reader takes Changed,
// then reads, and parks only when the read is empty. A lost wakeup parks
// it for good; a read past a trim must say so.
func checkWakeups[T any](t *testing.T, l *feed.Log[T], rec func(i int) T, id func(T) (int64, string), rng *rand.Rand) {
	n := 200 + rng.IntN(200)
	end := l.Next() + int64(n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Append(rec(i))
		}
	}()
	cursor := l.Next()
	for cursor < end {
		ch := l.Changed()
		recs, trunc, next, first := l.SinceNext(cursor)
		if trunc != (cursor < first) {
			t.Fatalf("read at %d: truncated=%v with first=%d", cursor, trunc, first)
		}
		for i, r := range recs {
			if seq, _ := id(r); seq != max(cursor, first)+int64(i) {
				t.Fatalf("read at %d: record %d has seq %d", cursor, i, seq)
			}
		}
		cursor = next
		if len(recs) == 0 && cursor < end {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("reader at %d missed an append (head %d)", cursor, l.Next())
			}
		}
	}
	wg.Wait()
}
