package wire

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestLogReadersRewindOnRestartedServer: a wire.Server restarted on the same
// address over a fresh database begins a new update log. Both log readers —
// the SUBSCRIBE_LOG feed and a LogSince puller — must report the loss once
// and then deliver the new log from its first record, whether the new head
// is below their cursor (only the head tells) or past it (only the epoch
// tells).
func TestLogReadersRewindOnRestartedServer(t *testing.T) {
	for _, seeded := range []int{0, 8} {
		t.Run(fmt.Sprintf("seeded=%d", seeded), func(t *testing.T) {
			newDB := func(rows int) *engine.Database {
				db := engine.NewDatabase()
				if _, err := db.ExecScript(`CREATE TABLE kv (k TEXT PRIMARY KEY, v INT);`); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					if _, err := db.ExecSQL(fmt.Sprintf(`INSERT INTO kv VALUES ('old%d', %d)`, i, i)); err != nil {
						t.Fatal(err)
					}
				}
				return db
			}
			s1 := NewServer(newDB(5))
			s1.HeartbeatInterval = 25 * time.Millisecond
			addr, err := s1.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fc, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			fc.BackoffBase, fc.MaxBackoff = time.Millisecond, 5*time.Millisecond
			f := NewLogFeed(fc, 1, 0)
			defer f.Close()
			_, feedCursor := pullAll(t, f, 1, 5)
			pc, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			if _, _, pullCursor, err := pc.LogSince(1); err != nil || pullCursor != 6 {
				t.Fatalf("LogSince before the restart: next=%d err=%v", pullCursor, err)
			}

			s1.Close()
			s2 := NewServer(newDB(seeded))
			s2.HeartbeatInterval = 25 * time.Millisecond
			if _, err := s2.Listen(addr); err != nil {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			defer s2.Close()
			if _, err := s2.DB.ExecSQL(`INSERT INTO kv VALUES ('new', 1)`); err != nil {
				t.Fatal(err)
			}
			want := int64(seeded + 1) // LSNs of the new log: 1..want

			// The feed: records from the new log's LSN 1 on, one truncation.
			var got []engine.UpdateRecord
			truncs := 0
			deadline := time.Now().Add(5 * time.Second)
			for int64(len(got)) < want && time.Now().Before(deadline) {
				recs, trunc, next, err := f.PullSince(feedCursor)
				if err != nil {
					t.Fatal(err)
				}
				if trunc {
					truncs++
				}
				got = append(got, recs...)
				feedCursor = next
				time.Sleep(time.Millisecond)
			}
			if int64(len(got)) != want || truncs != 1 {
				t.Fatalf("feed after the restart: %d of %d records, %d truncations (want 1)", len(got), want, truncs)
			}
			for i, r := range got {
				if r.LSN != int64(i+1) {
					t.Fatalf("feed record %d has LSN %d", i, r.LSN)
				}
			}
			if last := got[len(got)-1].Row[0]; last.String() != "new" {
				t.Fatalf("last record row %v, want the new commit", got[len(got)-1].Row)
			}

			// The puller: one truncated empty read that points at LSN 1,
			// then the new log.
			recs, trunc, next, err := pc.LogSince(6)
			if err != nil || !trunc || len(recs) != 0 || next != 1 {
				t.Fatalf("LogSince(6) after the restart: %d recs trunc=%v next=%d err=%v", len(recs), trunc, next, err)
			}
			recs, trunc, next, err = pc.LogSince(next)
			if err != nil || trunc || int64(len(recs)) != want || next != want+1 {
				t.Fatalf("LogSince(1) after the restart: %d recs trunc=%v next=%d err=%v", len(recs), trunc, next, err)
			}
		})
	}
}
