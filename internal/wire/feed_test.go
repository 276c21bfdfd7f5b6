package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// startFeedServer is startServer with a test-tuned heartbeat, set before
// Listen so stream goroutines never race the field write.
func startFeedServer(t *testing.T, hb time.Duration) (*Server, string) {
	t.Helper()
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`CREATE TABLE kv (k TEXT PRIMARY KEY, v INT);`); err != nil {
		t.Fatal(err)
	}
	s := NewServer(db)
	s.HeartbeatInterval = hb
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

// startFakeLogServer runs a raw scripted server: serve is invoked per
// connection with its index and codecs.
func startFakeLogServer(t *testing.T, serve func(i int, conn net.Conn, dec *json.Decoder, enc *json.Encoder)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(i, c, json.NewDecoder(c), json.NewEncoder(c))
		}
	}()
	return ln.Addr().String()
}

// pullAll drains the feed until want records arrive (or the deadline), and
// fails on truncation.
func pullAll(t *testing.T, f *LogFeed, cursor int64, want int) ([]engine.UpdateRecord, int64) {
	t.Helper()
	var got []engine.UpdateRecord
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < want && time.Now().Before(deadline) {
		recs, trunc, next, err := f.PullSince(cursor)
		if err != nil {
			t.Fatalf("PullSince(%d): %v", cursor, err)
		}
		if trunc {
			t.Fatalf("unexpected truncation at cursor %d", cursor)
		}
		got = append(got, recs...)
		cursor = next
		if len(got) < want {
			time.Sleep(time.Millisecond)
		}
	}
	if len(got) != want {
		t.Fatalf("pulled %d of %d records", len(got), want)
	}
	return got, cursor
}

func TestLogFeedStreamsUpdates(t *testing.T) {
	s, addr := startFeedServer(t, 25*time.Millisecond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	f := NewLogFeed(c, 1, 0)
	defer f.Close()

	if _, err := s.DB.ExecSQL(`INSERT INTO kv VALUES ('a', 1)`); err != nil {
		t.Fatal(err)
	}
	got, next := pullAll(t, f, 1, 1)
	if got[0].LSN != 1 || got[0].Table != "kv" {
		t.Fatalf("record = %+v", got[0])
	}
	if next != 2 {
		t.Fatalf("cursor = %d, want 2", next)
	}

	// Changed fires when the stream delivers more. Obtain the channel first:
	// close-and-replace broadcast semantics.
	ch := f.Changed()
	if _, err := s.DB.ExecSQL(`INSERT INTO kv VALUES ('b', 2)`); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("Changed never fired after an insert")
	}
	got, next = pullAll(t, f, next, 1)
	if got[0].LSN != 2 || next != 3 {
		t.Fatalf("second pull: rec=%+v next=%d", got[0], next)
	}

	if s.Subscribes() != 1 {
		t.Fatalf("server subscribes = %d", s.Subscribes())
	}
}

func TestLogFeedBackpressureDrainsInOrder(t *testing.T) {
	s, addr := startFeedServer(t, 25*time.Millisecond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	f := NewLogFeed(c, 1, 2) // tiny buffer: deliver must block, not drop
	defer f.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := s.DB.ExecSQL(fmt.Sprintf(`INSERT INTO kv VALUES ('k%d', %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	got, next := pullAll(t, f, 1, n)
	for i, r := range got {
		if r.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d (dup or skip)", i, r.LSN)
		}
	}
	if next != n+1 {
		t.Fatalf("final cursor = %d", next)
	}
}

// TestLogFeedResubscribesFromCursor drops the stream mid-flight; the feed
// must reopen it and end up having delivered every record exactly once.
func TestLogFeedResubscribesFromCursor(t *testing.T) {
	var mu sync.Mutex
	var cursors []int64
	addr := startFakeLogServer(t, func(i int, conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		defer conn.Close()
		var req Request
		if dec.Decode(&req) != nil || req.Op != OpSubscribeLog {
			return
		}
		mu.Lock()
		cursors = append(cursors, req.LSN)
		mu.Unlock()
		enc.Encode(Response{}) // ack
		if i == 0 {
			// Two records, then the connection dies mid-stream.
			enc.Encode(Response{
				Records: []LogRecord{{LSN: 1, Table: "kv", Op: "INSERT"}, {LSN: 2, Table: "kv", Op: "INSERT"}},
				NextLSN: 3, FirstLSN: 1,
			})
			return
		}
		// Replacement stream: serve from the requested cursor (so a client
		// that resumes correctly gets no duplicates), then stay alive on
		// heartbeats.
		var recs []LogRecord
		for lsn := req.LSN; lsn <= 3; lsn++ {
			recs = append(recs, LogRecord{LSN: lsn, Table: "kv", Op: "INSERT"})
		}
		if len(recs) > 0 {
			enc.Encode(Response{Records: recs, NextLSN: 4, FirstLSN: 1})
		}
		for {
			time.Sleep(20 * time.Millisecond)
			if enc.Encode(Response{}) != nil {
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.BackoffBase = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	f := NewLogFeed(c, 1, 0)
	defer f.Close()

	got, next := pullAll(t, f, 1, 3)
	for i, r := range got {
		if r.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d (re-delivered or skipped across the drop)", i, r.LSN)
		}
	}
	if next != 4 {
		t.Fatalf("final cursor = %d", next)
	}
	if f.Resubscribes() < 1 {
		t.Fatal("resubscribe not counted")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cursors) < 2 {
		t.Fatalf("server saw %d subscribes, want >= 2", len(cursors))
	}
}

// TestLogFeedRetriesErrorFrame: a SUBSCRIBE_LOG answered with an error frame
// is an ordinary stream failure — the feed resubscribes from the same cursor
// after backoff instead of giving up on the stream.
func TestLogFeedRetriesErrorFrame(t *testing.T) {
	addr := startFakeLogServer(t, func(i int, conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		defer conn.Close()
		var req Request
		if dec.Decode(&req) != nil {
			return
		}
		if i == 0 {
			enc.Encode(Response{Error: fmt.Sprintf("wire: unknown op %q", req.Op)})
			return
		}
		enc.Encode(Response{}) // ack
		enc.Encode(Response{Records: []LogRecord{{LSN: req.LSN, Table: "kv", Op: "INSERT"}}, NextLSN: req.LSN + 1, FirstLSN: 1})
		for enc.Encode(Response{}) == nil {
			time.Sleep(20 * time.Millisecond)
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.BackoffBase = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	f := NewLogFeed(c, 1, 0)
	defer f.Close()

	got, next := pullAll(t, f, 1, 1)
	if got[0].LSN != 1 || next != 2 {
		t.Fatalf("record = %+v next = %d", got[0], next)
	}
	if f.Resubscribes() < 1 {
		t.Fatal("error frame did not count as a resubscribe")
	}
}

// TestLogSinceRecomputesTruncationFromFirstLSN is the satellite regression:
// even when a response's Truncated flag is wrong (a reconnect or an
// intermediary lost the per-request context), FirstLSN carries the truncation
// boundary and the client recomputes the flag from it.
func TestLogSinceRecomputesTruncationFromFirstLSN(t *testing.T) {
	addr := startFakeLogServer(t, func(i int, conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		defer conn.Close()
		for {
			var req Request
			if dec.Decode(&req) != nil {
				return
			}
			enc.Encode(Response{
				Records:   []LogRecord{{LSN: 5, Table: "kv", Op: "INSERT"}, {LSN: 6, Table: "kv", Op: "INSERT"}},
				Truncated: false, // wrong: records 2..4 are gone
				NextLSN:   7,
				FirstLSN:  5,
			})
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, trunc, next, err := c.LogSince(2)
	if err != nil {
		t.Fatal(err)
	}
	if !trunc {
		t.Fatal("truncation not recomputed from FirstLSN")
	}
	if next != 7 {
		t.Fatalf("next = %d", next)
	}
	// At or past FirstLSN nothing was missed: no spurious second flush.
	if _, trunc, _, err = c.LogSince(5); err != nil || trunc {
		t.Fatalf("cursor at FirstLSN reported truncation (err=%v)", err)
	}
}

// TestServerCloseEndsActiveStream pins shutdown: Close must not wait on a
// heartbeat tick to tear down an idle stream.
func TestServerCloseEndsActiveStream(t *testing.T) {
	s, addr := startFeedServer(t, time.Hour)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	f := NewLogFeed(c, 1, 0)
	defer f.Close()

	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung on the active stream")
	}
}
