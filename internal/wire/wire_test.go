package wire

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`
		CREATE TABLE kv (k TEXT PRIMARY KEY, v INT);
		INSERT INTO kv VALUES ('a', 1), ('b', 2);
	`); err != nil {
		t.Fatal(err)
	}
	s := NewServer(db)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestQueryOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT v FROM kv WHERE k = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != mem.Int(1) {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestQueryErrorOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Query("SELECT * FROM nope"); err == nil {
		t.Fatal("want error")
	}
	// Connection survives an error response.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestValueRoundtripAllKinds(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	res, err := c.Query("SELECT 1, 2.5, 'str', TRUE, NULL")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	want := mem.Row{mem.Int(1), mem.Float(2.5), mem.Str("str"), mem.Bool(true), mem.Null()}
	for i, w := range want {
		if r[i] != w {
			t.Errorf("value %d: got %v, want %v", i, r[i], w)
		}
	}
}

func TestDMLAndLogSince(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	res, err := c.Query("UPDATE kv SET v = 10 WHERE k = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected: %d", res.RowsAffected)
	}
	// Initial inserts (2) + update (2 records).
	recs, trunc, next, err := c.LogSince(1)
	if err != nil {
		t.Fatal(err)
	}
	if trunc || len(recs) != 4 || next != 5 {
		t.Fatalf("recs=%d trunc=%v next=%d", len(recs), trunc, next)
	}
	if recs[2].Op != engine.OpDelete || recs[3].Op != engine.OpInsert {
		t.Fatalf("update decomposition: %v %v", recs[2].Op, recs[3].Op)
	}
	if recs[3].Row[1] != mem.Int(10) {
		t.Fatalf("new image: %v", recs[3].Row)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				if _, err := c.Query("SELECT COUNT(*) FROM kv"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueryDelayHook(t *testing.T) {
	s, addr := startServer(t)
	s.QueryDelay = func(string) time.Duration { return 30 * time.Millisecond }
	c, _ := Dial(addr)
	defer c.Close()
	start := time.Now()
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay hook not applied: %v", d)
	}
}

func TestServerQueriesCounter(t *testing.T) {
	s, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	before := s.Queries()
	c.Query("SELECT 1")
	c.Query("SELECT 1")
	if got := s.Queries() - before; got != 2 {
		t.Fatalf("queries: %d", got)
	}
}

// TestInstrumentExportsAccessPathCounters: a write that probes an index and
// one that scans both show on the registry, next to the read-side probes.
func TestInstrumentExportsAccessPathCounters(t *testing.T) {
	s, addr := startServer(t)
	reg := obs.NewRegistry()
	s.Instrument(reg, "dbserver")
	c, _ := Dial(addr)
	defer c.Close()
	for _, sql := range []string{
		"SELECT v FROM kv WHERE k = 'a'",
		"UPDATE kv SET v = 3 WHERE k = 'a'",
		"DELETE FROM kv WHERE v > 100",
	} {
		if _, err := c.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	got := reg.Snapshot().Gauges
	for name, want := range map[string]int64{
		"dbserver.index_hash_probes":   2,
		"dbserver.index_range_probes":  0,
		"dbserver.write_probes":        1,
		"dbserver.write_scans":         1,
		"dbserver.write_rows_examined": 3,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %d (registered %v), want %d", name, v, ok, want)
		}
	}
}

func TestCloseUnblocksClients(t *testing.T) {
	s, addr := startServer(t)
	c, _ := Dial(addr)
	s.Close()
	if _, err := c.Query("SELECT 1"); err == nil {
		t.Fatal("query against closed server should fail")
	}
	// Client close after server close is fine.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Double server close is fine.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientClosedErrors(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	c.Close()
	if _, err := c.Query("SELECT 1"); err == nil {
		t.Fatal("want closed error")
	}
}

func TestUnknownOp(t *testing.T) {
	s := NewServer(engine.NewDatabase())
	resp := s.handle(Request{Op: 0xFF}, &connStmts{stmts: map[int64]*engine.PreparedStmt{}})
	if resp.Error == "" {
		t.Fatal("want error for unknown op")
	}
}

// TestEncodeDecodeRecord: an update record survives the codec with its
// time, op, columns, trace context and exotic row values intact.
func TestEncodeDecodeRecord(t *testing.T) {
	rec := engine.UpdateRecord{
		LSN:     7,
		Time:    time.Unix(100, 5),
		Table:   "Car\xff",
		Op:      engine.OpDelete,
		Columns: []string{"a", "b"},
		Row:     exactValues,
		Trace:   -3,
		Span:    77,
	}
	var back engine.UpdateRecord
	r := breader{b: appendRecord(nil, &rec)}
	if err := r.record(&back); err != nil || len(r.b) != 0 {
		t.Fatalf("decode: %v (%d bytes left)", err, len(r.b))
	}
	if back.LSN != rec.LSN || !back.Time.Equal(rec.Time) || back.Table != rec.Table ||
		back.Op != rec.Op || strings.Join(back.Columns, ",") != "a,b" ||
		!sameRow(back.Row, rec.Row) || back.Trace != rec.Trace || back.Span != rec.Span {
		t.Fatalf("roundtrip: %+v", back)
	}
}
