package wire

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
)

func TestPrepareExecOverWire(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumArgs() != 1 {
		t.Fatalf("NumArgs = %d", st.NumArgs())
	}
	for k, want := range map[string]int64{"a": 1, "b": 2} {
		res, err := st.Exec([]mem.Value{mem.Str(k)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != mem.Int(want) {
			t.Fatalf("k=%s: %v", k, res.Rows)
		}
	}
	if srv.Prepares() != 1 || srv.Executes() != 2 {
		t.Fatalf("prepares=%d executes=%d", srv.Prepares(), srv.Executes())
	}
}

func TestPreparedDMLOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	ins, err := c.Prepare("INSERT INTO kv VALUES ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ins.Exec([]mem.Value{mem.Str("c"), mem.Int(3)}); err != nil || res.RowsAffected != 1 {
		t.Fatalf("insert: %+v %v", res, err)
	}
	res, err := c.Query("SELECT v FROM kv WHERE k = 'c'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != mem.Int(3) {
		t.Fatalf("readback: %+v %v", res, err)
	}
}

func TestExecArityErrorOverWire(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	st, err := c.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(nil); err == nil {
		t.Fatal("zero args accepted")
	}
}

func TestCloseStmtReleasesHandle(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	st, err := c.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	id := st.id
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec([]mem.Value{mem.Str("a")}); err == nil {
		t.Fatal("exec after close accepted")
	}
	// The server really dropped the handle: a raw EXECUTE on it errors.
	resp, err := c.roundTrip(Request{Op: OpExecute, StmtID: id})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, ErrUnknownStmt) {
		t.Fatalf("server kept handle: %q", resp.Error)
	}
}

// A connection drop invalidates server-side handles; Exec must notice the
// new connection epoch and re-prepare transparently.
func TestExecAfterReconnectReprepares(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.BackoffBase = time.Millisecond
	defer c.Close()
	st, err := c.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	// Sever the connection as a network fault would, without arming backoff.
	c.mu.Lock()
	c.conn.Close()
	c.conn, c.cc = nil, nil
	c.mu.Unlock()
	res, err := st.Exec([]mem.Value{mem.Str("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != mem.Int(2) {
		t.Fatalf("rows: %v", res.Rows)
	}
	if srv.Prepares() != 2 {
		t.Fatalf("prepares = %d, want 2 (original + transparent re-prepare)", srv.Prepares())
	}
}

// A full server restart exercises the same path end-to-end: the old process's
// handles are gone, the client redials with backoff and re-prepares.
func TestExecAfterServerRestart(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`CREATE TABLE kv (k TEXT, v INT); INSERT INTO kv VALUES ('a', 1);`); err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(db)
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.BackoffBase = time.Millisecond
	c.MaxBackoff = 10 * time.Millisecond
	defer c.Close()
	st, err := c.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2 := NewServer(db)
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer s2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := st.Exec([]mem.Value{mem.Str("a")})
		if err == nil {
			if len(res.Rows) != 1 || res.Rows[0][0] != mem.Int(1) {
				t.Fatalf("rows: %v", res.Rows)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s2.Prepares() != 1 {
		t.Fatalf("restarted server prepares = %d, want 1", s2.Prepares())
	}
}
