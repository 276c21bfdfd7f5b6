package wire

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestClientRecoversAfterMidStreamError drives the client against a server
// whose first connection answers with garbage (a desynced stream). The
// client must fail that roundtrip, drop the connection, and succeed on the
// next call over a fresh connection — never reuse the poisoned reader.
func TestClientRecoversAfterMidStreamError(t *testing.T) {
	addr := startFakeServer(t, func(i int, conn net.Conn, cc *codec) {
		var req Request
		if cc.readRequest(&req) != nil {
			return
		}
		if i == 0 {
			// First connection: a frame header that promises 5 bytes and a
			// payload that is not a response.
			conn.Write([]byte{0, 0, 0, 5, '!', '!', '!', '!', '!'})
			return
		}
		// Later connections (the client's redial): behave correctly.
		for {
			if cc.writeResponse(&Response{}) != nil || cc.readRequest(&req) != nil {
				return
			}
		}
	})

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.BackoffBase = time.Millisecond
	cl.MaxBackoff = 5 * time.Millisecond

	if err := cl.Ping(); err == nil {
		t.Fatal("Ping over a garbage stream succeeded")
	} else if !strings.Contains(err.Error(), "wire: receive") {
		t.Fatalf("mid-stream error not surfaced as a receive failure: %v", err)
	}

	// The poisoned connection must be gone so the next call redials.
	cl.mu.Lock()
	if cl.conn != nil {
		cl.mu.Unlock()
		t.Fatal("client kept the desynced connection open")
	}
	cl.mu.Unlock()

	// Retry until the backoff window opens; with a 1ms base this is quick.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err = cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: last err %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientDeadlineOnSilentServer connects to a server that accepts and
// then never responds. With a short Timeout the roundtrip must fail promptly
// instead of hanging forever.
func TestClientDeadlineOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// Swallow the request, never answer.
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 100 * time.Millisecond

	start := time.Now()
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the roundtrip: took %s", elapsed)
	}

	// The timed-out connection must have been dropped for redial.
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.conn != nil {
		t.Fatal("client kept the timed-out connection open")
	}
}

// TestClientBackoffWindow verifies that after a failure the client refuses
// to redial until the backoff window elapses, then recovers.
func TestClientBackoffWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 100 * time.Millisecond
	cl.BackoffBase = 30 * time.Second // wide window: the fast-fail must not dial
	cl.MaxBackoff = time.Minute

	// Kill the server; the in-flight connection dies with it.
	ln.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping against a closed server succeeded")
	}

	// While backing off, calls fail fast without dialing.
	start := time.Now()
	err = cl.Ping()
	if err == nil {
		t.Fatal("Ping during backoff succeeded")
	}
	if !strings.Contains(err.Error(), "backing off") {
		t.Fatalf("expected a backoff fast-fail, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("backoff fast-fail was not fast: %s", elapsed)
	}
}

// TestQueryAfterServerRestart restarts the server on the same address: the
// client's connection died with the old process while idle, and the next
// Query must still succeed, redialing at once instead of failing first.
func TestQueryAfterServerRestart(t *testing.T) {
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
	defer c.Close()
	c.BackoffBase = time.Minute // a backoff wait would fail the Query below
	if _, err := c.Query("SELECT v FROM kv"); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2 := NewServer(db)
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer s2.Close()
	for _, q := range []string{"SELECT v FROM kv", "UPDATE kv SET v = 2"} {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s after the restart: %v", q, err)
		}
	}
	if _, _, _, err := c.LogSince(1); err != nil {
		t.Fatalf("LogSince after the restart: %v", err)
	}
}

// TestResendOnlyReadOnlyRequests: a server that reads a request and hangs
// up without an answer may have run it. A SELECT or a log read is sent
// again on a fresh connection; a write is not.
func TestResendOnlyReadOnlyRequests(t *testing.T) {
	for _, tc := range []struct {
		req   Request
		sends int
	}{
		{Request{Op: OpQuery, Query: " (select v FROM kv"}, 2},
		{Request{Op: OpLogSince, LSN: 1}, 2},
		{Request{Op: OpQuery, Query: "UPDATE kv SET v = 2"}, 1},
		{Request{Op: OpQuery, Query: "SELECTED"}, 1},
	} {
		var sends atomic.Int32
		addr := startFakeServer(t, func(i int, conn net.Conn, cc *codec) {
			for {
				var req Request
				if cc.readRequest(&req) != nil {
					return
				}
				sends.Add(1)
				if i == 0 { // the first connection dies with its first request
					return
				}
				if cc.writeResponse(&Response{}) != nil {
					return
				}
			}
		})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.roundTrip(tc.req)
		c.Close()
		if got := int(sends.Load()); got != tc.sends || (err == nil) != (tc.sends == 2) {
			t.Fatalf("%+v: sent %d times (err %v), want %d", tc.req, got, err, tc.sends)
		}
	}
}
