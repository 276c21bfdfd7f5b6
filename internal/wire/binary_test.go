package wire

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
)

// sameValue is bit-exact value identity: floats compare by their IEEE-754
// bits, so NaN equals itself and -0.0 differs from 0.0.
func sameValue(a, b mem.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameRow(a, b mem.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// exactValues are values a text framing could not carry unchanged: NaN (with
// a payload), ±Inf, negative zero, and strings that are not valid UTF-8.
var exactValues = []mem.Value{
	mem.Float(math.NaN()),
	mem.Float(math.Float64frombits(0x7FF8_0000_DEAD_BEEF)),
	mem.Float(math.Inf(1)),
	mem.Float(math.Inf(-1)),
	mem.Float(math.Copysign(0, -1)),
	mem.Str("\xff\xfe"),
	mem.Str("a\x80b\x00c"),
	mem.Int(math.MinInt64),
	mem.Bool(true),
	mem.Null(),
}

// exactRow is row i of TestBinaryValuesBitExact's table: the id, then v in
// the column of its kind and NULL in the others.
func exactRow(i int, v mem.Value) mem.Row {
	row := mem.Row{mem.Int(int64(i)), mem.Null(), mem.Null(), mem.Null(), mem.Null()}
	switch v.Kind {
	case mem.KindFloat:
		row[1] = v
	case mem.KindString:
		row[2] = v
	case mem.KindInt:
		row[3] = v
	case mem.KindBool:
		row[4] = v
	}
	return row
}

// TestBinaryValuesBitExact sends every exactValues entry over a live
// connection three ways — as an EXECUTE argument, back as a result row, and
// on the SUBSCRIBE_LOG stream — and requires each to arrive bit for bit.
func TestBinaryValuesBitExact(t *testing.T) {
	s, addr := startFeedServer(t, 25*time.Millisecond)
	if _, err := s.DB.ExecSQL(`CREATE TABLE x (id INT, f FLOAT, s TEXT, i INT, b BOOL)`); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ins, err := c.Prepare("INSERT INTO x VALUES ($1, $2, $3, $4, $5)")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range exactValues {
		if _, err := ins.Exec(exactRow(i, v)); err != nil {
			t.Fatalf("EXECUTE args %d (%v): %v", i, v, err)
		}
	}

	res, err := c.Query("SELECT * FROM x ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(exactValues) {
		t.Fatalf("selected %d rows, want %d", len(res.Rows), len(exactValues))
	}
	for i, v := range exactValues {
		if want := exactRow(i, v); !sameRow(res.Rows[i], want) {
			t.Errorf("result row %d: got %#v, want %#v", i, res.Rows[i], want)
		}
	}

	// The same values as prepared result rows.
	sel, err := c.Prepare("SELECT f, s, i, b FROM x WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range exactValues {
		res, err := sel.Exec([]mem.Value{mem.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if want := exactRow(i, v)[1:]; len(res.Rows) != 1 || !sameRow(res.Rows[0], want) {
			t.Errorf("prepared row %d: got %#v, want %#v", i, res.Rows, want)
		}
	}

	// And as the inserted row images on the update-log stream (DDL is not
	// logged, so the inserts are LSNs 1..n).
	fc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	f := NewLogFeed(fc, 1, 0)
	defer f.Close()
	recs, _ := pullAll(t, f, 1, len(exactValues))
	for i, v := range exactValues {
		if want := exactRow(i, v); recs[i].Table != "x" || !sameRow(recs[i].Row, want) {
			t.Errorf("stream record %d: got %s %#v, want %#v", i, recs[i].Table, recs[i].Row, want)
		}
	}
}

// TestBinaryFeedStream runs the SUBSCRIBE_LOG stream end to end.
func TestBinaryFeedStream(t *testing.T) {
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
	if _, err := s.DB.ExecSQL(`INSERT INTO kv VALUES ('b', 2)`); err != nil {
		t.Fatal(err)
	}
	recs, _ := pullAll(t, f, 1, 2)
	if recs[0].Table != "kv" || recs[1].Row[1] != mem.Int(2) {
		t.Fatalf("records: %+v", recs)
	}
}

// startFakeServer runs a scripted server: serve is invoked per accepted
// connection with its index and a codec over it.
func startFakeServer(t *testing.T, serve func(i int, conn net.Conn, cc *codec)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(i int, conn net.Conn) {
				defer conn.Close()
				serve(i, conn, newCodec(conn))
			}(i, conn)
		}
	}()
	return ln.Addr().String()
}

// TestBinaryCorruptFrameDropsClientConn: a mid-frame decode failure on the
// client must sever the connection outright — there is no resync point in a
// length-prefixed stream — and the next roundtrip redials.
func TestBinaryCorruptFrameDropsClientConn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(conn net.Conn)
	}{
		{"oversized-length-prefix", func(conn net.Conn) {
			conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
		}},
		{"truncated-frame", func(conn net.Conn) {
			// Header promises 100 payload bytes; deliver 3 and close.
			hdr := make([]byte, 4, 7)
			binary.BigEndian.PutUint32(hdr, 100)
			conn.Write(append(hdr, 1, 2, 3))
			conn.Close()
		}},
		{"garbage-payload", func(conn net.Conn) {
			// Well-formed header, undecodable response payload.
			hdr := make([]byte, 4, 8)
			binary.BigEndian.PutUint32(hdr, 4)
			conn.Write(append(hdr, 0xFF, 0xFF, 0xFF, 0xFF))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := startFakeServer(t, func(_ int, conn net.Conn, cc *codec) {
				var req Request
				if cc.readRequest(&req) != nil {
					return
				}
				tc.write(conn)
			})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Query("SELECT 1")
			if err == nil || !strings.Contains(err.Error(), "wire: receive") {
				t.Fatalf("err = %v, want wire: receive", err)
			}
			c.mu.Lock()
			dropped := c.conn == nil
			c.mu.Unlock()
			if !dropped {
				t.Fatal("corrupt frame did not drop the connection")
			}
		})
	}
}

// jsonLine is what a peer speaking newline-delimited JSON sends first. Its
// first four bytes, read as a length prefix, claim a ~2 GB frame.
const jsonLine = `{"op":"ping"}` + "\n"

// TestBinaryCorruptFrameDropsServerConn: the server, too, must drop a
// connection whose stream fails to decode rather than answer or resync —
// including a peer speaking some other protocol, whose first bytes read as a
// length far above maxFrame — while a client already connected to the same
// server keeps working throughout.
func TestBinaryCorruptFrameDropsServerConn(t *testing.T) {
	garbageFrame := []byte{0, 0, 0, 4, 0xFF, 0xFF, 0xFF, 0xFF} // opcode 0xFF does not exist
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"garbage-payload", garbageFrame},
		{"json-line", []byte(jsonLine)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t)
			good, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer good.Close()
			stop := make(chan struct{})
			errs := make(chan error, 1)
			go func() {
				defer close(errs)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := good.Query("SELECT v FROM kv WHERE k = 'a'"); err != nil {
						errs <- err
						return
					}
				}
			}()

			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			// EOF, or a reset if the close raced unread bytes; never an
			// answer, and never a timeout (the connection left open).
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); n > 0 || err == nil || ok && ne.Timeout() {
				t.Fatalf("server answered (%d bytes, err=%v), want the connection dropped", n, err)
			}
			close(stop)
			if err := <-errs; err != nil {
				t.Fatalf("concurrent client failed: %v", err)
			}
			if res, err := good.Query("SELECT v FROM kv WHERE k = 'b'"); err != nil || res.Rows[0][0] != mem.Int(2) {
				t.Fatalf("client after the drop: %+v %v", res, err)
			}
		})
	}
}

// TestReadFrameRejectsOversizedPrefixWithoutAllocating pins the allocation
// half of the rule: the length is checked before any buffer is sized.
func TestReadFrameRejectsOversizedPrefixWithoutAllocating(t *testing.T) {
	if n := binary.BigEndian.Uint32([]byte(jsonLine)); n <= maxFrame {
		t.Fatalf("JSON line prefix reads as %d, not above maxFrame", n)
	}
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go io.WriteString(client, jsonLine)
	cc := newCodec(server)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req Request
	err := cc.readRequest(&req)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want a frame-length error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the frame allocated %d bytes", grew)
	}
}
