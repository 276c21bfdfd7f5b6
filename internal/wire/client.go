package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/engine"
)

// DefaultTimeout is the per-roundtrip I/O deadline (covering both the
// request write and the response read) when Client.Timeout is unset.
const DefaultTimeout = 10 * time.Second

// DefaultDialTimeout bounds connection establishment when Client.DialTimeout
// is unset.
const DefaultDialTimeout = 5 * time.Second

// Reconnect backoff defaults (see Client.BackoffBase / MaxBackoff).
const (
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Client is a synchronous wire-protocol client. A Client corresponds to one
// database connection; concurrent callers are serialized, as on a JDBC
// connection.
//
// The client is fault-tolerant: every roundtrip runs under a read/write
// deadline, and any encode or decode failure closes the connection outright
// — a length-prefixed stream that erred mid-frame has no resync point, and
// reusing it would misparse every later response. Subsequent roundtrips
// transparently redial with capped exponential backoff (plus jitter), so a
// restarted server is picked up without the caller doing anything; while
// the backoff window is open, roundtrips fail fast instead of hammering the
// dead address.
type Client struct {
	// Timeout is the per-roundtrip I/O deadline (DefaultTimeout when 0;
	// negative disables deadlines). Set before first use.
	Timeout time.Duration
	// DialTimeout bounds redials (DefaultDialTimeout when 0).
	DialTimeout time.Duration
	// BackoffBase / MaxBackoff shape the reconnect backoff
	// (DefaultBackoffBase / DefaultMaxBackoff when 0).
	BackoffBase time.Duration
	MaxBackoff  time.Duration
	// Binary is ignored: every connection is binary. It remains so that
	// callers which still set it keep compiling.
	Binary bool

	mu      sync.Mutex
	addr    string
	conn    net.Conn
	cc      *codec
	closed  bool
	fails   int       // consecutive roundtrip/redial failures
	retryAt time.Time // no redial before this instant
	epoch   uint64    // bumped on every (re)attach; see Stmt

	// logEpoch is the epoch of the server's update log as last seen, sent
	// with every log read so a server that began a new log can say so.
	logEpoch atomic.Int64
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c.attach(conn)
	return c, nil
}

func (c *Client) timeout() time.Duration {
	if c.Timeout != 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Client) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return DefaultDialTimeout
}

func (c *Client) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return DefaultBackoffBase
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return DefaultMaxBackoff
}

// attach installs conn with a fresh codec (a new reader drops any buffered
// bytes from a previous, possibly desynced stream). Each attach starts a new
// connection epoch: server-side prepared handles are per-connection, so
// statements prepared under an older epoch must re-prepare before executing.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.cc = newCodec(conn)
	c.epoch++
}

// connEpoch returns the current connection epoch.
func (c *Client) connEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// dropLocked severs the current connection after a failure and arms the
// reconnect backoff. Callers hold c.mu.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.cc = nil
	}
	c.fails++
	c.retryAt = time.Now().Add(backoff.Delay(c.backoffBase(), c.fails, c.maxBackoff()))
}

// reconnectLocked redials the server, honoring the backoff window. Callers
// hold c.mu.
func (c *Client) reconnectLocked() error {
	if wait := time.Until(c.retryAt); wait > 0 {
		return fmt.Errorf("wire: reconnect to %s backing off for %s", c.addr, wait.Round(time.Millisecond))
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout())
	if err != nil {
		c.fails++
		c.retryAt = time.Now().Add(backoff.Delay(c.backoffBase(), c.fails, c.maxBackoff()))
		return fmt.Errorf("wire: redial %s: %w", c.addr, err)
	}
	c.attach(conn)
	return nil
}

// roundTrip sends req and reads its response. A connection that sat idle
// may have died with the server (a restart, say) without the client
// noticing: when its write fails, or its read fails before any response
// byte for a request that cannot have changed anything (readOnly), req is
// sent once more on a connection dialed at once, outside the backoff that
// only a failure of the server should arm.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Response{}, errors.New("wire: client closed")
	}
	reused := c.conn != nil
	for {
		if c.conn == nil {
			if err := c.reconnectLocked(); err != nil {
				return Response{}, err
			}
		}
		resp, retry, err := c.exchangeLocked(&req)
		if err == nil {
			c.fails = 0
			return resp, nil
		}
		if !reused || !retry {
			c.dropLocked()
			return Response{}, err
		}
		c.conn.Close()
		c.conn, c.cc = nil, nil
		reused = false
	}
}

// exchangeLocked writes req on the current connection and reads the
// response. retry reports a failure that leaves req safe to send again:
// the write failed, or the read failed (not by timing out) before any
// response byte of a readOnly request. Callers hold c.mu.
func (c *Client) exchangeLocked(req *Request) (resp Response, retry bool, err error) {
	if t := c.timeout(); t > 0 {
		c.conn.SetDeadline(time.Now().Add(t))
	}
	if err := c.cc.writeRequest(req); err != nil {
		return resp, true, fmt.Errorf("wire: send: %w", err)
	}
	if _, err := c.cc.r.Peek(1); err != nil {
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		return resp, readOnly(req) && !timeout, fmt.Errorf("wire: receive: %w", err)
	}
	if err := c.cc.readResponse(&resp); err != nil {
		return resp, false, fmt.Errorf("wire: receive: %w", err)
	}
	return resp, false, nil
}

// readOnly reports whether req cannot change the database: a log read, or
// a statement whose keyword is SELECT.
func readOnly(req *Request) bool {
	if req.Op == OpLogSince {
		return true
	}
	if req.Op != OpQuery {
		return false
	}
	q := strings.TrimLeft(req.Query, " \t\r\n(")
	return len(q) >= 6 && strings.EqualFold(q[:6], "SELECT") && (len(q) == 6 || !isWordByte(q[6]))
}

func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// Query executes one SQL statement and returns its result.
func (c *Client) Query(sql string) (*engine.Result, error) {
	resp, err := c.roundTrip(Request{Op: OpQuery, Query: sql})
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	return &engine.Result{Columns: resp.Columns, RowsAffected: resp.RowsAffected, Rows: resp.Rows}, nil
}

// LogSince pulls update-log records with LSN >= lsn. It returns the records,
// whether the log was truncated before lsn, and the LSN to poll from next.
// Truncation is recomputed client-side from the server's FirstLSN when
// present: the flag then depends only on (lsn, FirstLSN), not on which
// connection carried the request, so a mid-pull reconnect cannot make the
// caller observe the same truncation twice or not at all. A server whose
// log is not the one lsn was taken from (a new epoch, or a head below lsn,
// as after a restart) returns no records: truncated is set and the next
// LSN is the new log's oldest.
func (c *Client) LogSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	if lsn < 1 {
		lsn = 1
	}
	resp, err := c.roundTrip(Request{Op: OpLogSince, LSN: lsn, LogEpoch: c.logEpoch.Load()})
	if err != nil {
		return nil, false, 0, err
	}
	if resp.Error != "" {
		return nil, false, 0, errors.New(resp.Error)
	}
	c.logEpoch.Store(resp.LogEpoch)
	truncated := resp.Truncated || (resp.FirstLSN > 0 && lsn < resp.FirstLSN)
	return resp.Records, truncated, resp.NextLSN, nil
}

// streamLog opens a SUBSCRIBE_LOG stream at cursor and invokes deliver for
// every record-bearing frame until the stream fails, the server closes, or
// Close is called (which unblocks the read).
//
// The stream reads the connection without holding c.mu, so the client must be
// dedicated: no concurrent roundtrips while a stream is open. Keep Timeout
// above the server's heartbeat interval — the per-frame read deadline relies
// on idle heartbeats to distinguish a quiet stream from a blackholed one.
func (c *Client) streamLog(cursor int64, deliver func(Response)) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("wire: client closed")
	}
	if c.conn == nil {
		if err := c.reconnectLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	conn, cc := c.conn, c.cc
	t := c.timeout()
	c.mu.Unlock()

	if t > 0 {
		conn.SetWriteDeadline(time.Now().Add(t))
	}
	sub := Request{Op: OpSubscribeLog, LSN: cursor, LogEpoch: c.logEpoch.Load()}
	if err := cc.writeRequest(&sub); err != nil {
		c.dropConn(conn)
		return fmt.Errorf("wire: subscribe send: %w", err)
	}
	first := true
	for {
		if t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		var resp Response
		if err := cc.readResponse(&resp); err != nil {
			c.dropConn(conn)
			return fmt.Errorf("wire: subscribe receive: %w", err)
		}
		if first {
			first = false
			c.mu.Lock()
			c.fails = 0
			c.mu.Unlock()
		}
		if resp.Error != "" {
			c.dropConn(conn)
			return fmt.Errorf("wire: subscribe: %s", resp.Error)
		}
		if resp.LogEpoch != 0 {
			c.logEpoch.Store(resp.LogEpoch)
		}
		if len(resp.Records) == 0 && !resp.Truncated {
			continue // ack or heartbeat: no cursor movement
		}
		deliver(resp)
	}
}

// dropConn severs conn if it is still the client's current connection (arming
// the reconnect backoff); a connection already replaced or detached by Close
// is just closed.
func (c *Client) dropConn(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == conn {
		c.dropLocked()
		return
	}
	conn.Close()
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	return nil
}

// Close closes the underlying connection and disables reconnection. Safe to
// call twice.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
