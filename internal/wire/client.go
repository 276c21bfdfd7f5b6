package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
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
// — a JSON stream that erred mid-frame is desynced, and reusing it would
// misparse every later response. Subsequent roundtrips transparently redial
// with capped exponential backoff (plus jitter), so a restarted server is
// picked up without the caller doing anything; while the backoff window is
// open, roundtrips fail fast instead of hammering the dead address.
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
	// Binary asks for the length-prefixed binary framing: the first
	// roundtrip on each connection sends a HELLO and, if the server agrees,
	// every later frame is binary. A server that answers HELLO with an
	// unknown-op error is an old peer; the client then stays on JSON
	// permanently, like the PREPARE and SUBSCRIBE_LOG fallbacks. Set before
	// first use.
	Binary bool

	mu       sync.Mutex
	addr     string
	conn     net.Conn
	cc       connCodec
	jsonOnly bool // server predates HELLO: never offer binary again
	hello    bool // HELLO already attempted on the current connection
	closed   bool
	fails    int       // consecutive roundtrip/redial failures
	retryAt  time.Time // no redial before this instant
	epoch    uint64    // bumped on every (re)attach; see Stmt
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

// attach installs conn with fresh codec state (a new decoder drops any
// buffered bytes from a previous, possibly desynced stream). Each attach
// starts a new connection epoch: server-side prepared handles are
// per-connection, so statements prepared under an older epoch must
// re-prepare before executing.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.cc = newConnCodec(conn)
	c.hello = false
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
		c.cc = connCodec{}
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

// negotiateLocked performs the HELLO exchange once per connection when
// Binary is set. On agreement the connection's codec switches to binary
// framing; an unknown-op answer marks the server JSON-only for the client's
// lifetime (an old peer will not grow the op between reconnects). I/O
// failure drops the connection like any other failed roundtrip. Callers
// hold c.mu with c.conn live.
func (c *Client) negotiateLocked() error {
	if c.hello || !c.Binary || c.jsonOnly || c.cc.binary() {
		return nil
	}
	c.hello = true
	if t := c.timeout(); t > 0 {
		c.conn.SetDeadline(time.Now().Add(t))
	}
	hello := Request{Op: OpHello, WireVersion: BinaryVersion}
	if err := c.cc.writeRequest(&hello); err != nil {
		c.dropLocked()
		return fmt.Errorf("wire: hello send: %w", err)
	}
	var resp Response
	if err := c.cc.readResponse(&resp); err != nil {
		c.dropLocked()
		return fmt.Errorf("wire: hello receive: %w", err)
	}
	c.fails = 0
	if strings.Contains(resp.Error, "unknown op") {
		// An old server answered the frame cleanly; the connection is still
		// synced. Fall back to JSON for good.
		c.jsonOnly = true
		return nil
	}
	if resp.Error == "" && resp.WireVersion >= BinaryVersion {
		c.cc.upgrade()
	}
	// Any other answer (an error, or version 0): stay on JSON for this
	// connection and offer again after a reconnect.
	return nil
}

// UsingBinary reports whether the current connection negotiated binary
// framing.
func (c *Client) UsingBinary() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cc.binary()
}

func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Response{}, errors.New("wire: client closed")
	}
	if c.conn == nil {
		if err := c.reconnectLocked(); err != nil {
			return Response{}, err
		}
	}
	if err := c.negotiateLocked(); err != nil {
		return Response{}, err
	}
	if t := c.timeout(); t > 0 {
		c.conn.SetDeadline(time.Now().Add(t))
	}
	if err := c.cc.writeRequest(&req); err != nil {
		c.dropLocked()
		return Response{}, fmt.Errorf("wire: send: %w", err)
	}
	var resp Response
	if err := c.cc.readResponse(&resp); err != nil {
		c.dropLocked()
		return Response{}, fmt.Errorf("wire: receive: %w", err)
	}
	c.fails = 0
	return resp, nil
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
	return &engine.Result{Columns: resp.Columns, RowsAffected: resp.RowsAffected, Rows: decodeRows(resp.Rows)}, nil
}

// LogSince pulls update-log records with LSN >= lsn. It returns the records,
// whether the log was truncated before lsn, and the LSN to poll from next.
// Truncation is recomputed client-side from the server's FirstLSN when
// present: the flag then depends only on (lsn, FirstLSN), not on which
// connection carried the request, so a mid-pull reconnect cannot make the
// caller observe the same truncation twice or not at all.
func (c *Client) LogSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	if lsn < 1 {
		lsn = 1
	}
	resp, err := c.roundTrip(Request{Op: OpLogSince, LSN: lsn})
	if err != nil {
		return nil, false, 0, err
	}
	if resp.Error != "" {
		return nil, false, 0, errors.New(resp.Error)
	}
	recs := make([]engine.UpdateRecord, 0, len(resp.Records))
	for _, r := range resp.Records {
		recs = append(recs, DecodeRecord(r))
	}
	truncated := resp.Truncated || (resp.FirstLSN > 0 && lsn < resp.FirstLSN)
	return recs, truncated, resp.NextLSN, nil
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
	if err := c.negotiateLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	conn, cc := c.conn, c.cc
	t := c.timeout()
	c.mu.Unlock()

	if t > 0 {
		conn.SetWriteDeadline(time.Now().Add(t))
	}
	sub := Request{Op: OpSubscribeLog, LSN: cursor}
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
