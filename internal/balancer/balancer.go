// Package balancer implements the traffic balancer in front of the web
// server farm (the paper's Cisco LocalDirector): an HTTP/1.1 relay that
// routes each request over pooled backend connections, with round-robin,
// least-connections, and consistent-hash policies, passive health marking,
// and active re-probing of downed backends.
package balancer

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/httpx"
)

// Policy selects a backend.
type Policy int

// Balancing policies.
const (
	RoundRobin Policy = iota
	LeastConnections
	// ConsistentHash routes GETs by the same key projection the cache
	// tier places entries with (cluster.RequestRouteKey), so a request
	// lands on the node that owns — and has cached — its page, fragment
	// skeleton probes included. Requires View; spreads a slot's traffic
	// over its whole owner set (least-active among owners), and falls
	// back to round-robin for non-GETs and unroutable requests.
	ConsistentHash
)

type backend struct {
	base    string // e.g. "http://127.0.0.1:8081"
	addr    string // the host:port base names
	active  int    // in-flight requests
	healthy bool
	downAt  time.Time
	probing bool        // an active re-probe goroutine is running
	idle    []*upstream // pooled connections, most recently used last
}

// upstream is one connection to a backend.
type upstream struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Balancer relays HTTP/1.1 from its clients to a set of backends. Each
// client connection gets one goroutine, which scans a request head once
// (httpx.Head), picks a backend, forwards the head's bytes and the body
// as framed over an idle pooled connection to it (or a fresh one), and
// copies the response back the same way: nothing is parsed into net/http
// values or re-serialized. Create one with New.
type Balancer struct {
	// Policy selects backends; RoundRobin by default.
	Policy Policy
	// RetryAfter is how long an unhealthy backend stays out of rotation
	// for regular traffic (the passive path; active re-probes below bring
	// it back sooner).
	RetryAfter time.Duration
	// ProbeInterval is the base delay of the active re-probe started when
	// a backend is marked down: the prober retries the backend with
	// jittered capped-exponential backoff and restores it on the first
	// response, so a recovered node rejoins promptly instead of waiting
	// for traffic to happen to retry it. <= 0 disables active probing.
	ProbeInterval time.Duration
	// View supplies the placement map for the ConsistentHash policy;
	// backends are matched to map nodes by URL.
	View *cluster.View

	ctx    context.Context // canceled by Close: aborts dials and re-probes
	cancel context.CancelFunc
	wg     sync.WaitGroup // client-connection goroutines and re-probes

	mu       sync.Mutex
	backends []*backend
	next     int
	closed   bool
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{} // open client and backend connections
}

// New creates a balancer over the given backend base URLs.
func New(backends ...string) *Balancer {
	ctx, cancel := context.WithCancel(context.Background())
	b := &Balancer{
		RetryAfter:    time.Second,
		ProbeInterval: time.Second,
		ctx:           ctx,
		cancel:        cancel,
		lns:           make(map[net.Listener]struct{}),
		conns:         make(map[net.Conn]struct{}),
	}
	for _, base := range backends {
		addr := base
		if u, err := url.Parse(base); err == nil && u.Host != "" {
			addr = u.Host
		}
		b.backends = append(b.backends, &backend{base: base, addr: addr, healthy: true})
	}
	return b
}

// Serve accepts client connections on ln and relays their requests until
// the balancer is closed (or ln is), then returns net.ErrClosed.
func (b *Balancer) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	b.lns[ln] = struct{}{}
	b.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return net.ErrClosed
			}
			// Out of file descriptors, say: wait for some to free up.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !b.track(c, true) {
			c.Close()
			return net.ErrClosed
		}
		go b.serveConn(c)
	}
}

// Close closes every listener passed to Serve, every client connection and
// every backend connection, stops the re-probes, and returns once the
// goroutines the balancer started have exited. Close is idempotent.
func (b *Balancer) Close() {
	b.mu.Lock()
	lns, conns := b.lns, b.conns
	b.closed, b.lns, b.conns = true, nil, nil
	b.mu.Unlock()
	b.cancel()
	for ln := range lns {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
	b.wg.Wait()
}

// Backends returns the configured backend URLs.
func (b *Balancer) Backends() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.backends))
	for i, be := range b.backends {
		out[i] = be.base
	}
	return out
}

// track registers an open connection for Close to close, and with serving
// the goroutine about to serve it for Close to wait for. It reports false
// once the balancer is closed.
func (b *Balancer) track(c net.Conn, serving bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.conns[c] = struct{}{}
	if serving {
		b.wg.Add(1)
	}
	return true
}

// forget closes a tracked connection.
func (b *Balancer) forget(c net.Conn) {
	b.mu.Lock()
	delete(b.conns, c)
	b.mu.Unlock()
	c.Close()
}

// pick selects a backend per policy, skipping unhealthy ones whose retry
// window has not elapsed. It increments the chosen backend's active count.
func (b *Balancer) pick(r *httpx.Head) (*backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.backends)
	if n == 0 {
		return nil, fmt.Errorf("balancer: no backends")
	}
	now := time.Now()
	usable := func(be *backend) bool {
		return be.healthy || now.Sub(be.downAt) >= b.RetryAfter
	}
	var chosen *backend
	switch b.Policy {
	case LeastConnections:
		for _, be := range b.backends {
			if !usable(be) {
				continue
			}
			if chosen == nil || be.active < chosen.active {
				chosen = be
			}
		}
	case ConsistentHash:
		chosen = b.pickHashed(r, usable)
	}
	if chosen == nil { // RoundRobin, and the fallback for every policy
		for i := 0; i < n; i++ {
			be := b.backends[(b.next+i)%n]
			if usable(be) {
				chosen = be
				b.next = (b.next + i + 1) % n
				break
			}
		}
	}
	if chosen == nil {
		return nil, fmt.Errorf("balancer: all %d backends unhealthy", n)
	}
	chosen.active++
	return chosen, nil
}

// pickHashed routes by the cache tier's key projection (the head's
// RouteKey, which equals cluster.RequestRouteKey): least-active among
// the usable backends owning the request's slot. Nil when the request is
// unroutable (non-GET, no view, no owner usable) — the caller falls back
// to round-robin. Caller holds b.mu.
func (b *Balancer) pickHashed(r *httpx.Head, usable func(*backend) bool) *backend {
	if b.View == nil || !r.IsMethod(http.MethodGet) {
		return nil
	}
	m := b.View.Map()
	if m == nil || m.NumSlots() == 0 {
		return nil
	}
	owners := m.Owners(m.Slot(r.RouteKey()))
	var chosen *backend
	for _, o := range owners {
		for _, be := range b.backends {
			if be.base != o.URL || !usable(be) {
				continue
			}
			if chosen == nil || be.active < chosen.active {
				chosen = be
			}
		}
	}
	return chosen
}

func (b *Balancer) release(be *backend, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	be.active--
	if failed {
		be.healthy = false
		be.downAt = time.Now()
		if b.ProbeInterval > 0 && !b.closed && !be.probing {
			be.probing = true
			b.wg.Add(1)
			go b.probe(be)
		}
	} else {
		be.healthy = true
	}
}

// probe actively retries a downed backend with jittered backoff until it
// answers — any HTTP response counts as alive (the probe asks about
// reachability, not application health) — or the balancer closes. Without
// it, a recovered backend rejoined only when traffic happened to hit it
// after the RetryAfter window.
func (b *Balancer) probe(be *backend) {
	defer b.wg.Done()
	defer func() {
		b.mu.Lock()
		be.probing = false
		b.mu.Unlock()
	}()
	for attempt := 1; ; attempt++ {
		select {
		case <-b.ctx.Done():
			return
		case <-time.After(backoff.Delay(b.ProbeInterval, attempt, 16*b.ProbeInterval)):
		}
		b.mu.Lock()
		alive := be.healthy
		b.mu.Unlock()
		if alive { // traffic already brought it back
			return
		}
		req, err := http.NewRequestWithContext(b.ctx, http.MethodHead, be.base+"/", nil)
		if err != nil {
			return
		}
		resp, err := httpx.Default().Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		b.mu.Lock()
		be.healthy = true
		b.mu.Unlock()
		return
	}
}

// writerOnly hides a connection's ReadFrom, so a bufio.Writer over it
// copies a body through its own buffer instead of handing the copy to
// TCPConn.ReadFrom, which allocates a fresh 32 KB one.
type writerOnly struct{ io.Writer }

// serveConn relays the requests of one client connection until either side
// closes it.
func (b *Balancer) serveConn(c net.Conn) {
	defer b.wg.Done()
	defer b.forget(c)
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(writerOnly{c})
	var req, resp httpx.Head
	for {
		err := req.ReadRequest(br)
		// A client that stops reading must not pin a backend connection.
		c.SetWriteDeadline(time.Now().Add(httpx.DefaultTimeout))
		if err != nil {
			var bad httpx.HeadError
			if errors.As(err, &bad) {
				reply(bw, nil, http.StatusBadRequest, err)
			}
			return
		}
		if !b.relay(&req, &resp, br, bw) {
			return
		}
	}
}

// relay forwards one request, its body read from br, and copies the
// response to bw, reporting whether the client connection can carry
// another request. Heads go through verbatim, minus a request's Expect
// line; bodies are copied as framed.
func (b *Balancer) relay(req, resp *httpx.Head, br *bufio.Reader, bw *bufio.Writer) bool {
	be, err := b.pick(req)
	if err != nil {
		return reply(bw, req, http.StatusServiceUnavailable, err)
	}
	// The relay answers 100-continue itself, just before reading the body,
	// so a backend never sends an interim response that would be taken for
	// the final one.
	if req.ExpectsContinue() {
		bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		bw.Flush()
	}
	up, down, err := b.exchange(be, req, resp, br)
	if err != nil {
		b.release(be, down)
		return reply(bw, req, http.StatusBadGateway, fmt.Errorf("bad gateway: %w", err))
	}
	// An HTTP/1.0 client cannot read chunked framing: the body ends where
	// the connection does.
	dechunk := req.Minor == 0 && resp.Chunked
	if dechunk {
		resp.WriteWithout(bw, "Transfer-Encoding")
	} else {
		bw.Write(resp.Raw)
	}
	untilClose := false
	if !resp.Bodyless(req.Method) {
		untilClose = !resp.Chunked && resp.ContentLength < 0
		err = httpx.CopyBody(bw, up.br, resp, dechunk)
	}
	if err == nil {
		err = bw.Flush()
	}
	b.release(be, false)
	reuse := !req.Close && !resp.Close && !untilClose
	if err != nil || !reuse {
		b.forget(up.conn)
	} else {
		b.putIdle(be, up)
	}
	return err == nil && reuse && !dechunk
}

// exchange sends req (its body read from br) to be and reads the response
// head into resp, over the most recently pooled connection or, when none
// is idle, a fresh one. A backend may close an idle connection at any
// moment, so a pooled connection's failure says nothing about the backend
// unless it timed out; a request without a body is then sent once more on
// a fresh dial. down reports whether the failure marks the backend down.
func (b *Balancer) exchange(be *backend, req, resp *httpx.Head, br *bufio.Reader) (up *upstream, down bool, err error) {
	if up = b.takeIdle(be); up != nil {
		if err = roundTrip(up, req, resp, br); err == nil {
			return up, false, nil
		}
		b.forget(up.conn)
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		replayable := req.ContentLength == 0 && (req.IsMethod(http.MethodGet) || req.IsMethod(http.MethodHead))
		if timeout || !replayable {
			return nil, timeout, err
		}
	}
	if up, err = b.dial(be); err == nil {
		if err = roundTrip(up, req, resp, br); err == nil {
			return up, false, nil
		}
		b.forget(up.conn)
	}
	return nil, true, err
}

// roundTrip writes req and its body on up and reads the final response
// head, skipping interim 1xx ones, the whole exchange bounded by
// httpx.DefaultTimeout.
func roundTrip(up *upstream, req, resp *httpx.Head, br *bufio.Reader) error {
	up.conn.SetDeadline(time.Now().Add(httpx.DefaultTimeout))
	if req.Expect != nil {
		req.WriteWithout(up.bw, "Expect")
	} else {
		up.bw.Write(req.Raw)
	}
	if req.ContentLength != 0 {
		if err := httpx.CopyBody(up.bw, br, req, false); err != nil {
			return err
		}
	}
	if err := up.bw.Flush(); err != nil {
		return err
	}
	for {
		if err := resp.ReadResponse(up.br); err != nil {
			return err
		}
		if resp.Status/100 != 1 || resp.Status == http.StatusSwitchingProtocols {
			return nil
		}
	}
}

// takeIdle pops be's most recently pooled connection, nil when none is idle.
func (b *Balancer) takeIdle(be *backend) *upstream {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(be.idle)
	if n == 0 {
		return nil
	}
	up := be.idle[n-1]
	be.idle[n-1] = nil
	be.idle = be.idle[:n-1]
	return up
}

// putIdle pools up for be's next request, or closes it when the pool holds
// httpx.MaxIdleConnsPerHost already or the balancer is closed.
func (b *Balancer) putIdle(be *backend, up *upstream) {
	b.mu.Lock()
	if !b.closed && len(be.idle) < httpx.MaxIdleConnsPerHost {
		be.idle = append(be.idle, up)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	b.forget(up.conn)
}

// dial opens a connection to be, bounded by httpx.DefaultDialTimeout and
// abandoned when the balancer closes.
func (b *Balancer) dial(be *backend) (*upstream, error) {
	d := net.Dialer{Timeout: httpx.DefaultDialTimeout}
	c, err := d.DialContext(b.ctx, "tcp", be.addr)
	if err != nil {
		return nil, err
	}
	if !b.track(c, false) {
		c.Close()
		return nil, net.ErrClosed
	}
	return &upstream{conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(writerOnly{c})}, nil
}

// reply answers req (nil when its head could not be read) with an error
// status, reporting whether the client connection can carry another
// request: not when the request's body may be left unread.
func reply(bw *bufio.Writer, req *httpx.Head, code int, err error) bool {
	msg := err.Error() + "\n"
	keep := req != nil && !req.Close && req.ContentLength == 0
	fmt.Fprintf(bw, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\n", code, http.StatusText(code), len(msg))
	if !keep {
		bw.WriteString("Connection: close\r\n")
	}
	bw.WriteString("\r\n")
	if req == nil || !req.IsMethod(http.MethodHead) {
		bw.WriteString(msg)
	}
	return bw.Flush() == nil && keep
}
