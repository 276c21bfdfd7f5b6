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
	"strings"
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
// client connection gets one goroutine, which reads a request, picks a
// backend, writes the request over an idle pooled connection to it (or a
// fresh one), and copies the response back; framing on both sides is
// net/http's. Create one with New.
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
func (b *Balancer) pick(r *http.Request) (*backend, error) {
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

// pickHashed routes by the cache tier's key projection: least-active among
// the usable backends owning the request's slot. Nil when the request is
// unroutable (non-GET, no view, no owner usable) — the caller falls back
// to round-robin. Caller holds b.mu.
func (b *Balancer) pickHashed(r *http.Request, usable func(*backend) bool) *backend {
	if b.View == nil || r == nil || r.Method != http.MethodGet {
		return nil
	}
	m := b.View.Map()
	if m == nil || m.NumSlots() == 0 {
		return nil
	}
	owners := m.Owners(m.Slot(cluster.RequestRouteKey(r)))
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
	for {
		req, err := http.ReadRequest(br)
		// A client that stops reading must not pin a backend connection.
		c.SetWriteDeadline(time.Now().Add(httpx.DefaultTimeout))
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				reply(bw, nil, http.StatusBadRequest, err)
			}
			return
		}
		if !b.relay(req, bw) {
			return
		}
	}
}

// relay forwards one request and its response, reporting whether the client
// connection can carry another request.
func (b *Balancer) relay(req *http.Request, bw *bufio.Writer) bool {
	be, err := b.pick(req)
	if err != nil {
		return reply(bw, req, http.StatusServiceUnavailable, err)
	}
	// The relay answers 100-continue itself, just before reading the body,
	// so a backend never sends an interim response that would be taken for
	// the final one.
	if expect := req.Header.Get("Expect"); expect != "" {
		req.Header.Del("Expect")
		if strings.EqualFold(expect, "100-continue") && req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
			bw.Flush()
		}
	}
	resp, up, down, err := b.exchange(be, req)
	if err != nil {
		b.release(be, down)
		return reply(bw, req, http.StatusBadGateway, fmt.Errorf("bad gateway: %w", err))
	}
	reuse := !req.Close && !resp.Close
	if !req.ProtoAtLeast(1, 1) && resp.ContentLength < 0 {
		// An HTTP/1.0 client cannot read chunked framing: the body ends
		// where the connection does.
		resp.TransferEncoding = nil
		resp.Close = true
	}
	err = resp.Write(bw)
	if err == nil {
		err = bw.Flush()
	}
	b.release(be, false)
	if err != nil || !reuse {
		b.forget(up.conn)
	} else {
		b.putIdle(be, up)
	}
	return err == nil && !req.Close && !resp.Close
}

// exchange sends req to be and reads the response header, over the most
// recently pooled connection or, when none is idle, a fresh one. A backend
// may close an idle connection at any moment, so a pooled connection's
// failure says nothing about the backend unless it timed out; a request
// without a body is then sent once more on a fresh dial. down reports
// whether the failure marks the backend down.
func (b *Balancer) exchange(be *backend, req *http.Request) (resp *http.Response, up *upstream, down bool, err error) {
	if up = b.takeIdle(be); up != nil {
		if resp, err = roundTrip(up, req); err == nil {
			return resp, up, false, nil
		}
		b.forget(up.conn)
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		replayable := req.Body == http.NoBody && (req.Method == http.MethodGet || req.Method == http.MethodHead)
		if timeout || !replayable {
			return nil, nil, timeout, err
		}
	}
	if up, err = b.dial(be); err == nil {
		if resp, err = roundTrip(up, req); err == nil {
			return resp, up, false, nil
		}
		b.forget(up.conn)
	}
	return nil, nil, true, err
}

// roundTrip writes req on up and reads the response header, the whole
// exchange bounded by httpx.DefaultTimeout.
func roundTrip(up *upstream, req *http.Request) (*http.Response, error) {
	up.conn.SetDeadline(time.Now().Add(httpx.DefaultTimeout))
	if err := req.Write(up.bw); err != nil {
		return nil, err
	}
	if err := up.bw.Flush(); err != nil {
		return nil, err
	}
	return http.ReadResponse(up.br, req)
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

// reply answers req (nil when it could not be parsed) with an error status,
// reporting whether the client connection can carry another request: not
// when the request's body may be left unread.
func reply(bw *bufio.Writer, req *http.Request, code int, err error) bool {
	msg := err.Error() + "\n"
	keep := req != nil && !req.Close && req.ContentLength == 0
	resp := &http.Response{
		StatusCode:    code,
		ProtoMajor:    1,
		ProtoMinor:    1,
		Request:       req,
		Close:         !keep,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		ContentLength: int64(len(msg)),
		Body:          io.NopCloser(strings.NewReader(msg)),
	}
	if resp.Write(bw) != nil || bw.Flush() != nil {
		return false
	}
	return keep
}
