package httpx

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server serves an http.Handler over HTTP/1.1 with one goroutine per
// connection and nothing else: no background reader, no per-request
// context, no timeouts. It reads a request head with Head.ReadRequest,
// builds the *http.Request from it, buffers the handler's whole response,
// and writes status line, headers, Content-Length and body with one
// writev.
// A handler that streams (http.Flusher) or takes the connection over
// (http.Hijacker) needs net/http's server instead.
type Server struct {
	Handler http.Handler

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
}

// Serve accepts connections on ln and serves each on its own goroutine
// until the server is closed (or ln is), then returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	if !s.track(ln, nil) {
		ln.Close()
		return net.ErrClosed
	}
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
		if !s.track(nil, c) {
			c.Close()
			return net.ErrClosed
		}
		go s.serveConn(c)
	}
}

// Close closes every listener passed to Serve and every open connection.
// Handlers still running finish on their own; their responses are lost.
func (s *Server) Close() error {
	s.mu.Lock()
	lns, conns := s.lns, s.conns
	s.closed, s.lns, s.conns = true, nil, nil
	s.mu.Unlock()
	for ln := range lns {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
	return nil
}

// track registers a listener or a connection for Close, reporting false
// once the server is closed.
func (s *Server) track(ln net.Listener, c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if ln != nil {
		if s.lns == nil {
			s.lns = make(map[net.Listener]struct{})
		}
		s.lns[ln] = struct{}{}
	}
	if c != nil {
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[c] = struct{}{}
	}
	return true
}

func (s *Server) forget(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// serveConn serves one connection's requests in turn.
func (s *Server) serveConn(c net.Conn) {
	defer s.forget(c)
	br := bufio.NewReader(c)
	remote := c.RemoteAddr().String()
	var h Head
	w := &response{header: make(http.Header)}
	for {
		if err := h.ReadRequest(br); err != nil {
			var bad HeadError
			if errors.As(err, &bad) {
				io.WriteString(c, "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n400 Bad Request: "+bad.Error())
			}
			return
		}
		req, b, err := newRequest(&h, br, remote)
		if err != nil {
			io.WriteString(c, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n")
			return
		}
		if h.ExpectsContinue() {
			if _, err := io.WriteString(c, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
				return
			}
		}
		if !s.handle(w, req) {
			return
		}
		if !w.write(c, &h, !h.Close && (b == nil || b.drain())) {
			return
		}
	}
}

// handle runs the handler, reporting false when it panicked.
func (s *Server) handle(w *response, req *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				log.Printf("httpx: panic serving %s: %v", req.RemoteAddr, p)
			}
			ok = false
		}
	}()
	w.reset()
	s.Handler.ServeHTTP(w, req)
	return true
}

// newRequest builds the handler's request from h, the way net/http's
// server does: Host promoted out of the header, Transfer-Encoding moved
// to its own field. Every string shares one copy of the head. The body is
// nil when the request has none.
func newRequest(h *Head, br *bufio.Reader, remote string) (*http.Request, *body, error) {
	raw := string(h.Raw)
	sub := func(b []byte) string {
		if len(b) == 0 {
			return ""
		}
		off := cap(h.Raw) - cap(b)
		return raw[off : off+len(b)]
	}
	target := sub(h.Target)
	u := h.uri
	if u == nil {
		var err error
		if u, err = url.ParseRequestURI(target); err != nil {
			return nil, nil, err
		}
	}
	host := u.Host
	if host == "" {
		host = sub(h.Host)
	}
	header := make(http.Header, len(h.fields))
	vals := make([]string, len(h.fields))
	for _, f := range h.fields {
		key := textproto.CanonicalMIMEHeaderKey(raw[f.start:f.colon])
		if key == "Host" || key == "Transfer-Encoding" {
			continue
		}
		v := raw[f.vstart:f.vend]
		if vv := header[key]; vv != nil {
			header[key] = append(vv, v)
		} else {
			vals[0] = v
			header[key], vals = vals[:1:1], vals[1:]
		}
	}
	req := &http.Request{
		Method:        sub(h.Method),
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    h.Minor,
		Header:        header,
		Body:          http.NoBody,
		ContentLength: h.ContentLength,
		Close:         h.Close,
		Host:          host,
		RemoteAddr:    remote,
		RequestURI:    target,
	}
	if h.Minor == 0 {
		req.Proto = "HTTP/1.0"
	}
	var b *body
	if h.Chunked {
		req.TransferEncoding = []string{"chunked"}
	}
	if h.ContentLength != 0 {
		b = newBody(br, h)
		req.Body = b
	}
	return req, b, nil
}

// response is the http.ResponseWriter a Server hands its handler: it
// buffers the whole response, so the server knows its length before the
// first byte goes out. One per connection, reset per request.
type response struct {
	header http.Header
	status int
	body   []byte
	head   []byte      // the response head, built by write
	vec    [2][]byte   // head and body, for one writev
	bufs   net.Buffers // slices vec; a field, so writing it allocates nothing
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status == 0 && code >= 200 {
		w.status = code
	}
}

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *response) WriteString(s string) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, s...)
	return len(s), nil
}

func (w *response) reset() {
	clear(w.header)
	w.status = 0
	if cap(w.body) > 64<<10 {
		w.body = nil // don't pin one large page per idle connection
	}
	w.body = w.body[:0]
}

// write sends the buffered response to the request h heads, head and
// body in one writev, reporting whether the connection carries another
// request. keep says whether the server would; a handler's Connection:
// close can still end the connection.
func (w *response) write(c net.Conn, h *Head, keep bool) bool {
	code := w.status
	if code == 0 {
		code = http.StatusOK
	}
	if tokenIn(w.header["Connection"], "close") {
		keep = false
	}
	b := append(w.head[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(code)...)
	b = append(b, "\r\n"...)

	isHead := h.IsMethod(http.MethodHead)
	bodyless := code/100 == 1 || code == http.StatusNoContent || code == http.StatusNotModified
	for k, vv := range w.header {
		switch k {
		case "Transfer-Encoding", "Connection":
			continue
		case "Content-Length":
			if !isHead || len(w.body) > 0 {
				continue // the server sets it from the buffered body
			}
		}
		if !validKey(k) {
			continue
		}
		for _, v := range vv {
			if strings.ContainsAny(v, "\r\n") {
				v = strings.NewReplacer("\r", " ", "\n", " ").Replace(v)
			}
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	if _, ok := w.header["Content-Type"]; !ok && len(w.body) > 0 && !bodyless {
		b = append(b, "Content-Type: "...)
		b = append(b, http.DetectContentType(w.body)...)
		b = append(b, "\r\n"...)
	}
	if !bodyless && (!isHead || len(w.body) > 0) {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(w.body)), 10)
		b = append(b, "\r\n"...)
	}
	switch {
	case !keep:
		b = append(b, "Connection: close\r\n"...)
	case h.Minor == 0:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	w.head = append(b, "\r\n"...)
	w.vec = [2][]byte{w.head, nil}
	if !isHead && !bodyless {
		w.vec[1] = w.body
	}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(c)
	return err == nil && keep
}

// tokenIn reports whether a comma-separated header value list holds tok.
func tokenIn(vals []string, tok string) bool {
	for _, v := range vals {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), tok) {
				return true
			}
		}
	}
	return false
}

func validKey(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		if !validFieldByte(k[i]) {
			return false
		}
	}
	return true
}
