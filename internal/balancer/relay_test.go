package balancer

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// dialRaw opens a client connection to the balancer at base, for tests that
// control the bytes on the wire.
func dialRaw(t testing.TB, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

// rawExchange writes raw on c and reads one response to a request of the
// given method.
func rawExchange(t *testing.T, c net.Conn, br *bufio.Reader, method, raw string) (*http.Response, string) {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, string(body)
}

// pattern is a body long enough that net/http sends it chunked.
var pattern = strings.Repeat("0123456789abcdef", 640) // 10 KiB

// echoBackend answers /echo with the method and request body, /big with
// pattern in three flushed pieces (chunked framing), /bye with a
// Connection: close response, and anything else with "ok". It counts the
// connections it accepts.
func echoBackend(t *testing.T, conns *int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/echo":
			body, _ := io.ReadAll(r.Body)
			fmt.Fprintf(w, "%s %s", r.Method, body)
		case "/big":
			third := len(pattern) / 3
			for _, piece := range []string{pattern[:third], pattern[third : 2*third], pattern[2*third:]} {
				io.WriteString(w, piece)
				w.(http.Flusher).Flush()
			}
		case "/bye":
			w.Header().Set("Connection", "close")
			io.WriteString(w, "bye")
		default:
			w.Header().Set("Content-Length", "2")
			io.WriteString(w, "ok")
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew && conns != nil {
			atomic.AddInt64(conns, 1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func TestRelayKeepAliveAlternatesBackends(t *testing.T) {
	b1 := newBackend(t, "one", nil)
	defer b1.Close()
	b2 := newBackend(t, "two", nil)
	defer b2.Close()
	c, br := dialRaw(t, serve(t, New(b1.URL, b2.URL)))

	var got []string
	for i := 0; i < 4; i++ {
		_, body := rawExchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: test\r\n\r\n")
		got = append(got, body)
	}
	if want := "one two one two"; strings.Join(got, " ") != want {
		t.Fatalf("one connection saw %q, want %q", got, want)
	}
}

func TestRelayChunkedBodyIntact(t *testing.T) {
	lb := serve(t, New(echoBackend(t, nil).URL))
	resp, err := http.Get(lb + "/big")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("transfer encoding %q, want chunked", resp.TransferEncoding)
	}
	if string(body) != pattern {
		t.Fatalf("body: %d bytes, want the %d-byte pattern", len(body), len(pattern))
	}
}

func TestRelayPostBodyReachesBackend(t *testing.T) {
	lb := serve(t, New(echoBackend(t, nil).URL))
	for _, tc := range []struct {
		body io.Reader
		want string
	}{
		{strings.NewReader("with length"), "POST with length"},
		{io.MultiReader(strings.NewReader("chunked "), strings.NewReader("body")), "POST chunked body"}, // no length
	} {
		resp, err := http.Post(lb+"/echo", "text/plain", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(got) != tc.want {
			t.Fatalf("backend saw %q, want %q", got, tc.want)
		}
	}
}

func TestRelayHead(t *testing.T) {
	c, br := dialRaw(t, serve(t, New(echoBackend(t, nil).URL)))
	resp, body := rawExchange(t, c, br, "HEAD", "HEAD /x HTTP/1.1\r\nHost: test\r\n\r\n")
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 2 || body != "" {
		t.Fatalf("HEAD: status %d, length %d, body %q", resp.StatusCode, resp.ContentLength, body)
	}
	// A body sent after the HEAD response would be read as this response.
	if _, body := rawExchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: test\r\n\r\n"); body != "ok" {
		t.Fatalf("GET after HEAD read %q", body)
	}
}

func TestRelayConnectionClose(t *testing.T) {
	var backendConns int64
	lb := serve(t, New(echoBackend(t, &backendConns).URL))

	// From the client: answered, then the relay hangs up.
	c, br := dialRaw(t, lb)
	resp, body := rawExchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
	if !resp.Close || body != "ok" {
		t.Fatalf("close from client: Close=%v body %q", resp.Close, body)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("client connection still open after Connection: close (%v)", err)
	}

	// From the backend: the client is told, the relay hangs up, and the
	// backend connection is not pooled.
	c, br = dialRaw(t, lb)
	resp, body = rawExchange(t, c, br, "GET", "GET /bye HTTP/1.1\r\nHost: test\r\n\r\n")
	if !resp.Close || body != "bye" {
		t.Fatalf("close from backend: Close=%v body %q", resp.Close, body)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("client connection still open after the backend closed (%v)", err)
	}
	before := atomic.LoadInt64(&backendConns)
	c, br = dialRaw(t, lb)
	for i := 0; i < 3; i++ {
		if _, body := rawExchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: test\r\n\r\n"); body != "ok" {
			t.Fatalf("after close: %q", body)
		}
	}
	if got := atomic.LoadInt64(&backendConns) - before; got != 1 {
		t.Fatalf("three requests opened %d backend connections, want 1 (a fresh one, then pooled)", got)
	}
}

func TestRelayRetriesClosedPooledConnection(t *testing.T) {
	var backendConns int64
	be := echoBackend(t, &backendConns)
	lb := New(be.URL)
	lb.RetryAfter = time.Hour
	lb.ProbeInterval = time.Hour // the re-probe starts but never fires
	base := serve(t, lb)
	state := func() (healthy, probing bool) {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return lb.backends[0].healthy, lb.backends[0].probing
	}

	if body := get(t, base+"/x"); body != "ok" {
		t.Fatalf("warm-up: %q", body)
	}
	// The backend drops the idle connection the relay pooled: the next GET
	// is sent again on a fresh dial and the backend stays in rotation.
	be.CloseClientConnections()
	if body := get(t, base+"/x"); body != "ok" {
		t.Fatalf("after the backend closed the pooled connection: %q", body)
	}
	if healthy, probing := state(); !healthy || probing {
		t.Fatalf("a closed pooled connection marked the backend down (healthy=%v probing=%v)", healthy, probing)
	}
	if got := atomic.LoadInt64(&backendConns); got != 2 {
		t.Fatalf("backend saw %d connections, want 2", got)
	}

	// The backend is gone: the fresh dial fails, so the client gets a 502,
	// the backend is marked down, and the re-probe starts.
	be.Close()
	resp, err := http.Get(base + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if healthy, probing := state(); healthy || !probing {
		t.Fatalf("failed dial: healthy=%v probing=%v, want down and probing", healthy, probing)
	}
}

func TestRelayHTTP10(t *testing.T) {
	c, _ := dialRaw(t, serve(t, New(echoBackend(t, nil).URL)))
	if _, err := io.WriteString(c, "GET /big HTTP/1.0\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// An HTTP/1.0 client reads to the end of the connection.
	raw, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(bytes.ToLower(raw), []byte("transfer-encoding")) {
		t.Fatalf("chunked framing sent to an HTTP/1.0 client:\n%.200s", raw)
	}
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: "GET"})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != pattern {
		t.Fatalf("status %d, %d-byte body, want 200 and the %d-byte pattern", resp.StatusCode, len(body), len(pattern))
	}
}

func TestRelayExpectContinue(t *testing.T) {
	c, br := dialRaw(t, serve(t, New(echoBackend(t, nil).URL)))
	io.WriteString(c, "POST /echo HTTP/1.1\r\nHost: test\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n")
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim status %d, want 100", resp.StatusCode)
	}
	resp, body := rawExchange(t, c, br, "POST", "hello")
	if resp.StatusCode != http.StatusOK || body != "POST hello" {
		t.Fatalf("final response %d %q", resp.StatusCode, body)
	}
	if _, body := rawExchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: test\r\n\r\n"); body != "ok" {
		t.Fatalf("next request on the connection read %q", body)
	}
}

func TestRelayCloseReleasesGoroutines(t *testing.T) {
	backend := echoBackend(t, nil)
	base := runtime.NumGoroutine()

	lb := New(backend.URL)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- lb.Serve(ln) }()
	for i := 0; i < 3; i++ { // three keep-alive clients, each left open
		c, br := dialRaw(t, "http://"+ln.Addr().String())
		rawExchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: test\r\n\r\n")
	}
	lb.Close()
	select {
	case err := <-served:
		if err != net.ErrClosed {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// The backend notices its closed connections on its own goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkBalancerRelay relays one GET for a 1 KiB page per iteration
// over a keep-alive client connection; with -benchmem it reports what a
// relayed request allocates, backend and client included.
func BenchmarkBalancerRelay(b *testing.B) {
	page := bytes.Repeat([]byte("x"), 1024)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(page)
	}))
	defer backend.Close()
	c, br := dialRaw(b, serve(b, New(backend.URL)))
	c.SetDeadline(time.Time{})
	req := []byte("GET /page HTTP/1.1\r\nHost: bench\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n != int64(len(page)) {
			b.Fatalf("read %d bytes", n)
		}
	}
}
