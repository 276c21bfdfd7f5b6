package httpx_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
)

// serve runs h on a Server on a loopback listener until the test ends,
// returning its address.
func serve(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpx.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dial(t testing.TB, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

// exchange writes raw on c and reads one response to a request of method.
func exchange(t *testing.T, c net.Conn, br *bufio.Reader, method, raw string) (*http.Response, string) {
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
	return resp, string(body)
}

// echo answers with what the handler saw of the request; /skip ignores
// the body, /panic panics, /close asks for the connection to end.
func echo(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/panic":
		panic("boom")
	case "/close":
		w.Header().Set("Connection", "close")
	case "/skip":
		io.WriteString(w, "skipped")
		return
	case "/empty":
		w.WriteHeader(http.StatusNoContent)
		return
	}
	body, _ := io.ReadAll(r.Body)
	w.Header().Set("X-Host", r.Host)
	fmt.Fprintf(w, "%s %s %s q=%s len=%d te=%v cookie=%s body=%s",
		r.Method, r.Proto, r.URL.Path, r.URL.RawQuery, r.ContentLength, r.TransferEncoding, r.Header.Get("Cookie"), body)
}

func TestServerKeepAlive(t *testing.T) {
	c, br := dial(t, serve(t, http.HandlerFunc(echo)))
	for _, tc := range []struct{ method, raw, want string }{
		{"GET", "GET /a%20b?x=1 HTTP/1.1\r\nHost: h:1\r\nCookie: s=1\r\n\r\n",
			"GET HTTP/1.1 /a b q=x=1 len=0 te=[] cookie=s=1 body="},
		{"POST", "POST /p HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
			"POST HTTP/1.1 /p q= len=5 te=[] cookie= body=hello"},
		{"POST", "POST /p HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2;ext=1\r\nlo\r\n0\r\nX-Sum: 1\r\n\r\n",
			"POST HTTP/1.1 /p q= len=-1 te=[chunked] cookie= body=hello"},
		{"POST", "POST /skip HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc", "skipped"},
		{"GET", "GET http://abs:2/x HTTP/1.1\r\nHost: h\r\n\r\n",
			"GET HTTP/1.1 /x q= len=0 te=[] cookie= body="},
	} {
		resp, body := exchange(t, c, br, tc.method, tc.raw)
		if resp.StatusCode != http.StatusOK || body != tc.want || resp.Close {
			t.Fatalf("%q: status %d close %v body %q, want %q", tc.raw, resp.StatusCode, resp.Close, body, tc.want)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
		}
	}
}

func TestServerResponseFraming(t *testing.T) {
	c, br := dial(t, serve(t, http.HandlerFunc(echo)))
	resp, body := exchange(t, c, br, "HEAD", "HEAD /x HTTP/1.1\r\nHost: h\r\n\r\n")
	if resp.StatusCode != http.StatusOK || body != "" || resp.ContentLength <= 0 {
		t.Fatalf("HEAD: status %d, length %d, body %q", resp.StatusCode, resp.ContentLength, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; charset=utf-8" {
		t.Fatalf("sniffed Content-Type %q", got)
	}
	resp, body = exchange(t, c, br, "GET", "GET /empty HTTP/1.1\r\nHost: h\r\n\r\n")
	if resp.StatusCode != http.StatusNoContent || body != "" || resp.Header.Get("Content-Length") != "" {
		t.Fatalf("204: %d %q length %q", resp.StatusCode, body, resp.Header.Get("Content-Length"))
	}
	if _, body := exchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: h\r\n\r\n"); !strings.HasPrefix(body, "GET ") {
		t.Fatalf("after HEAD and 204: %q", body)
	}
}

func TestServerExpectContinue(t *testing.T) {
	c, br := dial(t, serve(t, http.HandlerFunc(echo)))
	io.WriteString(c, "POST /p HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n")
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim: %v %v", resp, err)
	}
	if _, body := exchange(t, c, br, "POST", "hi"); !strings.HasSuffix(body, "body=hi") {
		t.Fatalf("final: %q", body)
	}
}

// TestServerClosesConnection checks every way a connection ends: the
// client's Connection: close, HTTP/1.0 without keep-alive, the handler's
// Connection: close, and a handler panic.
func TestServerClosesConnection(t *testing.T) {
	addr := serve(t, http.HandlerFunc(echo))
	for _, raw := range []string{
		"GET /x HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
		"GET /x HTTP/1.0\r\n\r\n",
		"GET /close HTTP/1.1\r\nHost: h\r\n\r\n",
	} {
		c, br := dial(t, addr)
		resp, _ := exchange(t, c, br, "GET", raw)
		if !resp.Close {
			t.Fatalf("%q: response does not say Connection: close", raw)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("%q: connection still open (%v)", raw, err)
		}
	}
	c, br := dial(t, addr)
	resp, _ := exchange(t, c, br, "GET", "GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
	if resp.Close {
		t.Fatal("HTTP/1.0 keep-alive request answered with close")
	}
	io.WriteString(c, "GET /panic HTTP/1.1\r\nHost: h\r\n\r\n")
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection open after a handler panic (%v)", err)
	}
}

// TestServerWithNetHTTPClient drives the server with net/http's client,
// as a cluster peer's forward and the shard manager's probe do.
func TestServerWithNetHTTPClient(t *testing.T) {
	base := "http://" + serve(t, http.HandlerFunc(echo))
	for i := 0; i < 3; i++ {
		resp, err := httpx.Default().Post(base+"/p?i=1", "text/plain", strings.NewReader("abc"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := "POST HTTP/1.1 /p q=i=1 len=3 te=[] cookie= body=abc"; string(body) != want {
			t.Fatalf("body %q, want %q", body, want)
		}
	}
}

func TestServerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpx.Server{Handler: http.HandlerFunc(echo)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, br := dial(t, ln.Addr().String())
	exchange(t, c, br, "GET", "GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
	srv.Close()
	if err := <-served; err != net.ErrClosed {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection open after Close (%v)", err)
	}
}
