package httpx_test

import (
	"bufio"
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/httpx"
)

// headSeeds are request heads FuzzReadHead starts from: the bench client's
// shape, percent-encoded, query-string, absolute-form and asterisk
// targets, bodies of both framings, HTTP/1.0, and heads the parser
// rejects.
var headSeeds = []string{
	"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /light?cat=3 HTTP/1.1\r\nHost: 127.0.0.1:8090\r\nCookie: session=u1\r\n\r\n",
	"GET /a%20b/%2Fc?x=%zz&y=1 HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /p?only HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /p? HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET http://example.com/p%41th?q=1 HTTP/1.1\r\nHost: other\r\n\r\n",
	"GET http://@/x HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET https://[::1]:8080/x HTTP/1.1\r\nhost: h\r\n\r\n",
	"OPTIONS * HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET mailto:x HTTP/1.1\r\nHost: h\r\n\r\n",
	"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
	"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\ncontent-length:  5 \r\n\r\nhello",
	"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: Chunked\r\nTrailer: X-Sum\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
	"GET / HTTP/1.0\r\n\r\n",
	"GET / HTTP/1.0\nConnection: keep-alive\n\n",
	"HEAD /x HTTP/1.1\r\nHost: h\r\nConnection: close\r\nExpect: 100-continue\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n  folded\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nBad Name: 1\r\n\r\n",
	"GET / HTTP/1.1\r\n\r\n",
	"GET /%zz HTTP/1.1\r\nHost: h\r\n\r\n",
	"CONNECT h:443 HTTP/1.1\r\nHost: h\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nTrailer: content-length\r\n\r\n",
}

// FuzzReadHead checks the head parser against net/http: it never panics,
// and whatever request head it accepts http.ReadRequest accepts too, with
// the same method, Host, route key, ContentLength and chunked framing.
func FuzzReadHead(f *testing.F) {
	for _, s := range headSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h httpx.Head
		if h.ReadRequest(bufio.NewReader(bytes.NewReader(raw))) != nil {
			return
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("accepted a head net/http rejects (%v): %q", err, raw)
		}
		chunked := len(req.TransferEncoding) == 1 && req.TransferEncoding[0] == "chunked"
		switch {
		case string(h.Method) != req.Method:
			t.Fatalf("method %q, net/http %q", h.Method, req.Method)
		case h.RouteKey() != cluster.RequestRouteKey(req):
			t.Fatalf("route key %q, net/http %q", h.RouteKey(), cluster.RequestRouteKey(req))
		case h.ContentLength != req.ContentLength:
			t.Fatalf("length %d, net/http %d", h.ContentLength, req.ContentLength)
		case h.Chunked != chunked:
			t.Fatalf("chunked %v, net/http %q", h.Chunked, req.TransferEncoding)
		case h.Close != req.Close:
			t.Fatalf("close %v, net/http %v", h.Close, req.Close)
		}
		host := string(h.Host)
		if req.URL.Host != "" {
			host = req.URL.Host
		}
		if host != req.Host {
			t.Fatalf("host %q, net/http %q", host, req.Host)
		}
	})
}

// TestServerRejectsAmbiguousHeads sends each head a relay must not guess
// at to a Server and requires a 400 that closes the connection.
func TestServerRejectsAmbiguousHeads(t *testing.T) {
	base := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("handler ran for %s %s", r.Method, r.URL)
	}))
	for _, tc := range []struct{ name, head string }{
		{"length and chunked", "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n"},
		{"conflicting lengths", "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"},
		{"gzip coding", "POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip\r\n\r\n"},
		{"coding list", "POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"},
		{"obs-fold", "GET / HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n folded\r\n\r\n"},
		{"space in name", "GET / HTTP/1.1\r\nHost: h\r\nX A: 1\r\n\r\n"},
		{"control byte in name", "GET / HTTP/1.1\r\nHost: h\r\nX\x01A: 1\r\n\r\n"},
		{"HTTP/1.1 without Host", "GET / HTTP/1.1\r\n\r\n"},
		{"head over 1 MiB", "GET / HTTP/1.1\r\nHost: h\r\nX-Big: " + strings.Repeat("a", httpx.MaxHeadBytes) + "\r\n\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, br := dial(t, base)
			go c.Write([]byte(tc.head)) // the big head outruns the server's reads
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !resp.Close {
				t.Fatalf("status %d, close %v; want 400 and close", resp.StatusCode, resp.Close)
			}
		})
	}
}
