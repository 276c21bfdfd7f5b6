package balancer

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"testing"

	"repro/internal/httpx"
)

// relayAllocs pins what one keep-alive GET for a 1 KiB page costs in
// allocations, counted across the whole process: the client's write and
// read, the relay, and the cache node's server and handler behind it.
const relayAllocs = 6

func TestRelayAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need a quiet process")
	}
	page := bytes.Repeat([]byte("x"), 1024)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := &httpx.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = []string{"text/html"}
		w.Write(page)
	})}
	go node.Serve(ln)
	defer node.Close()
	c, br := dialRaw(t, serve(t, New("http://"+ln.Addr().String())))
	req := []byte("GET /page HTTP/1.1\r\nHost: bench\r\n\r\n")
	discard := bufio.NewWriter(io.Discard)
	var resp httpx.Head
	get := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := resp.ReadResponse(br); err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(page)) {
			t.Fatalf("Content-Length %d, want %d", resp.ContentLength, len(page))
		}
		if err := httpx.CopyBody(discard, br, &resp, false); err != nil {
			t.Fatal(err)
		}
	}
	get() // dial and pool the backend connection, size the buffers
	if got := testing.AllocsPerRun(200, get); got > relayAllocs {
		t.Fatalf("%.1f allocations per relayed GET, want at most %d", got, relayAllocs)
	} else {
		t.Logf("%.1f allocations per relayed GET", got)
	}
}
