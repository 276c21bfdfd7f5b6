package balancer

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// rawBackend accepts connections and answers each request head with
// answer, after handing the head's bytes to seen.
func rawBackend(t *testing.T, answer string, seen chan<- string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					var head strings.Builder
					for {
						line, err := br.ReadString('\n')
						if err != nil {
							return
						}
						head.WriteString(line)
						if line == "\r\n" {
							break
						}
					}
					if seen != nil {
						seen <- head.String()
					}
					if _, err := io.WriteString(c, answer); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

func TestRelayForwardsHeadsVerbatim(t *testing.T) {
	seen := make(chan string, 1)
	const answer = "HTTP/1.1 200 OK\r\nx-odd-Case:  kept \r\nContent-Length: 2\r\n\r\nok"
	c, br := dialRaw(t, serve(t, New(rawBackend(t, answer, seen))))
	const req = "GET /a%2Fb?x=1 HTTP/1.1\r\nhost: test\r\nX-Trailing: v \r\n\r\n"
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != req {
		t.Fatalf("backend saw\n%q\nwant\n%q", got, req)
	}
	got := make([]byte, len(answer))
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != answer {
		t.Fatalf("client saw\n%q\nwant\n%q", got, answer)
	}
}

func TestRelayDechunksForHTTP10(t *testing.T) {
	const answer = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Sum: 1\r\n\r\n"
	c, _ := dialRaw(t, serve(t, New(rawBackend(t, answer, nil))))
	if _, err := io.WriteString(c, "GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(c) // the body ends where the connection does
	if err != nil {
		t.Fatal(err)
	}
	if want := "HTTP/1.1 200 OK\r\n\r\nhello world"; string(raw) != want {
		t.Fatalf("HTTP/1.0 client read %q, want %q", raw, want)
	}
}

func TestRelayRejectsAmbiguousFraming(t *testing.T) {
	c, br := dialRaw(t, serve(t, New(rawBackend(t, "HTTP/1.1 204 No Content\r\n\r\n", nil))))
	resp, _ := rawExchange(t, c, br, "POST", "POST /x HTTP/1.1\r\nHost: test\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n")
	if resp.StatusCode != http.StatusBadRequest || !resp.Close {
		t.Fatalf("status %d, close %v; want 400 and close", resp.StatusCode, resp.Close)
	}
}
