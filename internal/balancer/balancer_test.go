package balancer

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newBackend(t *testing.T, name string, count *int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count != nil {
			atomic.AddInt64(count, 1)
		}
		fmt.Fprint(w, name)
	}))
}

// serve relays for lb on a loopback listener until the test ends, returning
// the balancer's base URL.
func serve(t testing.TB, lb *Balancer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go lb.Serve(ln)
	t.Cleanup(lb.Close)
	return "http://" + ln.Addr().String()
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	var c1, c2 int64
	b1 := newBackend(t, "one", &c1)
	defer b1.Close()
	b2 := newBackend(t, "two", &c2)
	defer b2.Close()

	lb := serve(t, New(b1.URL, b2.URL))

	for i := 0; i < 10; i++ {
		get(t, lb+"/x")
	}
	if c1 != 5 || c2 != 5 {
		t.Fatalf("distribution: %d / %d", c1, c2)
	}
}

func TestNoBackends(t *testing.T) {
	lb := serve(t, New())
	resp, err := http.Get(lb + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestFailoverSkipsDeadBackend(t *testing.T) {
	var c1 int64
	b1 := newBackend(t, "alive", &c1)
	defer b1.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // dead from the start

	lb := New(b1.URL, dead.URL)
	lb.RetryAfter = time.Hour // once marked down, stays down for the test
	srv := serve(t, lb)

	// First pass may hit the dead one (502), then it is out of rotation.
	sawGateway := false
	for i := 0; i < 6; i++ {
		resp, err := http.Get(srv + "/x")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadGateway {
			sawGateway = true
		}
	}
	if !sawGateway {
		t.Log("dead backend never chosen first; continuing")
	}
	// Now every request lands on the healthy backend.
	before := atomic.LoadInt64(&c1)
	for i := 0; i < 4; i++ {
		if got := get(t, srv+"/x"); got != "alive" {
			t.Fatalf("got %q", got)
		}
	}
	if atomic.LoadInt64(&c1)-before != 4 {
		t.Fatalf("healthy backend hits: %d", c1-before)
	}
}

func TestDeadBackendRetriedAfterWindow(t *testing.T) {
	b1 := newBackend(t, "one", nil)
	defer b1.Close()
	lb := New(b1.URL)
	lb.RetryAfter = 10 * time.Millisecond
	// Mark it down manually.
	lb.mu.Lock()
	lb.backends[0].healthy = false
	lb.backends[0].downAt = time.Now()
	lb.mu.Unlock()
	srv := serve(t, lb)

	time.Sleep(20 * time.Millisecond)
	if got := get(t, srv+"/x"); got != "one" {
		t.Fatalf("got %q", got)
	}
	lb.mu.Lock()
	healthy := lb.backends[0].healthy
	lb.mu.Unlock()
	if !healthy {
		t.Fatal("success should restore health")
	}
}

func TestLeastConnectionsPicksIdle(t *testing.T) {
	slowRelease := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-slowRelease
		fmt.Fprint(w, "slow")
	}))
	defer slow.Close()
	var fastCount int64
	fast := newBackend(t, "fast", &fastCount)
	defer fast.Close()

	lb := New(slow.URL, fast.URL)
	lb.Policy = LeastConnections
	srv := serve(t, lb)

	// Occupy the slow backend.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, srv+"/x") // lands on slow (0 active each; slow listed first)
	}()
	time.Sleep(30 * time.Millisecond)
	// With slow busy, least-connections must pick fast every time.
	for i := 0; i < 3; i++ {
		if got := get(t, srv+"/x"); got != "fast" {
			t.Fatalf("got %q", got)
		}
	}
	close(slowRelease)
	wg.Wait()
	if atomic.LoadInt64(&fastCount) != 3 {
		t.Fatalf("fast hits: %d", fastCount)
	}
}

func TestBackendsAccessor(t *testing.T) {
	lb := New("http://a", "http://b")
	got := lb.Backends()
	if len(got) != 2 || got[0] != "http://a" {
		t.Fatalf("backends: %v", got)
	}
}

func TestQueryStringForwarded(t *testing.T) {
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.RawQuery)
	}))
	defer b.Close()
	srv := serve(t, New(b.URL))
	if got := get(t, srv+"/p?a=1&b=2"); got != "a=1&b=2" {
		t.Fatalf("query: %q", got)
	}
}
