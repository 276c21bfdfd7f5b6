package balancer

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// restartableBackend is an HTTP backend that can actually stop listening
// and later rebind the same address — a downed-then-recovered node, as the
// balancer's active re-probe sees one.
type restartableBackend struct {
	addr  string
	hits  int64
	ln    net.Listener
	srv   *http.Server
	ready chan struct{}
}

func newRestartable(t *testing.T) *restartableBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &restartableBackend{addr: ln.Addr().String()}
	b.start(t, ln)
	return b
}

func (b *restartableBackend) start(t *testing.T, ln net.Listener) {
	t.Helper()
	if ln == nil {
		var err error
		// The freed port can take a moment to become bindable again.
		for i := 0; i < 100; i++ {
			ln, err = net.Listen("tcp", b.addr)
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("rebind %s: %v", b.addr, err)
		}
	}
	b.ln = ln
	b.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&b.hits, 1)
		fmt.Fprint(w, "restartable")
	})}
	go b.srv.Serve(ln)
}

func (b *restartableBackend) stop() {
	b.srv.Close()
	b.ln.Close()
}

func (b *restartableBackend) url() string { return "http://" + b.addr }

func TestActiveReprobeRestoresRecoveredBackend(t *testing.T) {
	var aliveHits int64
	alive := newBackend(t, "alive", &aliveHits)
	defer alive.Close()
	flaky := newRestartable(t)

	lb := New(alive.URL, flaky.url())
	// Passive recovery is off the table: once down, only the active probe
	// can bring the backend back.
	lb.RetryAfter = time.Hour
	lb.ProbeInterval = 10 * time.Millisecond
	srv := serve(t, lb)

	flaky.stop()
	// Drive traffic until the balancer trips over the dead backend and
	// marks it down (the unlucky request surfaces as a 502).
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv + "/x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// With RetryAfter an hour out, all traffic now goes to the alive node.
	before := atomic.LoadInt64(&flaky.hits)
	for i := 0; i < 4; i++ {
		resp, _ := http.Get(srv + "/x")
		resp.Body.Close()
	}
	if got := atomic.LoadInt64(&flaky.hits); got != before {
		t.Fatalf("downed backend still receiving traffic (%d -> %d)", before, got)
	}

	// The backend comes back on the same address; the prober must notice
	// and return it to rotation without any passive retry window.
	flaky.start(t, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv + "/x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if atomic.LoadInt64(&flaky.hits) > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered backend never returned to rotation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	flaky.stop()
}

func TestProbeStopsOnClose(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	lb := New(dead.URL)
	lb.ProbeInterval = time.Millisecond
	srv := serve(t, lb)
	resp, _ := http.Get(srv + "/x") // trips the failure, starts the prober
	if resp != nil {
		resp.Body.Close()
	}
	lb.Close()
	lb.Close() // idempotent
}

func TestConsistentHashRoutesToOwner(t *testing.T) {
	var c1, c2 int64
	b1 := newBackend(t, "one", &c1)
	defer b1.Close()
	b2 := newBackend(t, "two", &c2)
	defer b2.Close()

	// One slot, owned by the node at b1: every GET must land there.
	m := &cluster.Map{
		Version: 1,
		Slots:   []cluster.Assignment{{Primary: "n1"}},
		Nodes:   []cluster.NodeInfo{{ID: "n1", URL: b1.URL}, {ID: "n2", URL: b2.URL}},
	}
	lb := New(b1.URL, b2.URL)
	lb.Policy = ConsistentHash
	lb.View = cluster.NewView(m)
	srv := serve(t, lb)

	for i := 0; i < 6; i++ {
		get(t, srv+fmt.Sprintf("/page?id=%d", i))
	}
	if c1 != 6 || c2 != 0 {
		t.Fatalf("distribution %d/%d, want all on the owner", c1, c2)
	}

	// Non-GETs are unroutable and fall back to round-robin.
	for i := 0; i < 4; i++ {
		resp, err := http.Post(srv+"/submit", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if c2 == 0 {
		t.Fatalf("POST fallback never used the second backend (%d/%d)", c1, c2)
	}
}

func TestConsistentHashFallsBackWhenOwnerDown(t *testing.T) {
	var c1 int64
	b1 := newBackend(t, "one", &c1)
	defer b1.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()

	m := &cluster.Map{
		Version: 1,
		Slots:   []cluster.Assignment{{Primary: "n2"}}, // the dead one owns all
		Nodes:   []cluster.NodeInfo{{ID: "n1", URL: b1.URL}, {ID: "n2", URL: dead.URL}},
	}
	lb := New(b1.URL, dead.URL)
	lb.Policy = ConsistentHash
	lb.View = cluster.NewView(m)
	lb.RetryAfter = time.Hour
	lb.ProbeInterval = 0 // no active probe; the test wants it to stay down
	srv := serve(t, lb)

	// First request may 502 while the dead owner gets marked; afterwards
	// everything routes to the surviving backend.
	ok := 0
	for i := 0; i < 6; i++ {
		resp, err := http.Get(srv + "/page")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			ok++
		}
		resp.Body.Close()
	}
	if ok < 5 || atomic.LoadInt64(&c1) < 5 {
		t.Fatalf("survivor served %d requests, %d OK", c1, ok)
	}
}

func TestConsistentHashSpreadsAcrossReplicas(t *testing.T) {
	slow := func(hits *int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			atomic.AddInt64(hits, 1)
			time.Sleep(20 * time.Millisecond)
			fmt.Fprint(w, "ok")
		}))
	}
	var c1, c2 int64
	b1 := slow(&c1)
	defer b1.Close()
	b2 := slow(&c2)
	defer b2.Close()

	m := &cluster.Map{
		Version: 1,
		Slots:   []cluster.Assignment{{Primary: "n1", Replicas: []string{"n2"}}},
		Nodes:   []cluster.NodeInfo{{ID: "n1", URL: b1.URL}, {ID: "n2", URL: b2.URL}},
	}
	lb := New(b1.URL, b2.URL)
	lb.Policy = ConsistentHash
	lb.View = cluster.NewView(m)
	srv := serve(t, lb)

	// A concurrent burst on one hot slot: least-active among the owners
	// pushes the overflow onto the replica while the primary is busy.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv + "/hot")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if c1 == 0 || c2 == 0 {
		t.Fatalf("replica set not used: %d/%d", c1, c2)
	}
}
