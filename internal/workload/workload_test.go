package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRequestGenIssuesAndMeasures(t *testing.T) {
	var served int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt64(&served, 1)
		if n%2 == 0 {
			w.Header().Set("X-Cacheportal-Cache", "hit")
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	g := NewRequestGen(200, 1, ts.URL+"/a", ts.URL+"/b")
	stats := g.Run(200 * time.Millisecond)
	if stats.Requests() < 10 {
		t.Fatalf("requests: %d", stats.Requests())
	}
	if stats.Errors() != 0 {
		t.Fatalf("errors: %d", stats.Errors())
	}
	if hr := stats.HitRatio(); hr < 0.2 || hr > 0.8 {
		t.Fatalf("hit ratio: %f", hr)
	}
	if stats.MeanLatency() <= 0 || stats.MaxLatency() < stats.MeanLatency() {
		t.Fatalf("latency stats: %v %v", stats.MeanLatency(), stats.MaxLatency())
	}
}

func TestRequestGenCountsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	g := NewRequestGen(100, 2, ts.URL)
	stats := g.Run(100 * time.Millisecond)
	if stats.Errors() == 0 || stats.Errors() != stats.Requests() {
		t.Fatalf("errors %d of %d", stats.Errors(), stats.Requests())
	}
	if stats.HitRatio() != 0 || stats.MeanLatency() != 0 {
		t.Fatal("failed requests must not contribute")
	}
}

func TestRequestGenZeroRate(t *testing.T) {
	g := NewRequestGen(0, 1, "http://x")
	stats := g.Run(50 * time.Millisecond)
	if stats.Requests() != 0 {
		t.Fatalf("requests: %d", stats.Requests())
	}
}

func TestRequestGenWeights(t *testing.T) {
	var a, b int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/a") {
			atomic.AddInt64(&a, 1)
		} else {
			atomic.AddInt64(&b, 1)
		}
	}))
	defer ts.Close()
	g := NewRequestGen(400, 3, ts.URL+"/a", ts.URL+"/b")
	g.Weights = []float64{9, 1}
	g.Run(250 * time.Millisecond)
	if a <= b*2 {
		t.Fatalf("weights ignored: a=%d b=%d", a, b)
	}
}

func TestRequestGenZipf(t *testing.T) {
	counts := make([]int64, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		fmt.Sscanf(r.URL.Path, "/p%d", &i)
		atomic.AddInt64(&counts[i], 1)
	}))
	defer ts.Close()
	urls := make([]string, 4)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/p%d", ts.URL, i)
	}
	g := NewRequestGen(400, 4, urls...).WithZipf(1.5)
	g.Run(250 * time.Millisecond)
	if counts[0] <= counts[3] {
		t.Fatalf("zipf head should dominate: %v", counts)
	}
}

func TestRequestGenOnResult(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	var n int64
	g := NewRequestGen(100, 5, ts.URL)
	g.OnResult = func(Result) { atomic.AddInt64(&n, 1) }
	stats := g.Run(100 * time.Millisecond)
	if n != stats.Requests() {
		t.Fatalf("callback count %d != %d", n, stats.Requests())
	}
}

func TestUpdateGen(t *testing.T) {
	var issued int64
	target := ExecFunc(func(sql string) error {
		atomic.AddInt64(&issued, 1)
		if strings.Contains(sql, "fail") {
			return errors.New("nope")
		}
		return nil
	})
	i := 0
	g := NewUpdateGen(200, 6, target, func(*rand.Rand) string {
		i++
		if i%5 == 0 {
			return "fail"
		}
		return "INSERT INTO t VALUES (1)"
	})
	total, failed := g.Run(150 * time.Millisecond)
	if total < 5 || int64(total) != atomic.LoadInt64(&issued) {
		t.Fatalf("issued %d (target saw %d)", total, issued)
	}
	if failed == 0 || failed >= total {
		t.Fatalf("failed %d of %d", failed, total)
	}
}

func TestUpdateGenZeroRate(t *testing.T) {
	g := NewUpdateGen(0, 1, ExecFunc(func(string) error { return nil }), func(*rand.Rand) string { return "" })
	if n, _ := g.Run(30 * time.Millisecond); n != 0 {
		t.Fatalf("issued %d", n)
	}
}

func TestPaperUpdateStatement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stmt := PaperUpdateStatement("small", "large")
	sawInsert, sawDelete, sawSmall, sawLarge := false, false, false, false
	for i := 0; i < 100; i++ {
		s := stmt(rng)
		if strings.HasPrefix(s, "INSERT") {
			sawInsert = true
		}
		if strings.HasPrefix(s, "DELETE") {
			sawDelete = true
		}
		if strings.Contains(s, "small") {
			sawSmall = true
		}
		if strings.Contains(s, "large") {
			sawLarge = true
		}
	}
	if !sawInsert || !sawDelete || !sawSmall || !sawLarge {
		t.Fatalf("mix incomplete: ins=%v del=%v small=%v large=%v", sawInsert, sawDelete, sawSmall, sawLarge)
	}
}

func TestSessionMixIssuesPersonalizedRequests(t *testing.T) {
	var mu sync.Mutex
	users := map[string]int{}
	flash := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := r.Cookie("session")
		if err != nil {
			t.Errorf("request without session cookie")
			fmt.Fprint(w, "ok")
			return
		}
		mu.Lock()
		users[c.Value]++
		seen := users[c.Value]
		if r.URL.Path == "/flash" {
			flash++
		}
		mu.Unlock()
		if seen > 1 {
			w.Header().Set("X-Cacheportal-Cache", "partial")
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	g := NewSessionMix(400, 7, 3, ts.URL+"/home")
	g.FlashURL = ts.URL + "/flash"
	g.FlashFraction = 0.5
	stats := g.Run(300 * time.Millisecond)
	if stats.Requests() < 20 || stats.Errors() != 0 {
		t.Fatalf("requests=%d errors=%d", stats.Requests(), stats.Errors())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(users) != 3 {
		t.Fatalf("user population: %v", users)
	}
	// Flash crowd gets roughly half the traffic.
	if frac := float64(flash) / float64(stats.Requests()); frac < 0.2 || frac > 0.8 {
		t.Fatalf("flash fraction: %f", frac)
	}
	// Repeat visits answered "partial" are accounted separately from hits.
	if stats.PartialRatio() == 0 || stats.HitRatio() != 0 {
		t.Fatalf("partial=%f hit=%f", stats.PartialRatio(), stats.HitRatio())
	}
}

func TestSessionMixZeroConfig(t *testing.T) {
	if n := NewSessionMix(0, 1, 3, "http://x").Run(30 * time.Millisecond).Requests(); n != 0 {
		t.Fatalf("zero rate issued %d", n)
	}
	if n := NewSessionMix(100, 1, 0, "http://x").Run(30 * time.Millisecond).Requests(); n != 0 {
		t.Fatalf("zero users issued %d", n)
	}
}
