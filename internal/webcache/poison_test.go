package webcache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fragment"
)

// gatedOrigin fronts an origin handler with a gate: while hold is set, each
// request is rendered (so the response reflects the data as of its arrival),
// announced on entered, and delivered only after the test sends on release —
// the window in which an eject can overtake the fill.
type gatedOrigin struct {
	hold    atomic.Bool
	entered chan struct{}
	release chan struct{}
	srv     *httptest.Server
}

func newGatedOrigin(t *testing.T, inner http.Handler) *gatedOrigin {
	t.Helper()
	g := &gatedOrigin{entered: make(chan struct{}, 1), release: make(chan struct{})}
	g.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if g.hold.Load() {
			g.entered <- struct{}{}
			<-g.release
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(g.srv.Close)
	return g
}

type fetched struct{ body, hit string }

// fetchHeld starts a GET that will block in the gated origin and returns once
// the origin has rendered it; the response arrives on the channel after the
// test releases the gate.
func (g *gatedOrigin) fetchHeld(t *testing.T, url, session string) <-chan fetched {
	t.Helper()
	g.hold.Store(true)
	out := make(chan fetched, 1)
	go func() {
		defer close(out)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if session != "" {
			req.AddCookie(&http.Cookie{Name: "session", Value: session})
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", url, resp.StatusCode, b)
		}
		out <- fetched{string(b), resp.Header.Get(HitHeader)}
	}()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the origin")
	}
	g.hold.Store(false)
	return out
}

func (g *gatedOrigin) finish(t *testing.T, out <-chan fetched) fetched {
	t.Helper()
	g.release <- struct{}{}
	select {
	case f := <-out:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("held response never arrived")
		return fetched{}
	}
}

// versionedPage is a whole-page origin: /page?id=N renders the current
// version under the canonical key "origin/page?g:id=N".
func versionedPage(version *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", `private, owner="cacheportal"`)
		w.Header().Set(keyHeader, "origin/page?g:id="+r.URL.Query().Get("id"))
		w.Header().Set(servletHeader, "page")
		fmt.Fprintf(w, "v%d", version.Load())
	})
}

// TestPoisonedFillWholePage: an eject that lands while a miss is at the
// origin overtook the fill — the client still gets its page, but the cache
// must not keep it, because the invalidator has forgotten the key.
func TestPoisonedFillWholePage(t *testing.T) {
	var version atomic.Int64
	origin := newGatedOrigin(t, versionedPage(&version))
	cache := NewCache(0)
	proxy := httptest.NewServer(NewProxy(origin.srv.URL, cache))
	defer proxy.Close()
	const key = "origin/page?g:id=1"

	held := origin.fetchHeld(t, proxy.URL+"/page?id=1", "")
	version.Store(1)      // the update commits...
	cache.Invalidate(key) // ...and its eject finds nothing to remove yet
	if f := origin.finish(t, held); f.body != "v0" || f.hit != "miss" {
		t.Fatalf("held response %+v, want the rendered v0 as a miss", f)
	}
	if _, ok := cache.Peek(key); ok {
		t.Fatal("poisoned fill was stored: v0 would be served forever")
	}
	if st := cache.Stats(); st.Stores != 0 {
		t.Fatalf("stores=%d after a poisoned fill", st.Stores)
	}

	if b, h := getAs(t, proxy.URL+"/page?id=1", ""); b != "v1" || h != "miss" {
		t.Fatalf("next request: %q %s, want fresh v1 as a miss", b, h)
	}
	if b, h := getAs(t, proxy.URL+"/page?id=1", ""); b != "v1" || h != "hit" {
		t.Fatalf("third request: %q %s, want v1 as a hit", b, h)
	}
}

// TestPoisonedFillUnrelatedEjectStillStores pins the per-key precision: a
// fill with no intervening eject stores, and so does one overtaken only by
// ejects of other keys.
func TestPoisonedFillUnrelatedEjectStillStores(t *testing.T) {
	var version atomic.Int64
	origin := newGatedOrigin(t, versionedPage(&version))
	cache := NewCache(0)
	proxy := httptest.NewServer(NewProxy(origin.srv.URL, cache))
	defer proxy.Close()

	cache.Invalidate("origin/page?g:id=1") // before the fill: irrelevant
	held := origin.fetchHeld(t, proxy.URL+"/page?id=1", "")
	cache.InvalidateMany([]string{"origin/page?g:id=2", "origin/page?g:id=3"})
	origin.finish(t, held)
	if _, h := getAs(t, proxy.URL+"/page?id=1", ""); h != "hit" {
		t.Fatalf("second request: %s, want hit", h)
	}
}

// TestPoisonedFillBulkEjects: Clear, InvalidatePrefix and InvalidateServlet
// name no key, so they poison every fill in flight.
func TestPoisonedFillBulkEjects(t *testing.T) {
	bulk := map[string]func(*Cache){
		"Clear":             func(c *Cache) { c.Clear() },
		"InvalidatePrefix":  func(c *Cache) { c.InvalidatePrefix("origin/page") },
		"InvalidateServlet": func(c *Cache) { c.InvalidateServlet("page") },
	}
	for name, eject := range bulk {
		t.Run(name, func(t *testing.T) {
			var version atomic.Int64
			origin := newGatedOrigin(t, versionedPage(&version))
			cache := NewCacheSharded(0, 4)
			proxy := httptest.NewServer(NewProxy(origin.srv.URL, cache))
			defer proxy.Close()

			held := origin.fetchHeld(t, proxy.URL+"/page?id=1", "")
			eject(cache)
			if f := origin.finish(t, held); f.body != "v0" {
				t.Fatalf("held response %+v", f)
			}
			if n := cache.Len(); n != 0 {
				t.Fatalf("%d entries stored across a %s", n, name)
			}
			getAs(t, proxy.URL+"/page?id=1", "")
			if _, h := getAs(t, proxy.URL+"/page?id=1", ""); h != "hit" {
				t.Fatalf("after the bulk eject fills must store again: %s", h)
			}
		})
	}
}

// TestPoisonedFillComposite: ejecting one fragment while the composite is in
// flight keeps exactly that piece out of the cache; the template and the
// other fragment are keyed separately and still stored.
func TestPoisonedFillComposite(t *testing.T) {
	inner := newFragmentOrigin(t)
	origin := newGatedOrigin(t, inner.srv.Config.Handler)
	cache := NewCache(0)
	p := NewProxy(origin.srv.URL, cache)
	p.Fragments = true
	proxy := httptest.NewServer(p)
	defer proxy.Close()
	listingKey := fragment.Key("origin/home?g:cat=1", "listing")

	held := origin.fetchHeld(t, proxy.URL+"/home?cat=1", "u1")
	atomic.StoreInt64(&inner.version, 1)
	cache.InvalidateMany([]string{listingKey})
	if f := origin.finish(t, held); f.body != "<top>cat1-v0|hello u1</top>" {
		t.Fatalf("held response %+v", f)
	}
	if _, ok := cache.Peek(listingKey); ok {
		t.Fatal("ejected listing fragment was stored from the overtaken composite")
	}
	for _, k := range []string{
		fragment.TemplateKey("origin/home?g:cat=1"),
		fragment.Key("origin/home?g:cat=1&c:session=u1", "trim"),
	} {
		if _, ok := cache.Peek(k); !ok {
			t.Fatalf("piece %q was not ejected and must be stored (have %v)", k, cache.Keys())
		}
	}
	b, h := getAs(t, proxy.URL+"/home?cat=1", "u1")
	if want := "<top>cat1-v1|hello u1</top>"; b != want || h != "partial" {
		t.Fatalf("next request: %q %s, want %q as partial (listing refetched alone)", b, h, want)
	}
	if _, h := getAs(t, proxy.URL+"/home?cat=1", "u1"); h != "hit" {
		t.Fatalf("third request: %s, want hit", h)
	}
}

// TestPoisonedFillFragmentRefetch covers the single-fragment refetch store: a
// second eject overtakes the refetch the first one caused.
func TestPoisonedFillFragmentRefetch(t *testing.T) {
	inner := newFragmentOrigin(t)
	origin := newGatedOrigin(t, inner.srv.Config.Handler)
	cache := NewCache(0)
	p := NewProxy(origin.srv.URL, cache)
	p.Fragments = true
	proxy := httptest.NewServer(p)
	defer proxy.Close()
	listingKey := fragment.Key("origin/home?g:cat=1", "listing")

	getAs(t, proxy.URL+"/home?cat=1", "u1")
	atomic.StoreInt64(&inner.version, 1)
	cache.Invalidate(listingKey)
	held := origin.fetchHeld(t, proxy.URL+"/home?cat=1", "u1") // refetches the listing
	atomic.StoreInt64(&inner.version, 2)
	cache.Invalidate(listingKey)
	if f := origin.finish(t, held); f.body != "<top>cat1-v1|hello u1</top>" || f.hit != "partial" {
		t.Fatalf("held response %+v", f)
	}
	if _, ok := cache.Peek(listingKey); ok {
		t.Fatal("overtaken fragment refetch was stored")
	}
	if b, _ := getAs(t, proxy.URL+"/home?cat=1", "u1"); b != "<top>cat1-v2|hello u1</top>" {
		t.Fatalf("next request served %q", b)
	}
}

// TestPoisonedFillJournalOverflow: when more keyed ejects than the journal
// holds land on a shard during one fill, the fill can no longer rule its key
// out and is poisoned conservatively.
func TestPoisonedFillJournalOverflow(t *testing.T) {
	c := NewCacheSharded(0, 1)
	epoch := c.EjectEpoch()
	for i := 0; i < ejectJournal-1; i++ {
		c.Invalidate(fmt.Sprintf("other%d", i))
	}
	if !c.PutSince(&Entry{Key: "k"}, epoch) {
		t.Fatal("journal still reaches back to the fill: must store")
	}
	c.Invalidate("one-more")
	if c.PutSince(&Entry{Key: "k2"}, epoch) {
		t.Fatal("journal overflowed since the fill began: must not store")
	}
	if !c.PutSince(&Entry{Key: "k2"}, c.EjectEpoch()) {
		t.Fatal("a fill begun after the ejects must store")
	}
}
