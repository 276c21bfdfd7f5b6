package webcache

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
)

// TestProxyHead: a HEAD goes to the origin and comes back with the
// origin's status and headers and no body — its response announces a
// Content-Length it does not carry. Nothing is stored: the cache is
// GET-only. The second input sends the HEAD to a cluster node that does
// not own the key.
func TestProxyHead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nonOwner bool
	}{{"proxy", false}, {"non-owner node", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var originHits int64
			origin := newOrigin(t, &originHits)
			defer origin.Close()
			cache := NewCache(0)
			p := NewProxy(origin.URL, cache)
			srv := httptest.NewServer(p)
			defer srv.Close()
			if tc.nonOwner {
				owner := httptest.NewServer(NewProxy(origin.URL, NewCache(0)))
				defer owner.Close()
				p.Cluster = NewClusterNode("n1", cluster.NewView(twoNodeMap("n2", srv.URL, owner.URL)), cache)
			}

			resp, err := http.Head(srv.URL + "/page?id=4")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HEAD status %d, want 200", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/html" {
				t.Fatalf("HEAD Content-Type %q, want the origin's", ct)
			}
			if originHits != 1 {
				t.Fatalf("origin hits = %d, want 1", originHits)
			}
			if cache.Len() != 0 {
				t.Fatalf("HEAD stored %d entries", cache.Len())
			}
		})
	}
}
