package webcache

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// BenchmarkForwardPaths reports (with -benchmem) what one request allocates,
// client and origin included, on the two paths no site-benchmark workload
// takes behind the hash front: a non-owner's one-hop forward of the owner's
// cached page (peer), and the owner's miss filled from the origin (fill).
// The page is 1.5 KiB, which net/http frames with a Content-Length.
func BenchmarkForwardPaths(b *testing.B) {
	page := strings.Repeat("x", 1536)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(keyHeader, "origin"+r.URL.RequestURI())
		w.Header().Set(servletHeader, "page")
		w.Header().Set("Cache-Control", `private, owner="cacheportal"`)
		io.WriteString(w, page)
	}))
	defer origin.Close()
	cache1, cache2 := NewCache(0), NewCache(0)
	p1, p2 := NewProxy(origin.URL, cache1), NewProxy(origin.URL, cache2)
	srv1, srv2 := httptest.NewServer(p1), httptest.NewServer(p2)
	defer srv1.Close()
	defer srv2.Close()
	m := twoNodeMap("n2", srv1.URL, srv2.URL) // n2 owns every key
	p1.Cluster = NewClusterNode("n1", cluster.NewView(m), cache1)
	p2.Cluster = NewClusterNode("n2", cluster.NewView(m), cache2)

	get := func(b *testing.B, url string) {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n != int64(len(page)) {
			b.Fatalf("%s: %d-byte body", url, n)
		}
	}
	b.Run("peer", func(b *testing.B) {
		get(b, srv1.URL+"/page?id=1")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, srv1.URL+"/page?id=1")
		}
	})
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache2.Clear()
			get(b, srv2.URL+"/page?id=2")
		}
	})
}
