// Package httpx holds the HTTP plumbing every component shares. Its
// client half is the shared default client for every component that talks
// over HTTP — the log mirror, the caching proxy, the eject-stream
// consumer, the balancer's re-probe, and the workload generators — and
// the timeouts the balancer's relay arms on its own connections. Unlike
// http.DefaultClient it carries timeouts on every phase (dial, response
// headers, whole request), so a hung peer degrades into a bounded error
// instead of a goroutine stuck forever: the failure-model requirement that
// no pipeline edge blocks the invalidation loop indefinitely. Components
// still accept an explicit *http.Client for callers that need different
// limits.
//
// Its server half carries the two hops every cache hit crosses without
// net/http's framing. Head scans an HTTP/1.1 message head once and keeps
// its bytes, which the balancer's relay forwards verbatim, with CopyBody
// copying the body as framed; Server runs a handler (the cache node's
// webcache.Proxy) with one goroutine per connection and writes each
// buffered response with one flush.
package httpx

import (
	"net"
	"net/http"
	"time"
)

// DefaultTimeout bounds a whole request (connect + write + read) on the
// shared client.
const DefaultTimeout = 10 * time.Second

// DefaultDialTimeout bounds TCP connection establishment.
const DefaultDialTimeout = 5 * time.Second

// MaxIdleConnsPerHost caps the idle connections kept per backend, here and
// in the balancer's relay pools: the ejector fans batches out per cache.
const MaxIdleConnsPerHost = 32

// defaultClient is shared so connection pools are reused across components
// within one process.
var defaultClient = &http.Client{
	Timeout: DefaultTimeout,
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   DefaultDialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          128,
		MaxIdleConnsPerHost:   MaxIdleConnsPerHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   DefaultDialTimeout,
		ResponseHeaderTimeout: DefaultTimeout,
		ExpectContinueTimeout: time.Second,
	},
}

// Default returns the shared timeout-bearing client. Callers must not
// mutate it; wrap a custom *http.Client instead.
func Default() *http.Client { return defaultClient }

// Client returns c, or the shared default when c is nil — the standard
// fallback for optional Client fields.
func Client(c *http.Client) *http.Client {
	if c != nil {
		return c
	}
	return defaultClient
}
