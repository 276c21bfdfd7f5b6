// Command webcached runs the dynamic-content web cache: a caching reverse
// proxy honouring `Cache-Control: private, owner="cacheportal"` for storage
// and `Cache-Control: eject` for invalidation (the NetCache box of the
// paper's Configuration III). With -eject-stream it tails invalidatord's
// eject stream, which is how the invalidator's ejects reach it.
//
// Usage:
//
//	webcached -listen :8090 -origin http://127.0.0.1:8080 -capacity 10000 \
//	          -eject-stream http://127.0.0.1:8071/ejects
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/webcache"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8090", "HTTP address to listen on")
	origin := flag.String("origin", "http://127.0.0.1:8080", "origin server base URL")
	capacity := flag.Int("capacity", 0, "max cached pages (0 = unbounded)")
	originTimeout := flag.Duration("origin-timeout", 0, "origin request timeout (0 = default 10s)")
	shards := flag.Int("shards", 0, "cache lock shards (0 = auto, 1 = single exact LRU)")
	fragments := flag.Bool("fragments", false, "fragment mode: negotiate composite responses with the origin, cache fragments under their own keys and assemble pages at the edge")
	nodeID := flag.String("node-id", "", "this node's identity in the cache cluster (required with -peers)")
	peers := flag.String("peers", "", "cluster membership as 'id=url,id=url' including this node (empty = single-node, byte-identical to before)")
	slots := flag.Int("slots", 0, "consistent-hash ring slots (0 = default; must match across the cluster)")
	ejectStream := flag.String("eject-stream", "", "invalidatord's eject-stream URL to consume with cursor resume (e.g. http://127.0.0.1:8071/ejects; empty = only Cache-Control: eject requests invalidate)")
	cookieAllow := flag.String("cookie-allow", "", "per-servlet cookie allowlist for cache keys, e.g. 'home=session,search=' (listed servlets key only on the named cookies; others keep keying on all)")
	statsEvery := flag.Duration("stats", 0, "print stats at this interval (0 = never)")
	debugAddr := flag.String("debug-addr", "127.0.0.1:8091", "address for /debug/metrics and /debug/vars (empty = off)")
	withPprof := flag.Bool("pprof", false, "also expose /debug/pprof/ on the debug address")
	obsLog := flag.Duration("obs-log", 0, "log a metrics snapshot at this interval (0 = never)")
	traceOn := flag.Bool("trace", false, "close the pipeline traces the eject stream names with terminal webcache.eject spans; serves /debug/trace")
	traceSample := flag.Int("trace-sample", trace.DefaultSample, "head-sample every Nth trace (<=1 = all)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultBuffer, "span ring-buffer capacity")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceSample, *traceBuffer)
		// Stream records name traces the invalidator already chose to
		// record; this tracer's own head sampling must not drop them.
		tracer.SetForceAll(true)
	}

	reg := obs.NewRegistry()
	reg.RuntimeMetrics()
	cache := webcache.NewCacheSharded(*capacity, *shards)
	// With a cluster identity the gauges carry the node ID, so merging
	// several nodes' scrapes (benchjson) doesn't collide their metrics.
	metricsPrefix := "webcache"
	if *nodeID != "" {
		metricsPrefix = "webcache." + *nodeID
	}
	cache.Instrument(reg, metricsPrefix)
	proxy := webcache.NewProxy(*origin, cache)
	proxy.Fragments = *fragments

	var node *webcache.ClusterNode
	if *peers != "" {
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			log.Fatalf("webcached: -peers: %v", err)
		}
		if *nodeID == "" {
			log.Fatal("webcached: -node-id is required with -peers")
		}
		m := cluster.NewMap(*slots, nodes)
		if _, ok := m.Node(*nodeID); !ok {
			log.Fatalf("webcached: -node-id %q is not in -peers", *nodeID)
		}
		node = webcache.NewClusterNode(*nodeID, cluster.NewView(m), cache)
		node.Instrument(reg, "cluster."+*nodeID)
		proxy.Cluster = node
	}
	if *ejectStream != "" {
		consumer := &cluster.Consumer{
			URL:   *ejectStream,
			Apply: webcache.StreamApplier(cache, tracer),
			Clear: func() {
				// Rare and it drops every page (a clear record, a lag past
				// retention or an invalidatord restart): worth a log line.
				log.Printf("webcached: eject stream: clearing %d pages", cache.Len())
				cache.Clear()
			},
			OnError: func(err error) {
				log.Printf("webcached: eject stream: %v", err)
			},
		}
		go consumer.Run(make(chan struct{}))
	}
	if *cookieAllow != "" {
		allow, err := webcache.ParseCookieAllow(*cookieAllow)
		if err != nil {
			log.Fatalf("webcached: -cookie-allow: %v", err)
		}
		proxy.CookieAllow = allow
	}
	if *originTimeout > 0 {
		proxy.Client = &http.Client{Timeout: *originTimeout}
	}
	handler := obs.HTTPMiddleware(reg, "proxy", proxy)

	if *debugAddr != "" {
		dbg := obs.ServeWith(*debugAddr, reg, *withPprof, func(err error) {
			log.Printf("webcached: debug server: %v", err)
		}, func(mux *http.ServeMux) {
			mux.Handle("/debug/trace", trace.Handler(tracer))
			if node != nil {
				// The shard manager probes and installs maps here too,
				// besides the proxy's own serving of the same path.
				mux.HandleFunc(cluster.DebugClusterPath, node.ServeDebug)
			}
		})
		defer dbg.Close()
		fmt.Printf("webcached: debug endpoints on http://%s/debug/metrics\n", *debugAddr)
	}
	if *obsLog > 0 {
		go obs.LogLoop(reg, *obsLog, log.Printf, make(chan struct{}))
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := cache.Stats()
				fmt.Printf("webcached: %d pages, hit ratio %.2f, %d invalidations, %d evictions\n",
					cache.Len(), st.HitRatio(), st.Invalidations, st.Evictions)
			}
		}()
	}

	fmt.Printf("webcached on %s → %s\n", *listen, *origin)
	log.Fatal(http.ListenAndServe(*listen, handler))
}
