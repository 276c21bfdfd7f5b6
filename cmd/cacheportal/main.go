// Command cacheportal deploys the complete Configuration III site in one
// process: the in-memory DBMS served over TCP, the demo application's
// servlet container, the caching reverse proxy, and a running CachePortal
// (sniffer + invalidator) keeping the cache consistent with the database.
//
// Usage:
//
//	cacheportal -listen :8090 -interval 1s
//
// Then browse http://127.0.0.1:8090/light?cat=3 and apply updates with
// loadgen (or any wire client) against the printed DB address; watch pages
// get invalidated.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/balancer"
	"repro/internal/demoapp"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/trace"

	cacheportal "repro"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8090", "public (cache) HTTP address")
	interval := flag.Duration("interval", time.Second, "invalidation cycle interval")
	capacity := flag.Int("capacity", 0, "web cache capacity (0 = unbounded)")
	report := flag.Duration("report", 5*time.Second, "status report interval (0 = never)")
	debugAddr := flag.String("debug-addr", "127.0.0.1:8095", "address for /debug/metrics and /debug/vars (empty = off)")
	withPprof := flag.Bool("pprof", false, "also expose /debug/pprof/ on the debug address")
	obsLog := flag.Duration("obs-log", 0, "log a metrics snapshot at this interval (0 = never)")
	traceOn := flag.Bool("trace", false, "trace every pipeline hop commit→eject in-process; serves /debug/trace")
	traceSample := flag.Int("trace-sample", trace.DefaultSample, "head-sample every Nth trace (<=1 = all)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultBuffer, "span ring-buffer capacity")
	cacheNodes := flag.Int("cache-nodes", 1, "web cache nodes; >1 runs the consistent-hash cluster tier")
	clusterPolicy := flag.String("cluster-policy", "hash", "front balancer policy for the cluster: hash (route to owner) or rr (any node, one-hop forward)")
	clusterManage := flag.Bool("cluster-manage", false, "run the adaptive shard manager (hot-slot replication); needs -cache-nodes > 1")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceSample, *traceBuffer)
	}

	var defs []cacheportal.ServletDef
	for _, d := range demoapp.Servlets("db") {
		defs = append(defs, cacheportal.ServletDef{Meta: d.Meta, Handler: d.Handler})
	}
	if *clusterManage && *cacheNodes <= 1 {
		log.Fatal("cacheportal: -cluster-manage needs -cache-nodes > 1")
	}
	var cc cacheportal.ClusterConfig
	if *cacheNodes > 1 {
		cc = cacheportal.ClusterConfig{
			CacheNodes:  *cacheNodes,
			FrontPolicy: *clusterPolicy,
			Manager:     *clusterManage,
		}
	}
	site, err := cacheportal.NewSite(cacheportal.SiteConfig{
		Schema:        demoapp.DefaultSchemaSQL(),
		Servlets:      defs,
		CacheCapacity: *capacity,
		Interval:      *interval,
		Tracer:        tracer,
		Cluster:       cc,
	})
	if err != nil {
		log.Fatalf("cacheportal: %v", err)
	}
	defer site.Close()

	// Re-expose the cache tier on the requested public address: the proxy
	// itself single-node, a relay to the front balancer when running the
	// cluster.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cacheportal: %v", err)
	}
	if *cacheNodes > 1 {
		public := balancer.New(site.CacheURL)
		defer public.Close()
		go public.Serve(ln)
	} else {
		public := &httpx.Server{Handler: site.Proxy}
		defer public.Close()
		go public.Serve(ln)
	}

	fmt.Printf("cacheportal site up:\n")
	fmt.Printf("  public (cached) URL: http://%s  (pages: /light /medium /heavy ?cat=0..9)\n", ln.Addr())
	fmt.Printf("  app server (uncached): %s\n", site.AppURL)
	fmt.Printf("  database (wire protocol): %s\n", site.DBAddr)
	fmt.Printf("  invalidation cycle: %s\n", *interval)

	site.Obs.RuntimeMetrics()
	if *debugAddr != "" {
		dbg := obs.ServeWith(*debugAddr, site.Obs, *withPprof, func(err error) {
			log.Printf("cacheportal: debug server: %v", err)
		}, func(mux *http.ServeMux) {
			mux.Handle("/debug/trace", trace.Handler(tracer))
		})
		defer dbg.Close()
		fmt.Printf("  debug endpoints: http://%s/debug/metrics\n", *debugAddr)
	}
	if *obsLog > 0 {
		go obs.LogLoop(site.Obs, *obsLog, log.Printf, make(chan struct{}))
	}

	if *report > 0 {
		go func() {
			for range time.Tick(*report) {
				st := site.Cache.Stats()
				rep, _, cycles := site.Portal.LastReport()
				fmt.Printf("[%s] pages=%d hitRatio=%.2f invalidations=%d cycles=%d lastCycle={polls=%d inval=%d}\n",
					time.Now().Format("15:04:05"), site.Cache.Len(), st.HitRatio(),
					st.Invalidations, cycles, rep.Polls, rep.Invalidated)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("cacheportal: shutting down")
}
