// Command invalidatord is CachePortal deployed as the paper's Figure 7
// prescribes: a standalone process on its own machine that (a) fetches the
// HTTP-request and query logs from the application server at regular
// intervals, (b) pulls the database update log over the wire protocol,
// (c) runs the sniffer's request-to-query mapper and the invalidator's
// analysis/polling pipeline, and (d) appends each eject batch to the
// cursor-addressed eject stream it serves at /ejects on -debug-addr, which
// every web cache tails (webcached -eject-stream).
//
// Usage (with dbserver and appserver running; start webcached with
// -eject-stream http://127.0.0.1:8071/ejects):
//
//	invalidatord -app http://127.0.0.1:8080 -db 127.0.0.1:7000 -interval 1s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/invalidator"
	"repro/internal/logexport"
	"repro/internal/obs"
	"repro/internal/sniffer"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	appURL := flag.String("app", "http://127.0.0.1:8080", "application server base URL (log export)")
	dbAddr := flag.String("db", "127.0.0.1:7000", "dbserver address (update log + polling)")
	interval := flag.Duration("interval", time.Second, "invalidation cycle interval")
	pollBudget := flag.Duration("poll-budget", 0, "max polling time per cycle (0 = unbounded)")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	pollConns := flag.Int("poll-conns", 1, "DB connections for polling queries (>1 polls in parallel)")
	dbTimeout := flag.Duration("db-timeout", 0, "per-roundtrip deadline on the update-log connection (0 = default 10s, <0 = none)")
	httpTimeout := flag.Duration("http-timeout", 0, "request timeout for log fetches and shard-manager probes (0 = default 10s)")
	feed := flag.Bool("feed", false, "event-driven mode: subscribe to the update-log stream and long-poll the app-server logs; -interval becomes the fallback cadence")
	predIdx := flag.Bool("pred-index", true, "probe the predicate index for candidate query instances instead of scanning the registry (same invalidations either way)")
	fragments := flag.Bool("fragments", false, "annotate cycle logs with the fragment-vs-page eject split (the eject machinery itself is key-agnostic; pair with -fragments on webcached and appserver)")
	peers := flag.String("peers", "", "cache cluster membership as 'id=url,id=url', the nodes -cluster-manage probes")
	slots := flag.Int("slots", 0, "consistent-hash ring slots (0 = default; must match the webcached cluster)")
	ejectRetain := flag.Int("eject-retain", 0, "eject-stream retention in records (0 = default)")
	clusterManage := flag.Bool("cluster-manage", false, "run the adaptive shard manager: probe the peers' /debug/cluster gauges and add/drop hot-shard replicas (requires -peers)")
	manageInterval := flag.Duration("manage-interval", time.Second, "shard-manager probe cadence")
	verbose := flag.Bool("v", false, "log every cycle")
	debugAddr := flag.String("debug-addr", "127.0.0.1:8071", "address for the eject stream (/ejects), /debug/metrics and /debug/vars (required)")
	withPprof := flag.Bool("pprof", false, "also expose /debug/pprof/ on the debug address")
	obsLog := flag.Duration("obs-log", 0, "log a metrics snapshot at this interval (0 = never)")
	traceOn := flag.Bool("trace", false, "record pipeline spans for sampled update records and write their contexts onto the eject stream; serves /debug/trace")
	traceSample := flag.Int("trace-sample", trace.DefaultSample, "head-sample every Nth trace (<=1 = all; match the dbserver's setting)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultBuffer, "span ring-buffer capacity")
	flag.Parse()
	if *debugAddr == "" {
		log.Fatal("invalidatord: -debug-addr is required: it serves the eject stream at /ejects")
	}
	nodes, err := cluster.ParsePeers(*peers)
	if err != nil {
		log.Fatalf("invalidatord: -peers: %v", err)
	}
	if *clusterManage && len(nodes) == 0 {
		log.Fatal("invalidatord: -cluster-manage requires -peers")
	}

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceSample, *traceBuffer)
	}

	// One dedicated connection carries the update log: streamed with -feed,
	// pulled otherwise.
	logClient, err := wire.Dial(*dbAddr)
	if err != nil {
		log.Fatalf("invalidatord: update log: %v", err)
	}
	defer logClient.Close()
	logClient.Timeout = *dbTimeout
	var puller invalidator.LogPuller = invalidator.WireLogPuller{Client: logClient}
	var notifier invalidator.LogNotifier
	var logFeed *wire.LogFeed
	if *feed {
		logFeed = wire.NewLogFeed(logClient, 1, 0)
		defer logFeed.Close()
		logFeed.SetTracer(tracer)
		puller = logFeed
		notifier = logFeed
	}
	var httpClient *http.Client // nil = shared default with timeouts
	if *httpTimeout > 0 {
		httpClient = &http.Client{Timeout: *httpTimeout}
	}
	if *pollConns < 1 {
		*pollConns = 1
	}
	conns := make([]invalidator.Poller, 0, *pollConns)
	for i := 0; i < *pollConns; i++ {
		c, err := driver.NetDriver{}.Connect(*dbAddr)
		if err != nil {
			log.Fatalf("invalidatord: polling connection: %v", err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	reg := obs.NewRegistry()
	reg.RuntimeMetrics()
	if logFeed != nil {
		logFeed.Instrument(reg, "feed")
	}
	var poller invalidator.Poller = conns[0]
	if len(conns) > 1 {
		cp := invalidator.NewConcurrentPoller(conns...)
		cp.Instrument(reg, "poller")
		poller = cp
	}

	mirror := logexport.NewMirror(*appURL)
	mirror.Client = httpClient
	puller = syncedPuller{LogPuller: puller, mirror: mirror}
	qiMap := sniffer.NewQIURLMap()
	mapper := sniffer.NewMapper(mirror.Requests, mirror.Queries, qiMap)
	mapper.Obs = reg

	// Every eject batch is appended to the stream; each webcached tails it
	// from its own cursor.
	ejectLog := cluster.NewEjectLog(*ejectRetain)

	inv := invalidator.New(invalidator.Config{
		Map:        qiMap,
		Mapper:     mapper,
		Puller:     puller,
		Poller:     poller,
		Ejector:    cluster.StreamEjector{Log: ejectLog},
		PollBudget: *pollBudget,
		Workers:    *workers,
		Obs:        reg,
		Tracer:     tracer,

		DisablePredIndex: !*predIdx,
	})

	fmt.Printf("invalidatord: app=%s db=%s interval=%s\n", *appURL, *dbAddr, *interval)

	stop := make(chan struct{})
	dbg := obs.ServeWith(*debugAddr, reg, *withPprof, func(err error) {
		// The caches' only way to hear of an invalidation is this server.
		log.Fatalf("invalidatord: debug server: %v", err)
	}, func(mux *http.ServeMux) {
		mux.Handle("/debug/trace", trace.Handler(tracer))
		mux.Handle("/ejects", ejectLog.Handler())
	})
	defer dbg.Close()
	fmt.Printf("invalidatord: debug endpoints on http://%s/debug/metrics\n", *debugAddr)
	fmt.Printf("invalidatord: eject stream on http://%s/ejects\n", *debugAddr)
	if *clusterManage {
		probes := make([]cluster.Probe, len(nodes))
		for i, n := range nodes {
			probes[i] = cluster.HTTPProbe{URL: n.URL, Client: httpClient}
		}
		view := cluster.NewView(cluster.NewMap(*slots, nodes))
		mgr := &cluster.Manager{View: view, Probes: probes, Obs: reg}
		go mgr.Run(*manageInterval, stop)
	}
	if *obsLog > 0 {
		go obs.LogLoop(reg, *obsLog, log.Printf, stop)
	}
	if *feed {
		// Long-poll the app server's logs in the background so request and
		// query entries land in the mirror as they are appended; the
		// synchronous Sync after each update-log pull stays as the soundness
		// backstop (syncedPuller).
		go mirror.Run(stop)
	}
	// One shared cadence loop for both modes (invalidator.RunLoop): pure
	// interval ticking by default; with -feed a cycle also runs the moment
	// the stream signals new update records — whatever commits during a
	// cycle batches into the next one — with
	// the interval timer kept as fallback. Consecutive failures (log fetch or
	// cycle) stretch the cadence with capped exponential backoff instead of
	// hammering a dead dependency; one clean cycle restores the configured
	// interval.
	cycle := func() error {
		rep, err := inv.Cycle()
		if err != nil {
			log.Printf("invalidatord: cycle: %v", err)
			return err
		}
		if *verbose || rep.Invalidated > 0 {
			granularity := ""
			if *fragments {
				granularity = fmt.Sprintf(" fragments=%d pages=%d",
					rep.FragmentEjects, rep.Invalidated-rep.FragmentEjects)
			}
			log.Printf("cycle: mapped=%d updates=%d polls=%d invalidated=%d%s conservative=%d (%s)",
				rep.MappedPages, rep.UpdateRecords, rep.Polls,
				rep.Invalidated, granularity, rep.Conservative, rep.Duration)
		}
		return nil
	}
	go inv.Run(*interval, notifier, stop, cycle)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	close(stop)
	fmt.Println("invalidatord: shutting down")
}

// syncedPuller brings the mirror of the app server's request and query
// logs up to date right after each update-log pull, so every record a
// cycle pulls committed before the mapper's logs were read: a cycle never
// consumes update records while blind to the requests that cached the
// affected pages. A failed log fetch fails the pull, and the cycle
// consumes nothing (the app server may be restarting; the loop retries
// after backoff).
type syncedPuller struct {
	invalidator.LogPuller
	mirror *logexport.Mirror
}

func (p syncedPuller) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	recs, truncated, next, err := p.LogPuller.PullSince(lsn)
	if err != nil {
		return nil, false, 0, err
	}
	if _, err := p.mirror.Sync(); err != nil {
		return nil, false, 0, fmt.Errorf("log fetch: %w", err)
	}
	return recs, truncated, next, nil
}
