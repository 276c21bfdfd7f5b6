// Command appserver runs the demo application's servlet container (the
// BEA WebLogic box of the paper's figures) against a dbserver, with the
// request logger and the JDBC-wrapper query logger in place.
//
// Usage:
//
//	appserver -listen :8080 -db 127.0.0.1:7000
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"repro/internal/appserver"
	"repro/internal/demoapp"
	"repro/internal/driver"
	"repro/internal/logexport"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP address to listen on")
	dbAddr := flag.String("db", "127.0.0.1:7000", "dbserver address")
	pool := flag.Int("pool", 8, "database connection pool size")
	debugAddr := flag.String("debug-addr", "127.0.0.1:8081", "address for /debug/metrics and /debug/vars (empty = off)")
	withPprof := flag.Bool("pprof", false, "also expose /debug/pprof/ on the debug address")
	obsLog := flag.Duration("obs-log", 0, "log a metrics snapshot at this interval (0 = never)")
	longpollMax := flag.Duration("longpoll-max", 0, "cap on log-export long-poll waits (0 = default)")
	fragments := flag.Bool("fragments", false, "fragment mode: answer composite-negotiated requests with fragment pieces the cache can store and assemble independently")
	traceOn := flag.Bool("trace", false, "serve /debug/trace (the app server originates no pipeline spans; the endpoint keeps the debug surface uniform)")
	traceSample := flag.Int("trace-sample", trace.DefaultSample, "head-sample every Nth trace (<=1 = all)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultBuffer, "span ring-buffer capacity")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceSample, *traceBuffer)
	}

	qlog := driver.NewQueryLog(0)
	logged := driver.NewLoggingDriver(driver.NetDriver{}, qlog)
	p, err := driver.NewPool(logged, *dbAddr, *pool)
	if err != nil {
		log.Fatalf("appserver: %v", err)
	}
	reg := driver.NewRegistry()
	reg.Bind("db", p)

	rlog := appserver.NewRequestLog(0)
	srv := appserver.NewServer(reg, rlog)
	srv.Fragments = *fragments
	for _, def := range demoapp.Servlets("db") {
		srv.MustRegister(def.Meta, def.Handler)
	}
	for _, def := range demoapp.PersonalizedServlets("db") {
		srv.MustRegister(def.Meta, def.Handler)
	}

	// Export the request and query logs so a remote invalidatord can fetch
	// them (the paper's Figure 7 deployment).
	exporter := &logexport.Exporter{Requests: rlog, Queries: qlog, MaxWait: *longpollMax}

	oreg := obs.NewRegistry()
	oreg.RuntimeMetrics()
	handler := obs.HTTPMiddleware(oreg, "appserver", exporter.Wrap(srv))
	if *debugAddr != "" {
		dbg := obs.ServeWith(*debugAddr, oreg, *withPprof, func(err error) {
			log.Printf("appserver: debug server: %v", err)
		}, func(mux *http.ServeMux) {
			mux.Handle("/debug/trace", trace.Handler(tracer))
		})
		defer dbg.Close()
		fmt.Printf("appserver: debug endpoints on http://%s/debug/metrics\n", *debugAddr)
	}
	if *obsLog > 0 {
		go obs.LogLoop(oreg, *obsLog, log.Printf, make(chan struct{}))
	}

	fmt.Printf("appserver on %s (db %s): /light /medium /heavy ?cat=0..9\n", *listen, *dbAddr)
	fmt.Printf("log export under %s/logs/{requests,queries}\n", logexport.DefaultPathPrefix)
	log.Fatal(http.ListenAndServe(*listen, handler))
}
