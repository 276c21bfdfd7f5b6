// Command dbserver runs the reproduction's in-memory DBMS as a standalone
// server speaking the wire protocol (the Oracle box of the paper's
// figures). Clients connect with internal/driver's NetDriver; the
// invalidator pulls its update log with the logsince operation.
//
// Usage:
//
//	dbserver -listen :7000 -init schema.sql
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "address to listen on")
	initFile := flag.String("init", "", "SQL script to execute at startup")
	initSQL := flag.String("exec", "", "SQL script text to execute at startup")
	debugAddr := flag.String("debug-addr", "127.0.0.1:7001", "address for /debug/metrics and /debug/vars (empty = off)")
	withPprof := flag.Bool("pprof", false, "also expose /debug/pprof/ on the debug address")
	obsLog := flag.Duration("obs-log", 0, "log a metrics snapshot at this interval (0 = never)")
	stmtCache := flag.Int("stmt-cache-size", 0, "prepared-statement cache capacity (0 = default)")
	feedHeartbeat := flag.Duration("feed-heartbeat", 0, "idle heartbeat interval on update-log subscriptions (0 = default)")
	autoIndex := flag.Bool("auto-index", true, "create hash/ordered indexes from the WHERE shapes of prepared query templates")
	traceOn := flag.Bool("trace", false, "stamp pipeline-trace contexts into committed update records; serves /debug/trace")
	traceSample := flag.Int("trace-sample", trace.DefaultSample, "head-sample every Nth trace (<=1 = all)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultBuffer, "span ring-buffer capacity")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceSample, *traceBuffer)
	}

	db := engine.NewDatabase()
	db.SetAutoIndex(*autoIndex)
	if *stmtCache > 0 {
		db.SetStmtCacheCapacity(*stmtCache)
	}
	if *initFile != "" {
		script, err := os.ReadFile(*initFile)
		if err != nil {
			log.Fatalf("dbserver: %v", err)
		}
		if _, err := db.ExecScript(string(script)); err != nil {
			log.Fatalf("dbserver: init script: %v", err)
		}
	}
	if *initSQL != "" {
		if _, err := db.ExecScript(*initSQL); err != nil {
			log.Fatalf("dbserver: exec: %v", err)
		}
	}
	// Attach after the init scripts so seed rows don't open traces.
	db.SetTracer(tracer)

	srv := wire.NewServer(db)
	if *feedHeartbeat > 0 {
		srv.HeartbeatInterval = *feedHeartbeat
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("dbserver: %v", err)
	}
	fmt.Printf("dbserver listening on %s (tables: %v)\n", addr, db.TableNames())

	reg := obs.NewRegistry()
	reg.RuntimeMetrics()
	srv.Instrument(reg, "dbserver")
	if *debugAddr != "" {
		dbg := obs.ServeWith(*debugAddr, reg, *withPprof, func(err error) {
			log.Printf("dbserver: debug server: %v", err)
		}, func(mux *http.ServeMux) {
			mux.Handle("/debug/trace", trace.Handler(tracer))
		})
		defer dbg.Close()
		fmt.Printf("dbserver: debug endpoints on http://%s/debug/metrics\n", *debugAddr)
	}
	if *obsLog > 0 {
		go obs.LogLoop(reg, *obsLog, log.Printf, make(chan struct{}))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("dbserver: served %d queries, shutting down\n", srv.Queries())
	srv.Close()
}
