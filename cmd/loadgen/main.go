// Command loadgen is the paper's request and update generator (§5.2.2–
// 5.2.3) for driving a live site: Poisson HTTP requests against the demo
// pages plus random insert/delete updates over the wire protocol.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8090 -rate 30 -duration 30s \
//	        -db 127.0.0.1:7000 -update-rate 10
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/demoapp"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	base := flag.String("url", "http://127.0.0.1:8090", "site base URL")
	rate := flag.Float64("rate", 30, "requests per second")
	updateRate := flag.Float64("update-rate", 0, "update statements per second")
	dbAddr := flag.String("db", "", "dbserver address for updates (required when update-rate > 0)")
	duration := flag.Duration("duration", 30*time.Second, "how long to run")
	seed := flag.Int64("seed", 1, "random seed")
	zipf := flag.Float64("zipf", 0, "Zipf skew for page popularity (0 = uniform, try 1.2)")
	flag.Parse()

	gen := workload.NewRequestGen(*rate, *seed, demoapp.PageURLs(*base)...)
	if *zipf > 1 {
		gen = gen.WithZipf(*zipf)
	}

	var wg sync.WaitGroup
	var updIssued, updFailed int64
	if *updateRate > 0 {
		if *dbAddr == "" {
			log.Fatal("loadgen: -update-rate needs -db")
		}
		client, err := wire.Dial(*dbAddr)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer client.Close()
		target := workload.ExecFunc(func(sql string) error {
			_, err := client.Query(sql)
			return err
		})
		ug := workload.NewUpdateGen(*updateRate, *seed+1, target, demoapp.UpdateStatement())
		wg.Add(1)
		go func() {
			defer wg.Done()
			updIssued, updFailed = ug.Run(*duration)
		}()
	}

	fmt.Printf("loadgen: %g req/s (+%g upd/s) for %s against %s\n", *rate, *updateRate, *duration, *base)
	stats := gen.Run(*duration)
	wg.Wait()

	fmt.Printf("requests:     %d (%d errors)\n", stats.Requests(), stats.Errors())
	fmt.Printf("hit ratio:    %.3f\n", stats.HitRatio())
	fmt.Printf("mean latency: %s (max %s)\n", stats.MeanLatency(), stats.MaxLatency())
	if *updateRate > 0 {
		fmt.Printf("updates:      %d issued, %d failed\n", updIssued, updFailed)
	}
}
