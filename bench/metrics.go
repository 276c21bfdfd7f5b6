package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported number. BENCHMARK.json declares the same
// names and units; the self-test fails when the two lists differ.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the site would see, reported by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"hit_ratio", "ratio"},
	{"cpu_ms_per_page", "ms"},
	{"eject_p50_ms", "ms"},
}

// requestLadder and invalidationLadder are the probed layers, outermost
// first (the hit path, then from index 5 the miss path); each is reported as
// <name>_p50_us and <name>_p95_us. below names the layer directly beneath
// each, whose median is subtracted to get the layer's self time ("" for a
// bottom layer).
var requestLadder = []string{
	"balancer.front", "webcache.node_hit", "cluster.forward", "webcache.lookup", "fragment.assemble",
	"webcache.node_miss", "balancer.origin", "appserver.render", "driver.query", "wire.query", "engine.exec",
}

// missPathFrom is where requestLadder's miss path starts.
const missPathFrom = 5

var below = map[string]string{
	"balancer.front":     "webcache.node_hit",
	"cluster.forward":    "webcache.node_hit",
	"webcache.node_hit":  "webcache.lookup",
	"webcache.lookup":    "",
	"fragment.assemble":  "",
	"webcache.node_miss": "balancer.origin",
	"balancer.origin":    "appserver.render",
	"appserver.render":   "driver.query",
	"driver.query":       "wire.query",
	"wire.query":         "engine.exec",
	"engine.exec":        "",
}

var invalidationLadder = []string{"engine.commit", "feed.deliver", "invalidator.decide", "cluster.eject_apply"}

// perLayer are the single-layer numbers, reported by the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string{}, requestLadder...), invalidationLadder...) {
		defs = append(defs, metricDef{l + "_p50_us", "us"}, metricDef{l + "_p95_us", "us"})
	}
	return append(defs,
		metricDef{"webcache.partial_ratio", "ratio"},
		metricDef{"webcache.evictions_per_kpage", "count/kpage"},
		metricDef{"webcache.eject_miss_ratio", "ratio"},
		metricDef{"cluster.forwarded_per_page", "count/page"},
		metricDef{"cluster.eject_truncations", "count"},
		metricDef{"appserver.renders_per_page", "count/page"},
		metricDef{"engine.queries_per_page", "count/page"},
		metricDef{"sniffer.pages_mapped_per_page", "count/page"},
		metricDef{"invalidator.polls_per_update", "count/update"},
		metricDef{"invalidator.ejects_per_update", "count/update"},
		metricDef{"invalidator.local_decision_share", "ratio"},
		metricDef{"invalidator.updates_per_cycle", "count/cycle"},
		metricDef{"invalidator.cycle_errors", "count"},
		metricDef{"feed.truncations", "count"},
		metricDef{"runtime.allocs_per_page", "count/page"},
		metricDef{"runtime.gc_pause_max_ms", "ms"},
		metricDef{"runtime.heap_mb", "MB"},
		metricDef{"edge.hit_resp_ms", "ms"},
		metricDef{"edge.miss_resp_ms", "ms"},
		metricDef{"edge.exp_resp_ms", "ms"},
		metricDef{"edge.page_p50_ms", "ms"},
		metricDef{"edge.page_p99_ms", "ms"},
		metricDef{"edge.miss_db_ms", "ms"},
		metricDef{"edge.page_p95_ms", "ms"},
		metricDef{"edge.eject_p95_ms", "ms"},
		metricDef{"edge.capacity_rps", "1/s"},
		metricDef{"edge.late_pages", "count"},
		metricDef{"oracle.stale_past_pages", "count"},
		metricDef{"loadgen.sched_lag_p95_ms", "ms"},
		metricDef{"loadgen.send_lag_p95_ms", "ms"},
		metricDef{"loadgen.trace_overhead_ratio", "ratio"},
	)
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to value; set panics on a name the lists above
// do not declare, so a typo cannot add an undeclared metric.
type metrics map[string]value

func (m metrics) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m[name] = value{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// quantile is the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// program runs there or in bench/.
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}
