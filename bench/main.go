// Command bench is the site benchmark: it boots the production topology in
// one process over loopback TCP, drives it with seeded reads and updates,
// checks every response against an oracle and reports the end-to-end and
// per-layer metrics BENCHMARK.json declares. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if os.Getenv(pacerEnv) != "" {
		pacerMain()
		return
	}
	if os.Getenv(idlerEnv) != "" {
		idlerMain()
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 24, "measuring time of one run")
		trace   = flag.Int("trace", -1, "0: one untraced run, end-to-end metrics; 1: one traced run, per-layer metrics; default: both, full report")
		short   = flag.Bool("short", false, "a small site and sub-second phases, for the self-test")
		out     = flag.String("out", "", "also write the full report to this file")
		compare = flag.Bool("compare", false, "compare two full reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}
	opt := options{seed: *seed, seconds: *seconds, setups: 5, conns: connsPerCPU * runtime.NumCPU()}
	if *short {
		shrink()
		opt.seconds, opt.setups = 1.2, 1
	}
	stopIdlers = startIdlers()
	defer stopIdlers()

	if *trace == 0 || *trace == 1 {
		// The driver's contract: one workload, one run, one result line.
		if len(selected) != 1 {
			fatal(fmt.Errorf("-trace %d needs -workload", *trace))
		}
		run := runUntraced
		if *trace == 1 {
			run = runTraced
		}
		r, err := run(selected[0], opt)
		if err != nil {
			fatal(err)
		}
		printResult(r)
		line, err := json.Marshal(struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Metrics   metrics `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !r.Correct {
			stopIdlers()
			os.Exit(1)
		}
		return
	}

	rep := report{Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: opt.seconds}
	correct := true
	for _, w := range selected {
		untraced, err := runUntraced(w, opt)
		if err != nil {
			fatal(err)
		}
		printResult(untraced)
		topt := opt
		topt.seconds = opt.seconds / 2
		traced, err := runTraced(w, topt)
		if err != nil {
			fatal(err)
		}
		printResult(traced)
		correct = correct && untraced.Correct && traced.Correct
		rep.Runs = append(rep.Runs, untraced, traced)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// Spans go to the file only; the console line stays readable.
	for _, r := range rep.Runs {
		r.Spans = nil
	}
	raw, _ = json.Marshal(rep)
	fmt.Println(string(raw))
	if !correct {
		stopIdlers()
		os.Exit(1)
	}
}

// report is the full result of one invocation. It claims nothing: a change
// that claims a gain compares two of these.
type report struct {
	Commit     string    `json:"commit"`
	Date       string    `json:"date"`
	Go         string    `json:"go"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Runs       []*result `json:"runs"`
	Claim      *string   `json:"claim"`
}

// shrink makes the site small enough to boot in a tenth of a second. The
// cache keeps its size, so the hot set still fits; the cold key space is
// then only as large as the tier.
func shrink() { categories = 4*hotCategories + canaryCategories }

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printResult(r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (%s, seed %d): attempted %d, failed %d, degraded %d, correct %v, generator_bound %v\n",
		r.Workload, kind, r.Seed, r.Attempted, r.Failed, r.Degraded, r.Correct, r.GeneratorBound)
	fmt.Printf("   classes %v, samples %v\n", r.Classes, r.Samples)
	if r.Consistency != nil {
		fmt.Printf("   consistency %v\n", r.Consistency)
	}
	for _, e := range r.Errors {
		fmt.Printf("   %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		line := fmt.Sprintf("   %-36s %14.4f %s", n, v.Value, v.Unit)
		if layer := strings.TrimSuffix(n, "_p50_us"); layer != n {
			line += fmt.Sprintf("   (self %.1f us, n=%d)", r.SelfUS[layer], r.Samples[layer])
		}
		fmt.Println(line)
	}
}

// stopIdlers stops the idlers once main has started them; every way out of
// the program goes through it.
var stopIdlers = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	stopIdlers()
	os.Exit(2)
}
