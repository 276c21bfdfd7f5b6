package main

import (
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the pacer child, which the open
// loop starts from os.Executable, and shrinks the site for every test.
func TestMain(m *testing.M) {
	if os.Getenv(pacerEnv) != "" {
		pacerMain()
		return
	}
	shrink()
	os.Exit(m.Run())
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := genSchedule(w, 7, 2*time.Second)
		b := genSchedule(w, 7, 2*time.Second)
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave two schedules", w.name)
		}
		if c := genSchedule(w, 8, 2*time.Second); c.digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if len(a.reads) == 0 || (w.updateRate > 0) != (len(a.updates) > 0) {
			t.Errorf("%s: %d reads, %d updates", w.name, len(a.reads), len(a.updates))
		}
	}
}

func TestOracleDatesResponses(t *testing.T) {
	o := newOracle()
	p := page{servlet: medium, cat: 3, session: -1}
	old := o.m.render(medium, 3)
	t0 := time.Now()
	if c := o.classify(p, old, t0); c != fresh {
		t.Fatalf("seeded body: %s", classNames[c])
	}
	u := update{table: large, cat: 3, insert: true, r: row{id: firstUpdateID, ver: 1}}
	o.begin(u)
	if c := o.classify(p, old, time.Now()); c != fresh {
		t.Errorf("old body while the update is in flight: %s", classNames[c])
	}
	done := time.Now()
	o.end(u, done)
	cur := o.m.render(medium, 3)
	for _, tc := range []struct {
		body []byte
		sent time.Time
		want class
	}{
		{cur, done.Add(time.Millisecond), fresh},
		{old, done.Add(-time.Millisecond), fresh},
		{old, done.Add(stalenessBound / 2), staleWithin},
		{old, done.Add(2 * stalenessBound), stalePast},
		{[]byte("<!-- 0 rows -->\n"), done, wrongBytes},
	} {
		if c := o.classify(p, tc.body, tc.sent); c != tc.want {
			t.Errorf("sent %s after commit: %s, want %s", tc.sent.Sub(done), classNames[c], classNames[tc.want])
		}
	}
	hp := page{servlet: home, cat: 3, session: 5}
	if c := o.classify(hp, assembleHome(cur, "u5"), done.Add(time.Millisecond)); c != fresh {
		t.Errorf("home page with the current listing: %s", classNames[c])
	}
	if c := o.classify(hp, assembleHome(cur, "u6"), done); c != wrongBytes {
		t.Errorf("another session's home page: %s", classNames[c])
	}
}

// TestEveryDeclaredMetricIsEmitted runs all four workloads at -short size,
// untraced and traced, and checks the output against BENCHMARK.json: every
// workload and metric it declares is emitted exactly once, finite, with the
// declared unit, and nothing else is.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, group := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	check := func(t *testing.T, r *result, declared []specMetric) {
		if n := r.Classes[classNames[wrongBytes]]; n > 0 {
			t.Errorf("%d pages with wrong bytes: %v", n, r.Errors)
		}
		if r.Attempted < 1 {
			t.Errorf("attempted %d operations", r.Attempted)
		}
		if len(r.Metrics) != len(declared) {
			t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(declared))
		}
		for _, d := range declared {
			v, ok := r.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: declared, not emitted", d.Name)
			case v.Unit != d.Unit:
				t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: not finite", d.Name)
			}
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			opt := options{seed: 1, seconds: 0.9, setups: 1, conns: 2}
			untraced, err := runUntraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			check(t, untraced, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if untraced.Metrics[m.Name].Value == 0 {
					t.Errorf("%s is zero", m.Name)
				}
			}
			traced, err := runTraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, spec.PerLayer)
			if len(traced.Spans) == 0 {
				t.Error("the traced run kept no spans")
			}
		})
	}
}
