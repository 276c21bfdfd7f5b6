package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	cacheportal "repro"
	"repro/internal/obs"
)

// options size one run. The contract's run is 5 set-ups and seconds of open
// loop (untraced), or one set-up and seconds split 2:3:1 between the
// reference segment, the probed segment and the closed loop (traced).
type options struct {
	seed    int64
	seconds float64
	setups  int
	conns   int
}

// warmSeed draws the cold warm-up's pages: the same whatever the run's seed,
// so that every set-up does the same work.
const warmSeed = 1

// maxFailedShare is the share of operations that may fail or be degraded
// before a run counts as incorrect; a page with wrong bytes makes it incorrect
// at once. The allowance covers pages later than pageSLO and, at the seed
// commit, a few pages stale past the bound on the update workloads (see
// README.md, "Known defect"); an invalidator that stopped ejecting would go
// far beyond it.
const maxFailedShare = 0.005

// result is one run of one workload.
type result struct {
	Workload       string             `json:"workload"`
	Traced         bool               `json:"traced"`
	Seed           int64              `json:"seed"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Degraded       int                `json:"degraded"` // late or stale past the bound; not failed
	Late           int                `json:"late"`
	Classes        map[string]int     `json:"classes"`
	GeneratorBound bool               `json:"generator_bound"`
	ScheduleDigest string             `json:"schedule_sha256"`
	Samples        map[string]int     `json:"samples"`
	Metrics        metrics            `json:"metrics"`
	SelfUS         map[string]float64 `json:"self_us,omitempty"`
	Consistency    map[string]float64 `json:"consistency,omitempty"`
	Spans          []span             `json:"spans,omitempty"`
	Errors         []string           `json:"errors,omitempty"`
}

// env is a set-up site with its oracle.
type env struct {
	site *cacheportal.Site
	o    *oracle
	addr string // the front balancer, host:port; also the Host every request names
}

// setUp boots the site and warms its caches the way the workload will find
// them in steady state: the hot set resident, or the tier full of cold pages.
func setUp(w workload, o *oracle, conns int) (*env, error) {
	site, err := newSite()
	if err != nil {
		return nil, err
	}
	e := &env{site: site, o: o, addr: site.CacheURL[len("http://"):]}
	// A page found stale past the bound is counted once and then ejected, as
	// an operator would: the site does not recover such a page on its own,
	// and every later hit on it would fail too and say nothing new.
	o.onStalePast = func(p page) {
		for _, key := range keysOf(e.addr, p).frags {
			for _, c := range site.Caches {
				c.Invalidate(key)
			}
		}
	}
	var pages []page
	if w.cold {
		g := newPageGen(w, warmSeed)
		for i := 0; i < 3*cacheCapacity; i++ {
			pages = append(pages, g.next())
		}
	} else {
		for cat := 0; cat < hotCategories; cat++ {
			for _, s := range []servlet{light, medium, heavy} {
				pages = append(pages, page{servlet: s, cat: cat, session: -1})
			}
		}
		for cat := 0; cat < homeCategories; cat++ {
			for u := 0; u < sessions; u++ {
				pages = append(pages, page{servlet: home, cat: cat, session: u})
			}
		}
	}
	for cat := categories - canaryCategories; cat < categories; cat++ {
		pages = append(pages, page{servlet: light, cat: cat, session: -1})
	}
	for _, s := range fetchAll(e.addr, o, pages, conns) {
		if s.err != nil || s.class != fresh {
			site.Close()
			return nil, fmt.Errorf("warm %s: class %s, err %v", s.page.path(), classNames[s.class], s.err)
		}
	}
	return e, nil
}

// setUpTimed sets up n times, keeps the last site and returns the median
// set-up time, which steadies setup_s.
func setUpTimed(w workload, opt options) (*env, float64, error) {
	o := newOracle()
	var e *env
	var took []float64
	for i := 0; i < opt.setups; i++ {
		if e != nil {
			e.site.Close()
		}
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		var err error
		if e, err = setUp(w, o, opt.conns); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return e, quantile(sortedCopy(took), 0.5), nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally folds page samples into a result's operation counts.
func (r *result) tally(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.failed() || s.degraded() {
			kind := "failed"
			if s.degraded() {
				kind = "degraded"
				r.Degraded++
			} else {
				r.Failed++
			}
			if s.err == nil && s.latency > pageSLO {
				r.Late++
			}
			if len(r.Errors) < 10 {
				r.Errors = append(r.Errors, fmt.Sprintf("%s: %s %s: latency %s class %s hit %v partial %v err %v",
					kind, s.page.path(), s.page.cookie(), s.latency, classNames[s.class], s.hit, s.partial, s.err))
			}
		}
		if s.err == nil {
			r.Classes[classNames[s.class]]++
		}
	}
}

func (r *result) tallyBackground(b *background) {
	r.Attempted += b.updates + len(b.canaries)
	for _, err := range b.updateErrs {
		r.fail(err)
	}
	for _, c := range b.canaries {
		if c.err != nil {
			r.fail(c.err)
		}
	}
	r.tally(b.verifySamples)
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, "failed: "+err.Error())
	}
}

// judge sets Correct once every operation is tallied.
func (r *result) judge() {
	r.Correct = r.Classes[classNames[wrongBytes]] == 0 && float64(r.Failed+r.Degraded) <= maxFailedShare*float64(r.Attempted)
}

func newResult(w workload, opt options, traced bool) *result {
	return &result{Workload: w.name, Traced: traced, Seed: opt.seed,
		Classes: map[string]int{}, Samples: map[string]int{}, Metrics: metrics{}}
}

// pageStats are the client-side numbers of one load phase.
type pageStats struct {
	latency, hitService, missService, service, tick, lag []float64 // ms; all but service sorted
	pages, hits, partials                                int
}

func statsOf(samples []sample) pageStats {
	var st pageStats
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		st.pages++
		st.latency = append(st.latency, ms(s.latency))
		st.service = append(st.service, ms(s.service))
		st.tick = append(st.tick, ms(s.tick))
		st.lag = append(st.lag, ms(s.lag))
		if s.hit {
			st.hits++
			st.hitService = append(st.hitService, ms(s.service))
			continue
		}
		if s.partial {
			st.partials++
		}
		st.missService = append(st.missService, ms(s.service))
	}
	sort.Float64s(st.latency)
	sort.Float64s(st.hitService)
	sort.Float64s(st.missService)
	sort.Float64s(st.tick)
	sort.Float64s(st.lag)
	return st
}

// generatorBound reports a run whose numbers say more about the generator
// than the site: its clock ran late, or arrivals outran the site so the open
// loop ended with a growing queue.
func generatorBound(samples []sample, st pageStats) bool {
	if quantile(st.tick, 0.95) > 1 {
		return true
	}
	tail := samples[len(samples)-len(samples)/10:]
	var queued []float64
	for _, s := range tail {
		queued = append(queued, ms(s.latency-s.service))
	}
	return quantile(sortedCopy(queued), 0.5) > 10
}

func ejectTimes(cs []canary) []float64 {
	var out []float64
	for _, c := range cs {
		if c.err == nil {
			out = append(out, ms(c.eject))
		}
	}
	sort.Float64s(out)
	return out
}

// runUntraced measures the end-to-end metrics: one open loop, the update
// stream and the canaries beside it.
func runUntraced(w workload, opt options) (*result, error) {
	e, setup, err := setUpTimed(w, opt)
	if err != nil {
		return nil, err
	}
	defer e.site.Close()
	total := time.Duration(opt.seconds * float64(time.Second))
	sched := genSchedule(w, opt.seed, total)
	r := newResult(w, opt, false)
	r.ScheduleDigest = sched.digest()

	runtime.GC() // the loop starts from a collected heap, like every set-up
	bg, err := startBackground(e.site, e.addr, e.o, sched.updates, total, nil)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	open, err := runOpen(e.addr, e.o, sched.reads, opt.conns)
	cpu := cpuTime() - cpu0
	if err != nil {
		bg.close()
		return nil, err
	}
	bg.wait()

	r.tally(open)
	r.tallyBackground(bg)
	r.judge()
	st := statsOf(open)
	r.GeneratorBound = generatorBound(open, st)
	ejects := ejectTimes(bg.canaries)
	r.Samples["pages"], r.Samples["canaries"] = st.pages, len(ejects)

	m := r.Metrics
	m.set(endToEnd, "setup_s", setup)
	m.set(endToEnd, "hit_ratio", ratio(float64(st.hits), float64(st.pages)))
	m.set(endToEnd, "cpu_ms_per_page", ratio(ms(cpu), float64(st.pages)))
	m.set(endToEnd, "eject_p50_ms", quantile(ejects, 0.50))
	return r, nil
}

// counts are the program's counters the per-layer ratios are built from.
type counts struct {
	obs obs.Snapshot
	// Cache.Stats summed over the nodes, Server.StatsFor over the servers.
	evictions, invalidations, ejectMisses, renders int64
	mem                                            runtime.MemStats
}

func takeCounts(site *cacheportal.Site) counts {
	c := counts{obs: site.Obs.Snapshot()}
	for _, cache := range site.Caches {
		st := cache.Stats()
		c.evictions += st.Evictions
		c.invalidations += st.Invalidations
		c.ejectMisses += st.EjectMisses
	}
	for _, app := range site.Apps {
		for _, name := range servletNames {
			if st, ok := app.StatsFor(name); ok {
				c.renders += st.Requests
			}
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// sum adds every counter or gauge whose name is listed; one the site does
// not export counts as zero.
func (c counts) sum(names ...string) float64 {
	var total int64
	for _, n := range names {
		total += c.obs.Counters[n] + c.obs.Gauges[n]
	}
	return float64(total)
}

func perNode(site *cacheportal.Site, format string) []string {
	var names []string
	for i := range site.Caches {
		names = append(names, fmt.Sprintf(format, i))
	}
	return names
}

// countMetrics turns the counter deltas over a segment of pages page
// requests into the per-layer ratios.
func countMetrics(m metrics, site *cacheportal.Site, a, b counts, st pageStats) {
	d := func(names ...string) float64 { return b.sum(names...) - a.sum(names...) }
	pages := float64(st.pages)
	updates := d("invalidator.update_records_total")
	polls, local := d("invalidator.polls_total"), d("invalidator.local_decisions_total")
	ejected, ejectMiss := float64(b.invalidations-a.invalidations), float64(b.ejectMisses-a.ejectMisses)
	truncated := 0
	for i := range site.Caches {
		if _, trunc, _, _ := site.EjectLog.Since(site.EjectConsumerCursor(i)); trunc {
			truncated++
		}
	}
	var pauseMax uint64
	for i := a.mem.NumGC; i < b.mem.NumGC && i < a.mem.NumGC+uint32(len(b.mem.PauseNs)); i++ {
		if p := b.mem.PauseNs[i%uint32(len(b.mem.PauseNs))]; p > pauseMax {
			pauseMax = p
		}
	}
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	set("webcache.partial_ratio", ratio(float64(st.partials), pages))
	set("webcache.evictions_per_kpage", ratio(1000*float64(b.evictions-a.evictions), pages))
	set("webcache.eject_miss_ratio", ratio(ejectMiss, ejected+ejectMiss))
	set("cluster.forwarded_per_page", ratio(d(perNode(site, "cluster.node%d.forwards_total")...), pages))
	set("cluster.eject_truncations", float64(truncated))
	set("appserver.renders_per_page", ratio(float64(b.renders-a.renders), pages))
	set("engine.queries_per_page", ratio(d("dbserver.queries_total", "dbserver.executes_total"), pages))
	set("sniffer.pages_mapped_per_page", ratio(d("sniffer.pages_mapped_total"), pages))
	set("invalidator.polls_per_update", ratio(polls, updates))
	set("invalidator.ejects_per_update", ratio(d("invalidator.fragment_ejects_total", "invalidator.page_ejects_total"), updates))
	set("invalidator.local_decision_share", ratio(local, local+polls))
	set("invalidator.updates_per_cycle", ratio(updates, d("invalidator.cycles_total")))
	set("invalidator.cycle_errors", d("invalidator.cycle_errors_total"))
	set("feed.truncations", d("feed.requests.truncations_total", "feed.queries.truncations_total", "invalidator.truncations_total"))
	set("runtime.allocs_per_page", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), pages))
	set("runtime.gc_pause_max_ms", float64(pauseMax)/1e6)
	set("runtime.heap_mb", float64(b.mem.HeapAlloc)/(1<<20))
}

// runTraced measures the per-layer metrics: a reference segment of plain
// load, whose client-side numbers and counter deltas it reports, then a
// segment with the prober walking its ladder beside the same load.
func runTraced(w workload, opt options) (*result, error) {
	opt.setups = 1
	e, _, err := setUpTimed(w, opt)
	if err != nil {
		return nil, err
	}
	defer e.site.Close()
	total := time.Duration(opt.seconds * float64(time.Second))
	refFor, closedFor := total/3, total/6
	// One schedule, cut in two, so that the update stream runs through.
	sched := genSchedule(w, opt.seed, total-closedFor)
	cut := sort.Search(len(sched.reads), func(i int) bool { return sched.reads[i].due >= refFor })
	ref, traced := sched.reads[:cut], append([]readOp(nil), sched.reads[cut:]...)
	for i := range traced {
		traced[i].due -= refFor
	}
	r := newResult(w, opt, true)
	r.ScheduleDigest = sched.digest()

	watch, err := startWatchers(e.site)
	if err != nil {
		return nil, err
	}
	log := &spanLog{epoch: time.Now()}
	bg, err := startBackground(e.site, e.addr, e.o, sched.updates, total-closedFor, watch)
	if err != nil {
		watch.close()
		return nil, err
	}
	before := takeCounts(e.site)
	refSamples, err := runOpen(e.addr, e.o, ref, opt.conns)
	if err != nil {
		bg.close()
		return nil, err
	}
	after := takeCounts(e.site)
	if wait := time.Until(bg.start.Add(refFor)); wait > 0 {
		time.Sleep(wait)
	}

	pr, err := newProber(e.site, e.addr, e.o, log)
	if err != nil {
		bg.close()
		return nil, err
	}
	defer pr.close()
	stop := make(chan struct{})
	var probeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		probeErr = pr.run(w, opt.seed, stop)
	}()
	tracedStart := time.Now()
	tracedSamples, err := runOpen(e.addr, e.o, traced, opt.conns)
	close(stop)
	wg.Wait()
	if err != nil {
		bg.close()
		return nil, err
	}
	bg.wait()
	if probeErr != nil {
		return nil, probeErr
	}
	// Last, the closed loop, alone: under a saturating closed loop the
	// in-process invalidator gets too little of the two cores, ejects late,
	// and the throughput of an update workload flips between two values
	// (900 or 4000 pages/s on update_storm) from run to run.
	runtime.GC()
	closed, capacity := runClosed(e.addr, e.o, w, opt.seed, opt.conns, closedFor)
	// Every 16th page of the traced segment is kept as a span, like a
	// head-sampled request trace.
	for i := 0; i < len(tracedSamples); i += 16 {
		s := tracedSamples[i]
		due := tracedStart.Add(traced[i].due)
		log.add("edge.page", due, due.Add(s.latency), -1, -1-i)
	}
	for i, c := range bg.canaries {
		if !c.staged {
			continue
		}
		t := bg.start.Add(c.at)
		root := log.add("canary", t, t.Add(c.commit+c.eject), -1, -1000000-i)
		for j, d := range c.stages() {
			log.add(invalidationLadder[j], t, t.Add(d), root, -1000000-i)
			t = t.Add(d)
		}
	}

	r.tally(refSamples)
	r.tally(tracedSamples)
	r.tally(closed)
	r.tally(pr.samples)
	r.tallyBackground(bg)
	r.judge()
	st, tst := statsOf(refSamples), statsOf(tracedSamples)
	r.GeneratorBound = generatorBound(refSamples, st)
	r.Spans = log.spans

	m := r.Metrics
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	r.SelfUS = map[string]float64{}
	for _, layer := range requestLadder {
		d := sortedCopy(pr.dur[layer])
		r.Samples[layer] = len(d)
		set(layer+"_p50_us", quantile(d, 0.50))
		set(layer+"_p95_us", quantile(d, 0.95))
	}
	for _, layer := range requestLadder {
		r.SelfUS[layer] = m[layer+"_p50_us"].Value
		if b := below[layer]; b != "" {
			r.SelfUS[layer] -= m[b+"_p50_us"].Value
		}
	}
	stages := make([][]float64, len(invalidationLadder))
	for _, c := range bg.canaries {
		if c.staged {
			for j, d := range c.stages() {
				stages[j] = append(stages[j], us(d))
			}
		}
	}
	for j, layer := range invalidationLadder {
		d := sortedCopy(stages[j])
		r.Samples[layer] = len(d)
		r.SelfUS[layer] = quantile(d, 0.50)
		set(layer+"_p50_us", quantile(d, 0.50))
		set(layer+"_p95_us", quantile(d, 0.95))
	}
	countMetrics(m, e.site, before, after, st)
	ejects := ejectTimes(bg.canaries)
	r.Samples["reference_pages"], r.Samples["traced_pages"], r.Samples["closed_pages"], r.Samples["canaries"] = st.pages, tst.pages, len(closed), len(ejects)
	set("edge.capacity_rps", capacity)
	set("edge.hit_resp_ms", quantile(st.hitService, 0.50))
	set("edge.miss_resp_ms", quantile(st.missService, 0.50))
	set("edge.exp_resp_ms", mean(st.service))
	set("edge.page_p50_ms", quantile(st.latency, 0.50))
	set("edge.page_p99_ms", quantile(st.latency, 0.99))
	set("edge.page_p95_ms", quantile(st.latency, 0.95))
	set("edge.eject_p95_ms", quantile(ejects, 0.95))
	set("edge.late_pages", float64(r.Late))
	set("oracle.stale_past_pages", float64(r.Classes[classNames[stalePast]]))
	set("edge.miss_db_ms", m["driver.query_p50_us"].Value/1000)
	set("loadgen.sched_lag_p95_ms", quantile(st.tick, 0.95))
	set("loadgen.send_lag_p95_ms", quantile(st.lag, 0.95))
	set("loadgen.trace_overhead_ratio", ratio(quantile(tst.latency, 0.50), quantile(st.latency, 0.50)))

	// What the ladders must add up to, under the same load. The miss path's
	// self times, plus the front balancer's, telescope to one median miss
	// through the front; the invalidation stages after the commit to one
	// median commit-to-eject.
	missPath := r.SelfUS["balancer.front"]
	for _, layer := range requestLadder[missPathFrom:] {
		missPath += r.SelfUS[layer]
	}
	var stageSum float64
	for _, layer := range invalidationLadder[1:] {
		stageSum += r.SelfUS[layer]
	}
	r.Consistency = map[string]float64{
		"request_ladder_over_miss_resp":      ratio(missPath/1000, quantile(tst.missService, 0.50)),
		"invalidation_ladder_over_eject_p50": ratio(stageSum/1000, quantile(ejects, 0.50)),
	}
	return r, nil
}
