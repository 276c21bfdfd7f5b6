package invalidator

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/engine"
	"repro/internal/fragment"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/predindex"
	"repro/internal/sniffer"
	"repro/internal/sqlparser"
	"repro/internal/trace"
	"repro/internal/wire"
)

// LogPuller abstracts how the invalidator pulls the database update log
// (§4.2.1 "pulls the update logs from the database").
type LogPuller interface {
	PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error)
}

// LogNotifier is the event-driven trigger: Changed returns a channel that is
// closed when log records may have arrived since the call (re-obtain it after
// each wakeup — close-and-replace broadcast semantics). engine.UpdateLog and
// wire.LogFeed both satisfy it; a plain polling client does not, and stays on
// the timer.
type LogNotifier interface {
	Changed() <-chan struct{}
}

// EngineLogPuller reads an in-process update log.
type EngineLogPuller struct{ Log *engine.UpdateLog }

// PullSince implements LogPuller. SinceNext observes records and the resume
// cursor atomically — reading NextLSN separately would race with appends and
// skip records forever.
func (p EngineLogPuller) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	recs, trunc, next, _ := p.Log.SinceNext(lsn)
	return recs, trunc, next, nil
}

// Changed implements LogNotifier.
func (p EngineLogPuller) Changed() <-chan struct{} { return p.Log.Changed() }

// WireLogPuller reads the update log over the wire protocol.
type WireLogPuller struct{ Client *wire.Client }

// PullSince implements LogPuller.
func (p WireLogPuller) PullSince(lsn int64) ([]engine.UpdateRecord, bool, int64, error) {
	return p.Client.LogSince(lsn)
}

// Mapper is the sniffer-facing half of the cycle: Run performs one mapping
// pass and returns how many request entries were mapped; TakeTruncated
// reports-and-clears whether a source log lost entries before they were
// read. *sniffer.Mapper implements it; tests and fault injectors substitute
// their own.
type Mapper interface {
	Run() int
	TakeTruncated() bool
}

// Config wires an Invalidator.
type Config struct {
	// Map is the sniffer's QI/URL map (required).
	Map *sniffer.QIURLMap
	// Mapper, when set, is run at the start of every cycle so sniffing and
	// invalidation share the cadence (they stay logically independent).
	Mapper Mapper
	// Puller reads the database update log (required).
	Puller LogPuller
	// Poller executes polling queries: the DBMS itself or a middle-tier
	// data cache (§2.4). Without one, undecidable tuples invalidate
	// conservatively.
	Poller Poller
	// Ejector delivers invalidation messages (required).
	Ejector Ejector
	// Registry may be pre-populated via RegisterType; nil creates one.
	Registry *Registry
	// Policies may carry administrator rules; nil creates defaults.
	Policies *Policies
	// Indexes are maintained external indexes; nil creates an empty set.
	Indexes *IndexSet
	// PollBudget bounds polling time per cycle (0 = unbounded); exceeding
	// it degrades to conservative invalidation (§4.2.2). Under parallel
	// evaluation the budget is a token bucket shared by all workers: the
	// cumulative DBMS polling time per cycle stays bounded no matter how
	// many polls run at once.
	PollBudget time.Duration
	// Workers bounds how many (query type × delta table) evaluation units
	// run concurrently within one cycle (§4.2.2 scalability). 0 defaults to
	// GOMAXPROCS; 1 restores strictly sequential evaluation. The
	// invalidated page set is identical at any worker count — only
	// throughput changes.
	Workers int
	// AdviceThreshold is the existence-poll count after which a maintained
	// index is recommended (0 = default 16).
	AdviceThreshold int64
	// AutoIndex, when true, acts on the advice automatically: once a
	// (table, column) pair crosses AdviceThreshold, the invalidator loads
	// and maintains the index itself (§4.1's self-tuning, applying the
	// paper's index criteria without an administrator).
	AutoIndex bool
	// DisablePredIndex turns off the predicate index and restores the
	// per-instance scan in evalType. The invalidated page set is identical
	// either way (the equivalence property tests enforce it); the flag
	// exists for A/B comparison, the registry-scale benchmark, and as an
	// escape hatch.
	DisablePredIndex bool
	// BreakerThreshold is the circuit breaker on the ejector: after this
	// many consecutive cycles whose eject round failed, the invalidator
	// stops trusting precise ejection and falls back to a conservative bulk
	// flush (EjectAll) when the ejector supports it — trading cache content
	// for the §4.2.4 guarantee that no stale page outlives its retry loop.
	// 0 defaults to DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// Obs receives the invalidator's metrics (cycle phases, poll counts,
	// and the commit-to-eject staleness histograms); nil creates a private
	// registry, so instrumentation is always on — it costs atomic adds
	// only.
	Obs *obs.Registry
	// Tracer, when set, records pipeline spans for sampled traces: the
	// cycle phases (sniffer.map, pull, analyze, poll, eject) attach to each
	// sampled update record's context, staleness samples carry their trace
	// as histogram exemplars, and eject failures force-sample the affected
	// traces so the retry/breaker chain that explains a stale page is
	// recorded even when the head decision was "skip". nil = tracing off.
	Tracer *trace.Tracer
}

// DefaultBreakerThreshold is how many consecutive failed eject rounds open
// the ejector circuit breaker when Config.BreakerThreshold is unset.
const DefaultBreakerThreshold = 3

// Report summarizes one invalidation cycle.
type Report struct {
	MappedPages    int // request-log entries the mapper processed
	PagesIngested  int // QI/URL map changes consumed
	UpdateRecords  int // update-log records pulled
	DeltaTuples    int // tuples across all delta tables
	Polls          int // polling queries sent to the poller
	PollsPrepared  int // polls issued through a prepared (StmtPoller) path
	PollsDeduped   int // polls answered from the per-cycle dedup cache
	PollsDenied    int // polls refused because the budget ran out
	IndexHits      int // polls answered by maintained indexes
	PollTime       time.Duration
	LocalDecisions int // tuple×type decisions made without polling
	Invalidated    int // pages ejected
	// FragmentEjects is how many of the Invalidated keys named a fragment
	// or assembly template rather than a whole page — the share of eject
	// traffic operating below page granularity.
	FragmentEjects int
	Conservative   int // instance invalidations decided conservatively
	// Truncated is set when a source log (request, query, or update) lost
	// entries before this cycle read them; the cycle responded by flushing
	// every potentially affected page.
	Truncated bool
	EjectErr  error
	Duration  time.Duration
}

// Invalidator orchestrates the §4 pipeline. Cycle is not safe for
// concurrent invocation; Run drives it from a single goroutine. Within one
// cycle, independent (query type × delta table) units are evaluated by the
// cycle's goroutine and at most Config.Workers-1 helpers, and polling
// queries run concurrently with in-flight deduplication.
type Invalidator struct {
	cfg      Config
	registry *Registry
	policies *Policies
	indexes  *IndexSet
	advice   *adviceTracker

	obs            *obs.Registry
	met            invMetrics
	stalenessHists map[string]*obs.Histogram // servlet → staleness histogram

	// pred is the predicate index over live instances (nil when
	// Config.DisablePredIndex): evalType probes it with delta column
	// values instead of scanning InstancesOf.
	pred *predIndex

	// typesBuf and schedPrio are Cycle-lifetime scratch buffers (Cycle is
	// single-invocation; only the eval units run on workers), keeping the
	// per-delta schedule build allocation-free.
	typesBuf  []*QueryType
	schedPrio []float64

	// spawn starts a Cycle helper; tests substitute it to control when
	// helpers run.
	spawn func(func())

	mapVersion int64
	lastLSN    int64
	pending    []string // keys whose ejection failed; retried next cycle
	// pendingStamp carries each pending key's freshness stamp across retry
	// cycles, so a retried eject still reports its true commit-to-eject
	// latency.
	pendingStamp map[string]time.Time
	// pendingCtx carries each pending key's trace context alongside its
	// stamp: the retry and breaker spans of later cycles parent on it, so
	// the trace explains why the page's eject was late.
	pendingCtx map[string]trace.Context
	// flushPending records that a truncation was observed but the
	// compensating cache flush has not landed yet. It survives across
	// cycles: mappings are only destroyed after the flush succeeds, because
	// dropping them first would leave cached pages nothing can ever
	// invalidate (permanent staleness).
	flushPending bool
	// ejectFailStreak counts consecutive cycles whose eject round returned
	// an error; it feeds the circuit breaker and resets on any success.
	ejectFailStreak int
}

// New creates an Invalidator from cfg.
func New(cfg Config) *Invalidator {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Policies == nil {
		cfg.Policies = NewPolicies(DefaultThresholds())
	}
	if cfg.Indexes == nil {
		cfg.Indexes = NewIndexSet()
	}
	if cfg.AdviceThreshold <= 0 {
		cfg.AdviceThreshold = 16
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	cfg.Obs.GaugeFunc("invalidator.registry.generation", cfg.Registry.Generation)
	cfg.Obs.GaugeFunc("invalidator.registry.parse_hits", func() int64 { h, _ := cfg.Registry.ParseCacheStats(); return h })
	cfg.Obs.GaugeFunc("invalidator.registry.parse_misses", func() int64 { _, m := cfg.Registry.ParseCacheStats(); return m })
	inv := &Invalidator{
		cfg:            cfg,
		registry:       cfg.Registry,
		policies:       cfg.Policies,
		indexes:        cfg.Indexes,
		advice:         newAdviceTracker(),
		obs:            cfg.Obs,
		met:            newInvMetrics(cfg.Obs),
		stalenessHists: make(map[string]*obs.Histogram),
		pendingStamp:   make(map[string]time.Time),
		pendingCtx:     make(map[string]trace.Context),
		lastLSN:        1,
		spawn:          func(f func()) { go f() },
	}
	if !cfg.DisablePredIndex {
		inv.pred = newPredIndex(inv.met.predRebuilds)
		// SetObserver replays instances that are already live, so wiring
		// onto a pre-populated registry starts coherent.
		inv.registry.SetObserver(inv.pred)
		cfg.Obs.GaugeFunc("invalidator.predindex.size", inv.pred.size.Load)
		cfg.Obs.GaugeFunc("invalidator.predindex.types", inv.pred.typeCount)
	}
	return inv
}

// Obs exposes the invalidator's metrics registry.
func (inv *Invalidator) Obs() *obs.Registry { return inv.obs }

// Registry exposes the registration module.
func (inv *Invalidator) Registry() *Registry { return inv.registry }

// Policies exposes the policy engine.
func (inv *Invalidator) Policies() *Policies { return inv.policies }

// Indexes exposes the maintained index set.
func (inv *Invalidator) Indexes() *IndexSet { return inv.indexes }

// Advise lists maintained-index recommendations collected so far.
func (inv *Invalidator) Advise() []Advice { return inv.advice.advise(inv.cfg.AdviceThreshold) }

// CacheableServlet is the feedback hook handed to the application server.
func (inv *Invalidator) CacheableServlet(name string) bool {
	return inv.policies.CacheableServlet(name)
}

// maxCycleBackoffFactor caps the error backoff of the cycle loop at this
// multiple of the configured interval: enough to stop hammering a dead
// dependency, small enough that recovery is noticed quickly.
const maxCycleBackoffFactor = 16

// NextCycleDelay returns how long a cycle loop should wait before the next
// cycle: the configured interval after a success, capped exponential
// backoff with jitter after failures consecutive errors. RunLoop uses it, so
// the portal's loop and invalidatord degrade the same way.
func NextCycleDelay(interval time.Duration, failures int) time.Duration {
	if failures <= 0 {
		return interval
	}
	return backoff.Delay(interval, failures, maxCycleBackoffFactor*interval)
}

// EventStalenessBound is the commit-to-eject staleness an event-driven
// deployment advertises to the application server's §4.1.3 temporal-
// sensitivity check (appserver.MinSensitivity): a servlet that tolerates
// less than this is not cached. It is a promise, not a delay — nothing in the
// loop waits for it; an idle site ejects in well under a millisecond.
const EventStalenessBound = 10 * time.Millisecond

// RunLoop is the shared cycle-cadence loop: run cycle every interval, and —
// when notifier is non-nil — also the moment the notifier signals new log
// records. The loop is self-clocked: there is no coalescing window. Each
// iteration obtains the notification channel BEFORE running the cycle and
// only then waits on it, so a record that commits while a cycle is in flight
// closes the already-obtained channel and the next cycle starts as soon as
// this one returns, carrying everything that arrived meanwhile in one batch.
// Batch size therefore grows with load the way group commit does: an idle
// site runs one cycle per record, a saturated invalidator one cycle per
// cycle-time. The first iteration is a catch-up cycle for the same
// no-missed-wakeup reason — appends from before the loop existed closed only
// channels nobody held. Without a notifier the loop is the pure timer: first
// cycle one interval in.
//
// The interval timer is always retained as a fallback cadence. Consecutive
// cycle errors stretch the cadence through NextCycleDelay, and while the loop
// is backing off it ignores the notifier — a dead dependency under steady
// updates is retried on the backoff schedule, not once per commit; the first
// successful cycle restores immediate firing. Every deployment — in-process, portal, invalidatord —
// degrades the same way. onEvent, when non-nil, is called for each wake-up
// the notifier (not the timer) caused. RunLoop blocks until stop closes.
func RunLoop(interval time.Duration, notifier LogNotifier, stop <-chan struct{}, cycle func() error, onEvent func()) {
	timer := time.NewTimer(interval)
	defer timer.Stop()
	if notifier == nil {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
	}
	failures := 0
	for {
		var changed <-chan struct{} // nil never fires: pure timer, or backing off
		if notifier != nil {
			changed = notifier.Changed()
		}
		if err := cycle(); err != nil {
			failures++
			changed = nil
		} else {
			failures = 0
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(NextCycleDelay(interval, failures))
		select {
		case <-stop:
			return
		default:
		}
		select {
		case <-stop:
			return
		case <-timer.C:
		case <-changed:
			if onEvent != nil {
				onEvent()
			}
		}
	}
}

// Run drives cycle on the RunLoop cadence until stop closes, counting
// event-triggered cycles in invalidator.event_cycles_total. cycle is the
// deployment's wrapper around inv.Cycle (the portal serializes it against
// synchronous callers, invalidatord syncs its log mirror first).
func (inv *Invalidator) Run(interval time.Duration, notifier LogNotifier, stop <-chan struct{}, cycle func() error) {
	RunLoop(interval, notifier, stop, cycle, inv.met.eventCycles.Inc)
}

// maxTracedPerCycle bounds how many recording traces get per-trace phase
// spans in one cycle; the tail still ejects correctly, it just goes
// unnarrated.
const maxTracedPerCycle = 256

// pageImpact is one impacted page's staleness origin: the commit stamp of
// the oldest update that made it stale, and that update's trace context.
type pageImpact struct {
	stamp time.Time
	ctx   trace.Context
}

// Cycle performs one sniff-ingest / update-pull / analyze / poll / eject
// round and returns its report.
func (inv *Invalidator) Cycle() (rep Report, retErr error) {
	start := time.Now()
	defer func() {
		m := &inv.met
		m.cycles.Inc()
		m.cycleSeconds.ObserveDuration(rep.Duration)
		m.mapperPages.Add(int64(rep.MappedPages))
		m.pagesIngested.Add(int64(rep.PagesIngested))
		m.updateRecords.Add(int64(rep.UpdateRecords))
		m.deltaTuples.Add(int64(rep.DeltaTuples))
		m.polls.Add(int64(rep.Polls))
		m.pollsPrepared.Add(int64(rep.PollsPrepared))
		m.pollsDeduped.Add(int64(rep.PollsDeduped))
		m.pollsDenied.Add(int64(rep.PollsDenied))
		m.indexHits.Add(int64(rep.IndexHits))
		m.localDecisions.Add(int64(rep.LocalDecisions))
		m.invalidated.Add(int64(rep.Invalidated))
		m.conservative.Add(int64(rep.Conservative))
		m.retryDepth.Set(int64(len(inv.pending)))
		m.ejectFailStreak.Set(int64(inv.ejectFailStreak))
		if rep.Truncated {
			m.truncations.Inc()
		}
		if rep.EjectErr != nil {
			m.ejectErrors.Inc()
		}
		if retErr != nil {
			m.cycleErrors.Inc()
		}
	}()

	// 1. Pull the update log (§4.2.1), before the mapper reads its logs:
	// every record pulled here committed before the mapping pass starts,
	// so the pass sees every request logged before any of these commits.
	// Mapping first would let a page fetched and then updated between the
	// two steps have its update analyzed while the page is still
	// unmapped, leaving it stale for good.
	tr := inv.cfg.Tracer // nil-safe: every method is a no-op when nil
	pullStart := time.Now()
	recs, truncated, next, pullErr := inv.cfg.Puller.PullSince(inv.lastLSN)
	pullEnd := time.Now()

	// 2. Give the sniffer a chance to map fresh requests. If a source log
	// was truncated before the mapper read it, pages may be cached with no
	// QI/URL mapping — nothing can ever invalidate them precisely, so the
	// only sound recovery is to flush the caches outright. The flush must
	// LAND before any mapping is destroyed: flushPending carries the
	// obligation across cycles when the flush itself fails, so a faulty
	// ejector delays recovery but never converts it into permanent
	// staleness.
	var mapStart, mapEnd time.Time
	if inv.cfg.Mapper != nil {
		mapStart = time.Now()
		rep.MappedPages = inv.cfg.Mapper.Run()
		mapEnd = time.Now()
		if inv.cfg.Mapper.TakeTruncated() {
			inv.flushPending = true
		}
	}
	if inv.flushPending {
		rep.Truncated = true
		if bulk, ok := inv.cfg.Ejector.(BulkEjector); ok {
			if err := bulk.EjectAll(); err != nil {
				rep.EjectErr = err // keep all state; retry the flush next cycle
			} else {
				inv.flushPending = false
				for _, k := range inv.registry.Pages() {
					inv.cfg.Map.Remove(k)
					inv.registry.UnlinkPage(k)
				}
			}
		}
		// Without bulk support, every known page is routed through the
		// ordinary eject machinery below (marked with an unknown-origin
		// stamp), so failures land in the pending retry list instead of
		// being discarded.
	}

	// 3. Ingest QI/URL map changes (§4.1.2 online registration).
	inv.ingestMap(&rep)

	if pullErr != nil {
		rep.Duration = time.Since(start)
		return rep, pullErr
	}
	rep.UpdateRecords = len(recs)
	rep.Truncated = rep.Truncated || truncated
	inv.indexes.Apply(recs)
	inv.lastLSN = next

	// tracedCtxs are the recording traces in this batch. Cycle phases are
	// shared work — one mapper run, one pull, one analyze serve every
	// record — so each recording trace gets its own copy of the phase
	// spans, parented on its feed (or commit) span. Bounded so a huge
	// burst of sampled records cannot turn span recording into the cycle's
	// dominant cost.
	var tracedCtxs []trace.Context
	if tr != nil {
		for _, rec := range recs {
			if tr.Recording(rec.Trace) {
				tracedCtxs = append(tracedCtxs, trace.Context{Trace: rec.Trace, Span: rec.Span})
				if len(tracedCtxs) >= maxTracedPerCycle {
					break
				}
			}
		}
		for _, ctx := range tracedCtxs {
			if !mapStart.IsZero() {
				tr.Record(ctx, "sniffer.map", mapStart, mapEnd,
					trace.Attr{K: "pages", V: strconv.Itoa(rep.MappedPages)})
			}
			tr.Record(ctx, "invalidator.pull", pullStart, pullEnd,
				trace.Attr{K: "records", V: strconv.Itoa(len(recs))})
		}
	}

	// impacted maps each page to its freshness stamp — the commit time of
	// the oldest update that made it stale — and that update's trace
	// context, so the eject can be attributed to the commit that caused
	// it. A zero stamp means the origin is unknown (log truncation) and no
	// staleness sample is recorded; unknown dominates when causes merge,
	// but a known trace context survives the merge (better to attribute
	// the eject to one real cause than to none).
	// The map is allocated on the first mark: an event-driven loop runs one
	// cycle per update, and most cycles (and every idle timer-fallback cycle)
	// impact nothing.
	var impacted map[string]pageImpact
	mark := func(key string, stamp time.Time, ctx trace.Context) {
		if impacted == nil {
			impacted = make(map[string]pageImpact)
		}
		prev, ok := impacted[key]
		switch {
		case !ok:
			impacted[key] = pageImpact{stamp: stamp, ctx: ctx}
		case prev.stamp.IsZero() || stamp.IsZero():
			if !prev.ctx.Valid() {
				prev.ctx = ctx
			}
			prev.stamp = time.Time{}
			impacted[key] = prev
		case stamp.Before(prev.stamp):
			impacted[key] = pageImpact{stamp: stamp, ctx: ctx}
		}
	}
	if truncated {
		// The log no longer reaches back to our last position: anything
		// cached may be stale.
		for _, k := range inv.registry.Pages() {
			mark(k, time.Time{}, trace.Context{})
		}
		rep.Conservative += len(impacted)
	} else if len(recs) > 0 {
		analyzeStart := time.Now()
		deltas := engine.BuildDeltas(recs)
		// Tables with deletions in this batch: polling runs against the
		// post-update state, so a deleted tuple whose join counterpart was
		// deleted in the same batch would poll-miss. evalType goes
		// conservative for exactly that combination.
		delTables := make(map[string]bool)
		for _, d := range deltas {
			if len(d.Minus) > 0 {
				delTables[lowerTableName(d.Table)] = true
			}
		}
		pr := newPollRun(inv.cfg.Poller, inv.indexes, inv.cfg.PollBudget, inv.met.pollSeconds)

		// Build the cycle's schedule up front: one work unit per (query
		// type × delta table) pair, in delta order with each table's types
		// in §4.2.2 priority order. Units are independent — the registry is
		// not mutated until the eject step — so workers claim them from the
		// front of this list; high-value units start first, and when the
		// shared polling budget runs out, the (lowest-value) tail degrades
		// to conservative invalidation, exactly the sequential trade-off.
		type workUnit struct {
			d     *engine.Delta
			qt    *QueryType
			insts []*Instance // scan-mode snapshot; nil when the index drives
			n     int         // live instances at scheduling time
		}
		var units []workUnit
		for _, d := range deltas {
			rep.DeltaTuples += len(d.Plus) + len(d.Minus)
			inv.typesBuf = inv.registry.TypesForTableInto(d.Table, inv.typesBuf)
			for _, qt := range inv.scheduleTypes(inv.typesBuf) {
				u := workUnit{d: d, qt: qt}
				if inv.pred != nil {
					// Indexed mode: no instance snapshot is materialized —
					// evalType probes the index instead.
					u.n = inv.pred.liveCount(qt)
				} else {
					u.insts = inv.registry.InstancesOf(qt)
					u.n = len(u.insts)
				}
				if u.n == 0 {
					continue
				}
				units = append(units, u)
			}
		}

		// Per-worker Report counters merge through atomics so the cycle's
		// statistics stay exact; the impacted page set merges under its own
		// mutex.
		var localDecisions, conservative atomic.Int64
		var impactedMu sync.Mutex
		process := func(u workUnit) {
			batchStart := time.Now()
			res := inv.evalType(u.qt, u.d, evalSource{insts: u.insts, pi: inv.pred}, pr, delTables)
			inv.recordTypeBatch(u.qt, u.n, res, time.Since(batchStart))
			localDecisions.Add(int64(res.localDecisions))
			conservative.Add(int64(res.conservative))
			impactedMu.Lock()
			for _, inst := range res.impacted {
				for page := range inst.Pages {
					mark(page, u.d.Stamp, trace.Context{Trace: u.d.Trace, Span: u.d.Span})
				}
			}
			impactedMu.Unlock()
		}

		// Help-first join: this goroutine claims units itself beside at most
		// Workers-1 helpers and waits only for units a helper claimed, so a
		// helper the scheduler starts after the work ran out costs nothing.
		var cursor, left atomic.Int64
		left.Store(int64(len(units)))
		helped := make(chan struct{}) // closed by a helper finishing the last unit
		// run evaluates units until none is unclaimed, reporting whether it
		// finished the last one.
		run := func() (last bool) {
			for i := int(cursor.Add(1)) - 1; i < len(units); i = int(cursor.Add(1)) - 1 {
				process(units[i])
				last = left.Add(-1) == 0
			}
			return last
		}
		for h := min(inv.cfg.Workers, len(units)) - 1; h > 0; h-- {
			inv.spawn(func() {
				if run() {
					close(helped)
				}
			})
		}
		run()
		if left.Load() > 0 {
			<-helped
		}
		rep.LocalDecisions += int(localDecisions.Load())
		rep.Conservative += int(conservative.Load())
		rep.Polls = int(pr.polls.Load())
		rep.PollsPrepared = int(pr.prepared.Load())
		rep.PollsDeduped = int(pr.deduped.Load())
		rep.PollsDenied = int(pr.denied.Load())
		rep.IndexHits = int(pr.indexHits.Load())
		rep.PollTime = time.Duration(pr.pollTime.Load())

		// Conservative pages fall with any change at all; their staleness
		// origin is the batch's oldest record.
		batchStamp := recs[0].Time
		batchCtx := trace.Context{Trace: recs[0].Trace, Span: recs[0].Span}
		for _, k := range inv.registry.ConservativePages() {
			mark(k, batchStamp, batchCtx)
			rep.Conservative++
		}
		analyzeEnd := time.Now()
		inv.met.analyzeSeconds.ObserveDuration(analyzeEnd.Sub(analyzeStart))
		for _, ctx := range tracedCtxs {
			tr.Record(ctx, "invalidator.analyze", analyzeStart, analyzeEnd,
				trace.Attr{K: "deltas", V: strconv.Itoa(rep.DeltaTuples)},
				trace.Attr{K: "impacted", V: strconv.Itoa(len(impacted))})
			if rep.Polls > 0 {
				// Polling time is embedded in the analyze phase; the span
				// reports its aggregate wall time as a sub-interval.
				tr.Record(ctx, "invalidator.poll", analyzeStart, analyzeStart.Add(rep.PollTime),
					trace.Attr{K: "polls", V: strconv.Itoa(rep.Polls)})
			}
		}
	}

	// Truncation fallback for non-bulk ejectors: flush every page the
	// registry knows about through the keyed machinery, with an
	// unknown-origin (zero) stamp so no staleness sample is fabricated.
	// Keys that fail to eject enter the pending retry list below; only then
	// is the flush obligation considered discharged.
	if inv.flushPending {
		if _, ok := inv.cfg.Ejector.(BulkEjector); !ok {
			for _, k := range inv.registry.Pages() {
				mark(k, time.Time{}, trace.Context{})
			}
			inv.flushPending = false
		}
	}

	// 4. Send invalidation messages (§4.2.4), including retries. Pending
	// keys (whose ejection failed in an earlier cycle) merge into this
	// cycle's set — deduplicated, so the retry list cannot grow past the
	// live page population — and keys whose pages have since left the
	// registry are dropped: nothing can reinstate them, so retrying is
	// pure cache noise. The retry list is cleared unconditionally here and
	// rebuilt from this cycle's outcome: even when every pending page has
	// left the registry (so no eject runs at all), dropped keys and their
	// stamps must not linger.
	for _, k := range inv.pending {
		if inv.registry.HasPage(k) {
			ctx := inv.pendingCtx[k]
			if tr.Recording(ctx.Trace) {
				// invalidator.retry: a zero-width marker span — this key's
				// eject failed last cycle and is being re-attempted now. The
				// key's context advances to it, so a later eject (or another
				// retry) parents on the retry chain.
				now := time.Now()
				ctx = tr.Record(ctx, "invalidator.retry", now, now,
					trace.Attr{K: "key", V: k})
			}
			mark(k, inv.pendingStamp[k], ctx)
		}
	}
	if len(inv.pending) > 0 {
		inv.clearPending()
	}
	if len(impacted) > 0 {
		inv.ejectImpacted(impacted, &rep)
	}

	// 5. Refresh discovered policies (§4.1.4).
	inv.policies.Evaluate(inv.registry)

	// 6. Self-tuning: materialize advised indexes so future residues are
	// answered inside the invalidator.
	if inv.cfg.AutoIndex && inv.cfg.Poller != nil {
		for _, adv := range inv.Advise() {
			if inv.indexes.Size(adv.Table, adv.Column) >= 0 {
				continue // already maintained
			}
			// Best effort: a failed load just means we keep polling.
			inv.indexes.Maintain(inv.cfg.Poller, adv.Table, adv.Column)
		}
	}

	rep.Duration = time.Since(start)
	return rep, nil
}

// clearPending empties the retry list with its stamps and trace contexts.
func (inv *Invalidator) clearPending() {
	inv.pending = nil
	clear(inv.pendingStamp)
	clear(inv.pendingCtx)
}

// ejectImpacted is the eject step of a cycle that impacted at least one
// page: it sends the keys and finishes them, or, when the eject fails,
// queues them all for retry (and advances the breaker state).
func (inv *Invalidator) ejectImpacted(impacted map[string]pageImpact, rep *Report) {
	tr := inv.cfg.Tracer
	keys := make([]string, 0, len(impacted))
	for k := range impacted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// finish completes one ejected key: the commit-to-eject staleness
	// sample is recorded (globally and per servlet) before the mapping —
	// which names the servlet — is removed.
	finish := func(k string, now time.Time) {
		if fragment.IsFragmentKey(k) {
			inv.met.fragmentEjects.Inc()
			rep.FragmentEjects++
		} else {
			inv.met.pageEjects.Inc()
		}
		if pi := impacted[k]; !pi.stamp.IsZero() {
			lat := now.Sub(pi.stamp)
			if lat < 0 {
				lat = 0
			}
			// The staleness sample carries its trace as an exemplar: the
			// histogram bucket remembers the worst observation's trace ID,
			// so an operator can go from "p99 spiked" straight to the
			// commit-to-eject story of a page that caused it.
			inv.met.staleness.ObserveDurationExemplar(lat, pi.ctx.Trace)
			if pm, ok := inv.cfg.Map.Get(k); ok && pm.Servlet != "" {
				inv.stalenessFor(pm.Servlet).ObserveDurationExemplar(lat, pi.ctx.Trace)
			}
		}
		inv.cfg.Map.Remove(k)
		inv.registry.UnlinkPage(k)
	}
	// ejectCtxs maps each key with a recording trace to its context; the
	// ejector propagates them downstream (CacheEjector records the
	// terminal webcache.eject span, StreamEjector writes them onto the
	// eject stream so each consuming cache can).
	var ejectCtxs map[string]trace.Context
	if tr != nil {
		for _, k := range keys {
			if ctx := impacted[k].ctx; tr.Recording(ctx.Trace) {
				if ejectCtxs == nil {
					ejectCtxs = make(map[string]trace.Context)
				}
				ejectCtxs[k] = ctx
			}
		}
	}
	ejectStart := time.Now()
	err := inv.eject(keys, ejectCtxs)
	now := time.Now()
	inv.met.ejectSeconds.ObserveDuration(now.Sub(ejectStart))
	if len(ejectCtxs) > 0 {
		attrs := []trace.Attr{{K: "keys", V: strconv.Itoa(len(keys))}}
		if err != nil {
			attrs = append(attrs, trace.Attr{K: "err", V: "1"})
		}
		eachDistinctTrace(ejectCtxs, func(ctx trace.Context) {
			tr.Record(ctx, "invalidator.eject", ejectStart, now, attrs...)
		})
	}
	if err != nil {
		rep.EjectErr = err
		inv.ejectFailStreak++
		// The whole batch is retried: keys is sorted and distinct.
		inv.pending = keys
		stamps := make(map[string]time.Time, len(inv.pending))
		ctxs := make(map[string]trace.Context, len(inv.pending))
		for _, k := range inv.pending {
			pi := impacted[k]
			stamps[k] = pi.stamp
			if pi.ctx.Valid() {
				ctxs[k] = pi.ctx
				// Force-sample the trace behind a failed eject: its page
				// is now an outlier in the making, and the retry/breaker
				// spans of later cycles are exactly the evidence an
				// operator needs — record them even if the head-sampling
				// decision at commit time was "skip".
				tr.Force(pi.ctx.Trace)
			}
		}
		inv.pendingStamp = stamps
		inv.pendingCtx = ctxs
		// Circuit breaker: precise ejection has now failed for several
		// consecutive cycles, so stop trusting it and flush the caches
		// outright. A successful bulk flush discharges every pending
		// key at once (flushed pages cannot be stale); a failed one
		// leaves the retry state untouched for the next cycle.
		if bulk, ok := inv.cfg.Ejector.(BulkEjector); ok &&
			inv.cfg.BreakerThreshold > 0 && inv.ejectFailStreak >= inv.cfg.BreakerThreshold {
			inv.met.breakerTrips.Inc()
			breakerStart := time.Now()
			berr := bulk.EjectAll()
			breakerEnd := time.Now()
			if tr != nil {
				battrs := []trace.Attr{{K: "streak", V: strconv.Itoa(inv.ejectFailStreak)}}
				if berr != nil {
					battrs = append(battrs, trace.Attr{K: "err", V: "1"})
				}
				eachDistinctTrace(inv.pendingCtx, func(ctx trace.Context) {
					ctx = tr.Record(ctx, "invalidator.breaker", breakerStart, breakerEnd, battrs...)
					if berr == nil {
						// The flush landed: the page is gone from every
						// cache, which completes this trace's story.
						tr.RecordTerminal(ctx, "webcache.flush", breakerEnd, breakerEnd)
					}
				})
			}
			if berr == nil {
				for _, k := range inv.pending {
					finish(k, now)
					rep.Invalidated++
				}
				rep.Conservative += len(inv.pending)
				inv.clearPending()
				inv.ejectFailStreak = 0
			}
		}
	} else {
		inv.ejectFailStreak = 0
		for _, k := range keys {
			finish(k, now)
		}
		rep.Invalidated = len(keys)
	}
}

// eject dispatches to the ejector, preferring the traced entry point when
// the ejector supports it and there is context to propagate.
func (inv *Invalidator) eject(keys []string, ctxs map[string]trace.Context) error {
	if len(ctxs) > 0 {
		if te, ok := inv.cfg.Ejector.(TracedEjector); ok {
			return te.EjectTraced(keys, ctxs)
		}
	}
	return inv.cfg.Ejector.Eject(keys)
}

// eachDistinctTrace calls fn once per distinct trace among the contexts (a
// cycle's batch often maps many keys to one commit; phase spans are
// per-trace, not per-key).
func eachDistinctTrace(ctxs map[string]trace.Context, fn func(trace.Context)) {
	seen := make(map[int64]bool, len(ctxs))
	for _, ctx := range ctxs {
		if !ctx.Valid() || seen[ctx.Trace] {
			continue
		}
		seen[ctx.Trace] = true
		fn(ctx)
	}
}

// ingestMap consumes QI/URL map changes, registering instances and marking
// unanalyzable pages conservative.
func (inv *Invalidator) ingestMap(rep *Report) {
	changes, v, resync := inv.cfg.Map.Changes(inv.mapVersion)
	if resync {
		changes, v = inv.cfg.Map.Snapshot()
	}
	inv.mapVersion = v
	for _, pm := range changes {
		rep.PagesIngested++
		inv.registry.RelinkPage(pm.CacheKey)
		for _, q := range pm.Queries {
			stmt, err := sqlparser.Parse(q.SQL)
			if err != nil {
				inv.registry.MarkConservative(pm.CacheKey)
				inv.policies.noteConservativeServlet(pm.Servlet)
				continue
			}
			switch stmt.(type) {
			case *sqlparser.SelectStmt:
				inst, _, err := inv.registry.ObserveInstance(q.SQL, pm.CacheKey)
				if err != nil {
					inv.registry.MarkConservative(pm.CacheKey)
					inv.policies.noteConservativeServlet(pm.Servlet)
					continue
				}
				inv.policies.noteServletType(pm.Servlet, inst.Type)
			case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt,
				*sqlparser.CreateTableStmt, *sqlparser.DropTableStmt, *sqlparser.CreateIndexStmt:
				// Writes don't feed page content; their effects arrive via
				// the update log.
			}
		}
	}
}

// typeBatchResult is the outcome of evaluating one delta table's tuples
// against one query type.
type typeBatchResult struct {
	impacted       []*Instance
	localDecisions int
	conservative   int
	// polls/pollTime count the polling queries this unit itself issued
	// (replays and polls awaited from other units are free, as in the
	// sequential accounting).
	polls    int
	pollTime time.Duration
	// Predicate-index accounting for this unit (all zero in scan mode).
	idxProbes        int
	idxBucketHits    int
	idxIntervalHits  int
	idxResidualEvals int
	idxScanFallbacks int
}

// scheduleTypes orders query types for processing within a cycle — the
// §4.2.2 schedule generation: each type's priority is the number of live
// cached instances it protects, discounted by its historical polling cost.
// When the polling budget runs out mid-cycle, the remaining (lowest-value)
// types fall back to conservative invalidation, so the budget is spent
// where precision saves the most cache content. Sorts types in place
// (stable, priority descending) using the invalidator's scratch buffer, so
// the per-delta schedule build does not allocate.
func (inv *Invalidator) scheduleTypes(types []*QueryType) []*QueryType {
	if len(types) < 2 {
		return types
	}
	prio := inv.schedPrio[:0]
	inv.registry.withLock(func() {
		for _, qt := range types {
			st := qt.stats
			value := float64(st.LiveInstances)
			cost := 1.0
			if st.Polls > 0 {
				// Mean poll time in milliseconds, floored at 1.
				ms := float64(st.PollTime.Milliseconds()) / float64(st.Polls)
				if ms > 1 {
					cost = ms
				}
			}
			prio = append(prio, value/cost)
		}
	})
	inv.schedPrio = prio
	// Stable insertion sort, descending: the type lists per table are
	// small, and equal priorities keep their ID order.
	for i := 1; i < len(types); i++ {
		for j := i; j > 0 && prio[j] > prio[j-1]; j-- {
			prio[j], prio[j-1] = prio[j-1], prio[j]
			types[j], types[j-1] = types[j-1], types[j]
		}
	}
	return types
}

// lowerTableName lower-cases ASCII table names.
func lowerTableName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// evalSource selects how evalType enumerates candidate instances: a
// pre-materialized scan snapshot (index disabled) or the predicate index,
// which both tracks the live set and answers per-occurrence probes.
type evalSource struct {
	insts []*Instance // scan mode: live snapshot, ArgsKey-ordered
	pi    *predIndex  // indexed mode (insts unused when non-nil)
}

// evalType runs the grouped analysis of §5.2/§4.2 for one (type, delta
// table) pair. delTables names tables with deletions in this batch (for the
// post-state polling hazard). Safe for concurrent invocation across
// distinct (type, delta) units: shared state is reached only through the
// thread-safe pollRun, advice tracker, per-type plan cache, and the
// RWMutex-guarded predicate index.
//
// The two evalSource modes decide the identical instance set. Per tuple
// and occurrence, the scan evaluates every not-yet-impacted instance's
// localParam conjuncts in order; the probe answers the FIRST conjunct from
// the index — Certain entries have it provably TRUE (remaining conjuncts
// are verified as usual), Residual entries (cross-kind comparisons that
// error, unbindable placeholders) are evaluated from scratch, and entries
// the index omits are exactly those whose first conjunct is false or
// unknown, which the scan would have dropped anyway.
func (inv *Invalidator) evalType(qt *QueryType, d *engine.Delta, src evalSource, pr *pollRun, delTables map[string]bool) typeBatchResult {
	var res typeBatchResult
	plan := qt.planFor(d.Table, d.Columns)
	indexed := src.pi != nil
	var ti *typeTableIndex
	if indexed {
		ti = src.pi.tableFor(qt, d.Table, d.Columns, plan)
	}

	allTables := qt.Template.Tables()
	singleTable := len(allTables) == 1

	// deletionHazard: a deleted tuple's join counterpart may itself have
	// been deleted in this batch, in which case post-state polling would
	// miss the pre-state match. True when another referenced table (or
	// this table again, for self-joins) saw deletions.
	selfCount := 0
	for _, ref := range allTables {
		if lowerTableName(ref.Name) == lowerTableName(d.Table) {
			selfCount++
		}
	}
	deletionHazard := false
	for _, t := range qt.Tables {
		if t == lowerTableName(d.Table) {
			if selfCount >= 2 && delTables[t] {
				deletionHazard = true
			}
			continue
		}
		if delTables[t] {
			deletionHazard = true
		}
	}

	// impacted tracks instances already proven impacted; they need no
	// further tuples. liveTotal is the live population, for the all-done
	// early exit.
	liveTotal := len(src.insts)
	if indexed {
		liveTotal = src.pi.liveCount(qt)
	}
	impacted := make(map[*Instance]bool, 8)
	impact := func(inst *Instance, conservative bool) {
		if impacted[inst] {
			return
		}
		impacted[inst] = true
		res.impacted = append(res.impacted, inst)
		if conservative {
			res.conservative++
		}
	}
	forEachLive := func(fn func(*Instance)) {
		if indexed {
			src.pi.forEachLive(qt, fn)
		} else {
			for _, inst := range src.insts {
				fn(inst)
			}
		}
	}
	impactAll := func(conservative bool) {
		forEachLive(func(inst *Instance) { impact(inst, conservative) })
	}

	if plan.conservative {
		impactAll(true)
		return res
	}

	type tuple struct {
		row     mem.Row
		deleted bool
	}
	tuples := make([]tuple, 0, len(d.Plus)+len(d.Minus))
	for _, r := range d.Plus {
		tuples = append(tuples, tuple{row: r})
	}
	for _, r := range d.Minus {
		tuples = append(tuples, tuple{row: r, deleted: true})
	}

	candidates := make([]*Instance, 0, 16)
	var probed predindex.Result[*Instance]
	for _, tp := range tuples {
		row := tp.row
		if len(impacted) >= liveTotal {
			break
		}
		for occIdx, occ := range plan.occurrences {
			if len(impacted) >= liveTotal {
				break
			}
			if occ.conservative {
				impactAll(true)
				break
			}
			env, err := deltaEnv(occ.name, d.Columns, row)
			if err != nil {
				impactAll(true)
				break
			}
			// Shared local conjuncts: one failure proves no instance can be
			// affected through this occurrence by this tuple.
			dead := false
			for _, c := range occ.localConst {
				ok, err := evalLocal(c, env)
				if err != nil {
					impactAll(true)
					dead = true
					break
				}
				if !ok {
					dead = true
					break
				}
			}
			if dead {
				if len(impacted) >= liveTotal {
					break
				}
				continue
			}

			// Per-instance local parameterized conjuncts (group processing:
			// evaluated client-side, no DBMS involved). evalInst finishes
			// one instance's conjuncts starting at `from`; an evaluation
			// error impacts it conservatively, exactly as the scan does.
			evalInst := func(inst *Instance, from int) bool {
				for _, c := range occ.localParam[from:] {
					bound := bindPlaceholders(c, inst.Args)
					ok, err := evalLocal(bound, env)
					if err != nil {
						impact(inst, true)
						return false
					}
					if !ok {
						return false
					}
				}
				return true
			}

			candidates = candidates[:0]
			if !indexed {
				for _, inst := range src.insts {
					if !impacted[inst] && evalInst(inst, 0) {
						candidates = append(candidates, inst)
					}
				}
			} else {
				switch oi := ti.occs[occIdx]; oi.mode {
				case occAll:
					forEachLive(func(inst *Instance) {
						if !impacted[inst] {
							candidates = append(candidates, inst)
						}
					})
				case occScan:
					res.idxScanFallbacks++
					forEachLive(func(inst *Instance) {
						if !impacted[inst] && evalInst(inst, 0) {
							candidates = append(candidates, inst)
						}
					})
				default: // occProbe
					res.idxProbes++
					probed.Reset()
					src.pi.probe(oi, row[oi.col], &probed)
					if oi.interval {
						res.idxIntervalHits += len(probed.Certain)
					} else {
						res.idxBucketHits += len(probed.Certain)
					}
					res.idxResidualEvals += len(probed.Residual)
					for _, inst := range probed.Certain {
						// First conjunct proven TRUE by the index; verify
						// the rest.
						if !impacted[inst] && evalInst(inst, 1) {
							candidates = append(candidates, inst)
						}
					}
					for _, inst := range probed.Residual {
						if !impacted[inst] && evalInst(inst, 0) {
							candidates = append(candidates, inst)
						}
					}
				}
			}
			if len(candidates) == 0 {
				continue
			}
			sort.Slice(candidates, func(i, j int) bool { return candidates[i].ArgsKey < candidates[j].ArgsKey })

			if len(occ.residualConst) == 0 && len(occ.residualParam) == 0 {
				// Entirely local: certain impact (Example 4.1's first case).
				res.localDecisions++
				for _, inst := range candidates {
					impact(inst, false)
				}
				continue
			}

			// Post-state polling cannot witness a join partner deleted in
			// the same batch: deleted tuples with a deletion hazard are
			// invalidated conservatively instead of polled.
			if tp.deleted && deletionHazard {
				for _, inst := range candidates {
					impact(inst, true)
				}
				continue
			}

			// Maintained-index shortcut for "∃ S.c = v" residues.
			if table, col, v, ok := simpleEquality(occ, d.Columns, row, singleTable); ok {
				if exists, covered := pr.existence(table, col, v); covered {
					res.localDecisions++
					if exists {
						for _, inst := range candidates {
							impact(inst, false)
						}
					}
					continue
				}
				inv.advice.note(table, col)
			}

			result, err := pr.execPlan(occ.poll, row, &res)
			if err != nil {
				for _, inst := range candidates {
					impact(inst, true)
				}
				continue
			}
			if occ.poll.existenceOnly {
				if len(result.Rows) > 0 {
					for _, inst := range candidates {
						impact(inst, false)
					}
				}
				continue
			}
			// Finish per-instance parameterized residues against the
			// polled rows.
			for _, inst := range candidates {
				matched, bad := false, false
				for _, prow := range result.Rows {
					all := true
					for _, c := range occ.residualParam {
						e := bindPlaceholders(c, inst.Args)
						e = substituteOccurrence(e, occ.name, d.Columns, row, singleTable)
						e = substituteRefs(e, occ.residualCols, prow)
						v, err := engine.Eval(e, engine.Env{})
						if err != nil {
							bad = true
							break
						}
						t, err := engine.Truth(v)
						if err != nil {
							bad = true
							break
						}
						if t != engine.True {
							all = false
							break
						}
					}
					if bad {
						break
					}
					if all {
						matched = true
						break
					}
				}
				if bad {
					impact(inst, true)
				} else if matched {
					impact(inst, false)
				}
			}
		}
	}
	return res
}

// recordTypeBatch folds one batch's outcome into the type's statistics
// and the global predicate-index counters.
func (inv *Invalidator) recordTypeBatch(qt *QueryType, nInsts int, res typeBatchResult, elapsed time.Duration) {
	if res.idxProbes > 0 || res.idxScanFallbacks > 0 {
		inv.met.predProbes.Add(int64(res.idxProbes))
		inv.met.predBucketHits.Add(int64(res.idxBucketHits))
		inv.met.predIntervalHits.Add(int64(res.idxIntervalHits))
		inv.met.predResiduals.Add(int64(res.idxResidualEvals))
		inv.met.predScanFallbacks.Add(int64(res.idxScanFallbacks))
	}
	inv.registry.withLock(func() {
		st := &qt.stats
		st.UpdateBatches++
		st.Impacts += int64(len(res.impacted))
		st.Conservative += int64(res.conservative)
		st.LocalDecisions += int64(res.localDecisions)
		st.Polls += int64(res.polls)
		st.PollTime += res.pollTime
		st.IndexProbes += int64(res.idxProbes)
		st.IndexBucketHits += int64(res.idxBucketHits)
		st.IndexIntervalHits += int64(res.idxIntervalHits)
		st.IndexResidualEvals += int64(res.idxResidualEvals)
		st.IndexScanFallbacks += int64(res.idxScanFallbacks)
		st.InvalidationTime += elapsed
		if elapsed > st.MaxInvalidation {
			st.MaxInvalidation = elapsed
		}
		if nInsts > 0 {
			ratio := float64(len(res.impacted)) / float64(nInsts)
			st.InvalidationRatioEWMA = st.InvalidationRatioEWMA*7/8 + ratio/8
		}
	})
}
