package invalidator

import (
	"repro/internal/obs"
)

// invMetrics are the invalidator's pre-resolved metric handles: one
// registry lookup each at construction, plain atomic operations afterwards,
// so instrumentation stays off the cycle's hot path.
type invMetrics struct {
	cycles          *obs.Counter
	cycleSeconds    *obs.Histogram
	mapperPages     *obs.Counter
	pagesIngested   *obs.Counter
	updateRecords   *obs.Counter
	deltaTuples     *obs.Counter
	analyzeSeconds  *obs.Histogram
	polls           *obs.Counter
	pollsPrepared   *obs.Counter
	pollsDeduped    *obs.Counter
	pollsDenied     *obs.Counter
	pollSeconds     *obs.Histogram
	indexHits       *obs.Counter
	localDecisions  *obs.Counter
	invalidated     *obs.Counter
	conservative    *obs.Counter
	truncations     *obs.Counter
	ejectErrors     *obs.Counter
	cycleErrors     *obs.Counter
	breakerTrips    *obs.Counter
	retryDepth      *obs.Gauge
	ejectFailStreak *obs.Gauge
	ejectSeconds    *obs.Histogram
	staleness       *obs.Histogram
	eventCycles     *obs.Counter

	// Eject-granularity split: with fragment-level caching the keys flowing
	// through the eject path are a mix of whole pages and fragment/template
	// keys. fragmentEjects counts ejected keys naming a fragment or an
	// assembly template, pageEjects the rest — together they show how much
	// of the invalidation traffic the fragment refactor moved below page
	// granularity.
	fragmentEjects *obs.Counter
	pageEjects     *obs.Counter

	// Predicate-index counters (PR 6). predProbes counts index probes,
	// predBucketHits/predIntervalHits the certain candidates they returned
	// (hash vs. sorted-run path), predResiduals the entries handed back
	// for exact evaluation, predScanFallbacks the occurrence evaluations
	// that had no indexable shape, predRebuilds the per-plan builds.
	predProbes        *obs.Counter
	predBucketHits    *obs.Counter
	predIntervalHits  *obs.Counter
	predResiduals     *obs.Counter
	predScanFallbacks *obs.Counter
	predRebuilds      *obs.Counter
}

func newInvMetrics(reg *obs.Registry) invMetrics {
	return invMetrics{
		cycles:          reg.Counter("invalidator.cycles_total"),
		cycleSeconds:    reg.Histogram("invalidator.cycle_seconds"),
		mapperPages:     reg.Counter("invalidator.mapper_pages_total"),
		pagesIngested:   reg.Counter("invalidator.map_ingested_total"),
		updateRecords:   reg.Counter("invalidator.update_records_total"),
		deltaTuples:     reg.Counter("invalidator.delta_tuples_total"),
		analyzeSeconds:  reg.Histogram("invalidator.analyze_seconds"),
		polls:           reg.Counter("invalidator.polls_total"),
		pollsPrepared:   reg.Counter("invalidator.polls_prepared_total"),
		pollsDeduped:    reg.Counter("invalidator.polls_deduped_total"),
		pollsDenied:     reg.Counter("invalidator.polls_budget_denied_total"),
		pollSeconds:     reg.Histogram("invalidator.poll_seconds"),
		indexHits:       reg.Counter("invalidator.index_hits_total"),
		localDecisions:  reg.Counter("invalidator.local_decisions_total"),
		invalidated:     reg.Counter("invalidator.pages_invalidated_total"),
		conservative:    reg.Counter("invalidator.conservative_total"),
		truncations:     reg.Counter("invalidator.truncations_total"),
		ejectErrors:     reg.Counter("invalidator.eject_errors_total"),
		cycleErrors:     reg.Counter("invalidator.cycle_errors_total"),
		breakerTrips:    reg.Counter("invalidator.breaker_trips_total"),
		retryDepth:      reg.Gauge("invalidator.retry_list_depth"),
		ejectFailStreak: reg.Gauge("invalidator.eject_fail_streak"),
		ejectSeconds:    reg.Histogram("invalidator.eject_seconds"),
		staleness:       reg.Histogram("invalidator.staleness_seconds"),
		eventCycles:     reg.Counter("invalidator.event_cycles_total"),
		fragmentEjects:  reg.Counter("invalidator.fragment_ejects_total"),
		pageEjects:      reg.Counter("invalidator.page_ejects_total"),

		predProbes:        reg.Counter("invalidator.predindex.probes_total"),
		predBucketHits:    reg.Counter("invalidator.predindex.bucket_hits_total"),
		predIntervalHits:  reg.Counter("invalidator.predindex.interval_hits_total"),
		predResiduals:     reg.Counter("invalidator.predindex.residual_evals_total"),
		predScanFallbacks: reg.Counter("invalidator.predindex.scan_fallbacks_total"),
		predRebuilds:      reg.Counter("invalidator.predindex.rebuilds_total"),
	}
}

// stalenessFor returns the per-servlet commit-to-eject histogram, cached in
// a plain map: the eject step runs on the single cycle goroutine, so no
// lock is needed around the cache itself.
func (inv *Invalidator) stalenessFor(servlet string) *obs.Histogram {
	if servlet == "" {
		return inv.met.staleness
	}
	h, ok := inv.stalenessHists[servlet]
	if !ok {
		h = inv.obs.Histogram("invalidator.staleness_seconds." + servlet)
		inv.stalenessHists[servlet] = h
	}
	return h
}
