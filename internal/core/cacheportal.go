// Package core ties CachePortal together: given the application server's
// request log, the driver's query log, the database's update log, a polling
// connection and the caches to notify, it runs the sniffer (request-to-
// query mapper) and the invalidator on a shared cadence — the architecture
// of the paper's Figure 7. The two components stay independent: the sniffer
// only writes the QI/URL map, the invalidator only reads it.
package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/invalidator"
	"repro/internal/obs"
	"repro/internal/sniffer"
	"repro/internal/trace"
)

// Options configures a CachePortal deployment.
type Options struct {
	// RequestLog is the application server's request log (required).
	RequestLog *appserver.RequestLog
	// QueryLog is the logging driver's query log (required).
	QueryLog *driver.QueryLog
	// Puller reads the database update log (required).
	Puller invalidator.LogPuller
	// Poller executes polling queries (optional; nil degrades to
	// conservative invalidation).
	Poller invalidator.Poller
	// Ejector delivers invalidation messages to caches (required).
	Ejector invalidator.Ejector

	// Interval is the sniff/invalidate cadence (default 1s, the paper's
	// synchronization interval).
	Interval time.Duration
	// PollBudget bounds per-cycle polling time (0 = unbounded).
	PollBudget time.Duration
	// Workers bounds the invalidator's evaluation parallelism (0 =
	// GOMAXPROCS, 1 = sequential).
	Workers int
	// MapperMode selects query attribution (default LeaseAffine).
	MapperMode sniffer.MapperMode
	// Rules are administrator invalidation policies.
	Rules []invalidator.Rule
	// Thresholds drive policy discovery; zero value uses defaults.
	Thresholds invalidator.DiscoveryThresholds
	// Obs receives the sniffer's and invalidator's metrics and the
	// freshness-trace histograms. Nil allocates a private registry, so
	// instrumentation is always on; reach it via Portal.Obs.
	Obs *obs.Registry
	// Tracer, when set, records pipeline spans in the invalidator (phase
	// spans, staleness exemplars, force-sampling of failed ejects). The
	// engine and feed ends of the pipeline attach their own tracer
	// (Database.SetTracer, LogFeed.SetTracer); this one covers the
	// sniff/invalidate hops. nil = tracing off.
	Tracer *trace.Tracer

	// Notifier, when set, makes the background loop event-driven: a cycle
	// runs as soon as it signals new update-log records, with the interval
	// timer kept as fallback cadence (invalidator.EngineLogPuller and
	// *wire.LogFeed both implement it). Invalidation outcomes are identical
	// to pure interval ticking; only commit-to-eject staleness changes.
	Notifier invalidator.LogNotifier
	// DisablePredIndex turns off the invalidator's predicate index and
	// restores the per-instance registry scan. Invalidation outcomes are
	// identical either way; the switch exists for A/B measurement and as an
	// escape hatch.
	DisablePredIndex bool
}

// Portal is a running CachePortal: the sniffer + invalidator pair.
type Portal struct {
	Map         *sniffer.QIURLMap
	Mapper      *sniffer.Mapper
	Invalidator *invalidator.Invalidator
	// Obs is the registry every pipeline stage reports into (the one from
	// Options.Obs, or the private registry New allocated).
	Obs *obs.Registry

	interval time.Duration
	notifier invalidator.LogNotifier

	// cycleMu serializes invalidation cycles: the background loop and
	// synchronous Cycle callers may overlap, and the invalidator's cycle
	// (like the mapper it drives) is single-flight by design.
	cycleMu sync.Mutex

	mu      sync.Mutex
	stopCh  chan struct{}
	stopped chan struct{}
	lastRep invalidator.Report
	lastErr error
	cycles  int64
}

// New validates opts and builds a Portal (not yet running).
func New(opts Options) (*Portal, error) {
	if opts.RequestLog == nil || opts.QueryLog == nil {
		return nil, errors.New("cacheportal: RequestLog and QueryLog are required")
	}
	if opts.Puller == nil {
		return nil, errors.New("cacheportal: Puller is required")
	}
	if opts.Ejector == nil {
		return nil, errors.New("cacheportal: Ejector is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	m := sniffer.NewQIURLMap()
	mp := sniffer.NewMapper(opts.RequestLog, opts.QueryLog, m)
	mp.Mode = opts.MapperMode
	mp.Obs = opts.Obs

	var pol *invalidator.Policies
	if opts.Thresholds == (invalidator.DiscoveryThresholds{}) {
		pol = invalidator.NewPolicies(invalidator.DefaultThresholds())
	} else {
		pol = invalidator.NewPolicies(opts.Thresholds)
	}
	for _, r := range opts.Rules {
		pol.AddRule(r)
	}

	inv := invalidator.New(invalidator.Config{
		Map:        m,
		Mapper:     mp,
		Puller:     opts.Puller,
		Poller:     opts.Poller,
		Ejector:    opts.Ejector,
		Policies:   pol,
		PollBudget: opts.PollBudget,
		Workers:    opts.Workers,
		Obs:        opts.Obs,
		Tracer:     opts.Tracer,

		DisablePredIndex: opts.DisablePredIndex,
	})
	if cp, ok := opts.Poller.(*invalidator.ConcurrentPoller); ok {
		cp.Instrument(opts.Obs, "poller")
	}
	return &Portal{
		Map: m, Mapper: mp, Invalidator: inv, Obs: opts.Obs,
		interval: opts.Interval, notifier: opts.Notifier,
	}, nil
}

// Interval returns the configured cycle cadence; the application server's
// MinSensitivity should be at least this.
func (p *Portal) Interval() time.Duration { return p.interval }

// CacheableServlet is the feedback hook to install as
// appserver.Server.Cacheable.
func (p *Portal) CacheableServlet(name string) bool {
	return p.Invalidator.CacheableServlet(name)
}

// Cycle runs one synchronous sniff+invalidate round. Safe to call while
// the background loop runs; overlapping cycles are serialized.
func (p *Portal) Cycle() (invalidator.Report, error) {
	p.cycleMu.Lock()
	rep, err := p.Invalidator.Cycle()
	p.cycleMu.Unlock()
	p.mu.Lock()
	p.lastRep, p.lastErr = rep, err
	p.cycles++
	p.mu.Unlock()
	return rep, err
}

// Start launches the background loop. Calling Start twice is an error.
// The cadence is invalidator.RunLoop: pure interval ticking by default, and
// with Options.Notifier a cycle also runs the moment the notifier signals
// new log records (records that commit during a cycle batch into the next
// one; the interval timer is kept as fallback). Either way, consecutive cycle
// errors stretch the cadence with capped exponential backoff
// (invalidator.NextCycleDelay) instead of silently ticking against a failing
// dependency; one success restores the configured interval.
func (p *Portal) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopCh != nil {
		return errors.New("cacheportal: already started")
	}
	p.stopCh = make(chan struct{})
	p.stopped = make(chan struct{})
	go func(stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		p.Invalidator.Run(p.interval, p.notifier, stop, func() error {
			_, err := p.Cycle()
			return err
		})
	}(p.stopCh, p.stopped)
	return nil
}

// Stop halts the background loop and waits for it to exit. Safe to call
// without Start or twice.
func (p *Portal) Stop() {
	p.mu.Lock()
	stopCh, stopped := p.stopCh, p.stopped
	p.stopCh, p.stopped = nil, nil
	p.mu.Unlock()
	if stopCh == nil {
		return
	}
	close(stopCh)
	<-stopped
}

// LastReport returns the most recent cycle's report, its error, and how
// many cycles have run.
func (p *Portal) LastReport() (invalidator.Report, error, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastRep, p.lastErr, p.cycles
}
