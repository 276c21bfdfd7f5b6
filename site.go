package cacheportal

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/appserver"
	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/invalidator"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/webcache"
	"repro/internal/wire"
)

// ServletDef pairs a servlet's registration metadata with its handler.
type ServletDef struct {
	Meta    Meta
	Handler ServletFunc
}

// ClusterConfig configures the distributed web-cache tier: N cache nodes
// with consistent-hash key placement, a ConsistentHash front balancer
// routing by the same projection, invalidation delivered over a
// cursor-resumable eject stream, and optionally a shard manager
// replicating hot slots at runtime. The zero value (or CacheNodes <= 1)
// keeps the single-cache topology byte-identical to before.
type ClusterConfig struct {
	// CacheNodes is how many webcache nodes to run (<= 1 = single cache,
	// no cluster machinery at all).
	CacheNodes int
	// Slots is the hash-ring slot count (cluster.DefaultSlots when 0).
	Slots int
	// HotReplicas caps extra owners the shard manager may add per slot
	// (default 1). Only meaningful with Manager.
	HotReplicas int
	// Manager runs the adaptive shard manager: it probes each node's
	// per-slot load at /debug/cluster and adds/drops hot-slot replicas.
	Manager bool
	// ManagerInterval is the manager's probe cadence (default 250ms).
	ManagerInterval time.Duration
	// HotFactor overrides the manager's hot-slot threshold (default 4×
	// the mean slot load).
	HotFactor float64
	// MinLoad overrides the manager's per-round request floor below which
	// a slot is never replicated (default 16).
	MinLoad int64
	// EjectRetain bounds the eject stream's retention in records
	// (cluster.DefaultEjectRetain when 0). A consumer that falls further
	// behind than this sees the truncation signal and clears its cache.
	EjectRetain int
	// FrontPolicy selects how the front balancer routes requests to the
	// cache nodes: "hash" (default, empty) sends each key straight to an
	// owner; "rr" round-robins across all nodes — the topology where
	// clients reach arbitrary edge caches and non-owners pay the one-hop
	// forward that hot-slot replication then amortizes.
	FrontPolicy string
}

// SiteConfig describes a complete single-process Configuration III site.
type SiteConfig struct {
	// Schema is a SQL script creating and seeding the database (required).
	Schema string
	// Servlets are the application (required, at least one).
	Servlets []ServletDef
	// CacheCapacity bounds the web cache (0 = unbounded).
	CacheCapacity int
	// PoolSize is each app server's DB connection pool (default 8).
	PoolSize int
	// WebServers is how many app-server instances to run behind a
	// round-robin balancer (default 1; >1 adds the paper's LocalDirector
	// tier in front of the farm).
	WebServers int
	// Interval is the CachePortal cycle cadence (default 200ms; the paper
	// used 1s).
	Interval time.Duration
	// Feed switches the site to event-driven invalidation: the portal
	// subscribes to the DB server's update-log stream (wire.LogFeed) and
	// cycles as soon as records arrive, and Interval degrades to the
	// fallback cadence. Invalidation outcomes are identical to polling;
	// commit-to-eject staleness drops from O(Interval) to the cycle time.
	Feed bool
	// PollBudget bounds per-cycle polling time (0 = unbounded).
	PollBudget time.Duration
	// Workers bounds the invalidator's evaluation parallelism (0 =
	// GOMAXPROCS, 1 = sequential).
	Workers int
	// PollConns is how many DB connections the invalidator polls over
	// (default 1; >1 lets concurrent workers poll in parallel).
	PollConns int
	// Fragments enables fragment-level caching and edge assembly: the app
	// servers answer composite-negotiated requests with fragment pieces,
	// the proxy stores each fragment under its own key and assembles pages
	// at the edge, and the invalidator (key-agnostic) ejects individual
	// fragments. Off, everything runs at whole-page granularity exactly as
	// before.
	Fragments bool
	// CookieAllow is the proxy's per-servlet cookie allowlist for cache
	// keys (webcache.Proxy.CookieAllow). Only meaningful on the proxy tier;
	// servlets' own KeySpec cookie lists are unaffected.
	CookieAllow map[string][]string
	// Rules are administrator invalidation policies.
	Rules []Rule
	// SourceName is the data source name servlets use (default "db").
	SourceName string
	// DisablePredIndex turns off the invalidator's predicate index and
	// restores the per-instance registry scan (identical invalidation
	// outcomes; A/B measurement and escape hatch).
	DisablePredIndex bool
	// AutoIndex lets the database create hash and ordered indexes from the
	// WHERE shapes of interned query templates, so the invalidator's
	// polling queries probe instead of scanning.
	AutoIndex bool
	// Cluster configures the distributed web-cache tier (zero = off).
	Cluster ClusterConfig
	// Obs receives metrics from every tier (cache, sniffer, invalidator,
	// freshness trace). Nil allocates a registry; reach it via Site.Obs.
	Obs *obs.Registry
	// Chaos, when set, injects faults on the invalidation path: the
	// update-log puller and the cache ejector are wrapped with the
	// injector's decorators, and the injector's counters are registered
	// with the site's Obs registry. The fault model is crash/omission
	// (delay, error, drop, black-hole) — never corrupted data — so the
	// site must stay correct, just slower to converge.
	Chaos *faults.Injector
	// Tracer, when set, threads end-to-end pipeline tracing through every
	// hop: commits stamp trace contexts into the update log
	// (engine.commit), the feed advances them across the wire
	// (feed.deliver), the invalidator records the cycle phases and the
	// eject closes the trace in the cache (webcache.eject). nil = tracing
	// off; the commit path then pays one atomic load.
	Tracer *trace.Tracer
}

// Site is a running Configuration III deployment: DBMS over TCP, servlet
// container behind a caching reverse proxy, and a CachePortal keeping the
// cache fresh. Use CacheURL as the end-user entry point.
type Site struct {
	DB       *engine.Database
	DBServer *wire.Server
	DBAddr   string

	QueryLog   *QueryLog
	RequestLog *RequestLog

	// App is the first (or only) app server; Apps lists all of them.
	App  *appserver.Server
	Apps []*appserver.Server
	// AppURL is the origin the cache forwards to: the single app server,
	// or the balancer when WebServers > 1. AppURLs lists each server.
	AppURL  string
	AppURLs []string
	// Cache/Proxy are the first (or only) cache node; with a cluster,
	// Caches/Proxies/CacheURLs list every node. CacheURL stays the one
	// end-user entry point (the front balancer when clustered).
	Cache     *webcache.Cache
	Proxy     *webcache.Proxy
	CacheURL  string
	Caches    []*webcache.Cache
	Proxies   []*webcache.Proxy
	CacheURLs []string
	// ClusterView is the placement map shared by the front balancer and
	// the shard manager (nil when not clustered).
	ClusterView *cluster.View
	// EjectLog is the invalidation stream the cache nodes consume (nil
	// on a single-node site); EjectStreamURL is its HTTP endpoint.
	EjectLog       *cluster.EjectLog
	EjectStreamURL string
	// Manager is the running shard manager (nil unless Cluster.Manager).
	Manager *cluster.Manager

	Portal *Portal
	// Obs is the site-wide metrics registry (SiteConfig.Obs or the one
	// allocated by NewSite). Serve it with obs.MetricsHandler, or snapshot
	// it directly.
	Obs *obs.Registry
	// Tracer is the pipeline tracer from SiteConfig (nil when tracing is
	// off). Serve it with trace.Handler, or read Traces() directly.
	Tracer *trace.Tracer

	feed      *wire.LogFeed
	appHTTP   []*http.Server
	proxyHTTP *http.Server
	appLn     []net.Listener
	proxyLn   net.Listener
	appLB     *balancer.Balancer
	pools     []*driver.Pool
	pollConn  driver.Conn
	pollConns []driver.Conn

	cacheHTTP   []*http.Server
	cacheLB     *balancer.Balancer
	streamHTTP  *http.Server
	consumers   []*ejectConsumer
	managerStop chan struct{}
}

// ejectConsumer pairs a cache node's stream consumer with its lifecycle
// channels, so tests can drop and rejoin a node.
type ejectConsumer struct {
	c    *cluster.Consumer
	stop chan struct{}
	done chan struct{}
}

// NewSite assembles and starts a Site.
func NewSite(cfg SiteConfig) (*Site, error) {
	if cfg.Schema == "" {
		return nil, fmt.Errorf("cacheportal: SiteConfig.Schema is required")
	}
	if len(cfg.Servlets) == 0 {
		return nil, fmt.Errorf("cacheportal: at least one servlet is required")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 8
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.SourceName == "" {
		cfg.SourceName = "db"
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}

	s := &Site{Obs: cfg.Obs, Tracer: cfg.Tracer}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	// Database server. The tracer attaches after the schema script runs so
	// seed records don't open traces nobody will ever finish.
	s.DB = engine.NewDatabase()
	s.DB.SetAutoIndex(cfg.AutoIndex)
	if _, err := s.DB.ExecScript(cfg.Schema); err != nil {
		return nil, fmt.Errorf("cacheportal: schema: %w", err)
	}
	s.DB.SetTracer(cfg.Tracer)
	s.DBServer = wire.NewServer(s.DB)
	s.DBServer.Instrument(cfg.Obs, "dbserver")
	addr, err := s.DBServer.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.DBAddr = addr

	// Application server farm with logging driver + pool + data source.
	// All servers share the two logs, so the sniffer sees the whole farm.
	s.QueryLog = driver.NewQueryLog(0)
	s.RequestLog = appserver.NewRequestLog(0)
	netDriver := driver.NetDriver{}
	logged := driver.NewLoggingDriver(netDriver, s.QueryLog)
	nServers := cfg.WebServers
	if nServers < 1 {
		nServers = 1
	}
	for i := 0; i < nServers; i++ {
		pool, err := driver.NewPool(logged, addr, cfg.PoolSize)
		if err != nil {
			return nil, err
		}
		s.pools = append(s.pools, pool)
		reg := driver.NewRegistry()
		reg.Bind(cfg.SourceName, pool)
		app := appserver.NewServer(reg, s.RequestLog)
		app.Fragments = cfg.Fragments
		app.MinSensitivity = cfg.Interval
		if cfg.Feed {
			// Event-driven invalidation bounds staleness by the cycle time,
			// not the fallback interval, so temporally sensitive servlets
			// stay cacheable.
			app.MinSensitivity = invalidator.EventStalenessBound
		}
		for _, def := range cfg.Servlets {
			if err := app.Register(def.Meta, def.Handler); err != nil {
				return nil, err
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: app}
		go hs.Serve(ln)
		s.Apps = append(s.Apps, app)
		s.appHTTP = append(s.appHTTP, hs)
		s.appLn = append(s.appLn, ln)
		s.AppURLs = append(s.AppURLs, "http://"+ln.Addr().String())
	}
	s.App = s.Apps[0]
	s.AppURL = s.AppURLs[0]
	if nServers > 1 {
		s.appLB = balancer.New(s.AppURLs...)
		lbLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go s.appLB.Serve(lbLn)
		s.AppURL = "http://" + lbLn.Addr().String()
	}

	// Caching reverse proxy tier (the dynamic web content cache): a single
	// proxy, or — with Cluster.CacheNodes > 1 — a consistent-hash cluster
	// of them behind a hash-routing front balancer.
	if cfg.Cluster.CacheNodes > 1 {
		if err := s.buildCacheCluster(cfg); err != nil {
			return nil, err
		}
	} else {
		s.Cache = webcache.NewCache(cfg.CacheCapacity)
		s.Cache.Instrument(cfg.Obs, "webcache")
		s.Proxy = webcache.NewProxy(s.AppURL, s.Cache)
		s.Proxy.Fragments = cfg.Fragments
		s.Proxy.CookieAllow = cfg.CookieAllow
		s.proxyLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.proxyHTTP = &http.Server{Handler: s.Proxy}
		go s.proxyHTTP.Serve(s.proxyLn)
		s.CacheURL = "http://" + s.proxyLn.Addr().String()
	}

	// CachePortal: reads the update log over the wire — streamed when
	// cfg.Feed, polled otherwise — polls via its own connection, ejects
	// directly into the cache.
	var logClient *wire.Client
	var notifier invalidator.LogNotifier
	var puller invalidator.LogPuller
	if cfg.Feed {
		feedClient, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		s.feed = wire.NewLogFeed(feedClient, 1, 0)
		s.feed.Instrument(cfg.Obs, "feed")
		s.feed.SetTracer(cfg.Tracer)
		puller = s.feed
		notifier = s.feed
	} else {
		logClient, err = wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		puller = invalidator.WireLogPuller{Client: logClient}
	}
	closeLog := func() {
		if logClient != nil {
			logClient.Close()
		}
	}
	s.pollConn, err = netDriver.Connect(addr)
	if err != nil {
		closeLog()
		return nil, err
	}
	poller := invalidator.Poller(s.pollConn)
	if cfg.PollConns > 1 {
		conns := []invalidator.Poller{s.pollConn}
		for i := 1; i < cfg.PollConns; i++ {
			c, err := netDriver.Connect(addr)
			if err != nil {
				closeLog()
				return nil, err
			}
			s.pollConns = append(s.pollConns, c)
			conns = append(conns, c)
		}
		poller = invalidator.NewConcurrentPoller(conns...)
	}
	// A cluster's portal appends to the eject log and every cache node's
	// consumer applies it from its own cursor; a single cache is ejected
	// in-process.
	var ejector invalidator.Ejector = invalidator.CacheEjector{Cache: s.Cache, Tracer: cfg.Tracer}
	if s.EjectLog != nil {
		ejector = cluster.StreamEjector{Log: s.EjectLog}
	}
	if cfg.Chaos != nil {
		cfg.Chaos.Instrument(cfg.Obs, "")
		puller = faults.Puller{Next: puller, Inj: cfg.Chaos}
		ejector = faults.Ejector{Next: ejector, Inj: cfg.Chaos}
	}
	portal, err := core.New(core.Options{
		RequestLog: s.RequestLog,
		QueryLog:   s.QueryLog,
		Puller:     puller,
		Poller:     poller,
		Ejector:    ejector,
		Interval:   cfg.Interval,
		PollBudget: cfg.PollBudget,
		Workers:    cfg.Workers,
		Rules:      cfg.Rules,
		Obs:        cfg.Obs,
		Notifier:   notifier,
		Tracer:     cfg.Tracer,

		DisablePredIndex: cfg.DisablePredIndex,
	})
	if err != nil {
		closeLog()
		return nil, err
	}
	s.Portal = portal
	for _, app := range s.Apps {
		app.Cacheable = portal.CacheableServlet
	}
	// In feed mode, wait for the stream to catch up with the schema-seeding
	// records before the swallow cycle below, so they are actually in the
	// feed's buffer to be skipped.
	if s.feed != nil {
		head := s.DB.Log().NextLSN()
		deadline := time.Now().Add(5 * time.Second)
		for s.feed.Next() < head && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	// Let the portal skip the schema-seeding log records so the cache
	// doesn't churn on startup. Under chaos the skip cycle itself may be
	// faulted; that only means the seed records are processed later, so it
	// is not fatal.
	if _, err := portal.Cycle(); err != nil && cfg.Chaos == nil {
		return nil, err
	}
	if err := portal.Start(); err != nil {
		return nil, err
	}

	ok = true
	return s, nil
}

// buildCacheCluster assembles the distributed cache tier: CacheNodes
// proxies (each a ClusterNode over its own shard of the hash ring, with
// node-ID-prefixed metrics so multi-node scrapes don't collide), a
// ConsistentHash front balancer as the one CacheURL entry point, the eject
// stream server plus one resuming consumer per node, and — when asked — the shard manager probing /debug/cluster.
func (s *Site) buildCacheCluster(cfg SiteConfig) error {
	n := cfg.Cluster.CacheNodes
	nodes := make([]cluster.NodeInfo, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		nodes[i] = cluster.NodeInfo{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
	}
	initial := cluster.NewMap(cfg.Cluster.Slots, nodes)
	// The control view (balancer, manager) and each node's own view start
	// from the same map; manager publishes reach the nodes through their
	// /debug/cluster endpoints, exactly as across machines.
	s.ClusterView = cluster.NewView(initial)
	for i := 0; i < n; i++ {
		cache := webcache.NewCache(cfg.CacheCapacity)
		cache.Instrument(cfg.Obs, "webcache."+nodes[i].ID)
		node := webcache.NewClusterNode(nodes[i].ID, cluster.NewView(initial), cache)
		node.Instrument(cfg.Obs, "cluster."+nodes[i].ID)
		proxy := webcache.NewProxy(s.AppURL, cache)
		proxy.Fragments = cfg.Fragments
		proxy.CookieAllow = cfg.CookieAllow
		proxy.Cluster = node
		hs := &http.Server{Handler: proxy}
		go hs.Serve(lns[i])
		s.Caches = append(s.Caches, cache)
		s.Proxies = append(s.Proxies, proxy)
		s.cacheHTTP = append(s.cacheHTTP, hs)
		s.CacheURLs = append(s.CacheURLs, nodes[i].URL)
	}
	s.Cache, s.Proxy = s.Caches[0], s.Proxies[0]

	s.cacheLB = balancer.New(s.CacheURLs...)
	switch cfg.Cluster.FrontPolicy {
	case "", "hash":
		s.cacheLB.Policy = balancer.ConsistentHash
		s.cacheLB.View = s.ClusterView
	case "rr":
		s.cacheLB.Policy = balancer.RoundRobin
	default:
		return fmt.Errorf("cluster: unknown FrontPolicy %q (want \"hash\" or \"rr\")", cfg.Cluster.FrontPolicy)
	}
	lbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go s.cacheLB.Serve(lbLn)
	s.CacheURL = "http://" + lbLn.Addr().String()

	s.EjectLog = cluster.NewEjectLog(cfg.Cluster.EjectRetain)
	mux := http.NewServeMux()
	mux.Handle("/ejects", s.EjectLog.Handler())
	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.streamHTTP = &http.Server{Handler: mux}
	go s.streamHTTP.Serve(streamLn)
	s.EjectStreamURL = "http://" + streamLn.Addr().String() + "/ejects"
	for i, cache := range s.Caches {
		s.consumers = append(s.consumers, &ejectConsumer{c: &cluster.Consumer{
			URL:   s.EjectStreamURL,
			Apply: webcache.StreamApplier(cache, cfg.Tracer),
			Clear: cache.Clear,
			Wait:  time.Second,
		}})
		s.ResumeEjectConsumer(i)
	}

	if cfg.Cluster.Manager {
		probes := make([]cluster.Probe, n)
		for i := range probes {
			probes[i] = cluster.HTTPProbe{URL: s.CacheURLs[i]}
		}
		s.Manager = &cluster.Manager{
			View:        s.ClusterView,
			Probes:      probes,
			MaxReplicas: cfg.Cluster.HotReplicas,
			HotFactor:   cfg.Cluster.HotFactor,
			MinLoad:     cfg.Cluster.MinLoad,
			Obs:         cfg.Obs,
		}
		interval := cfg.Cluster.ManagerInterval
		if interval <= 0 {
			interval = 250 * time.Millisecond
		}
		s.managerStop = make(chan struct{})
		go s.Manager.Run(interval, s.managerStop)
	}
	return nil
}

// StopEjectConsumer stops cache node i's eject-stream consumer — the test
// hook for "a replica dropped off the invalidation feed". The node keeps
// serving whatever it has; its cursor is preserved for the rejoin.
func (s *Site) StopEjectConsumer(i int) {
	if i < 0 || i >= len(s.consumers) {
		return
	}
	ec := s.consumers[i]
	if ec.stop == nil {
		return
	}
	close(ec.stop)
	<-ec.done
	ec.stop, ec.done = nil, nil
}

// ResumeEjectConsumer (re)starts node i's consumer from its saved cursor —
// the rejoin path: it catches up on every eject it missed, or clears the
// node's cache if the stream truncated past its cursor.
func (s *Site) ResumeEjectConsumer(i int) {
	if i < 0 || i >= len(s.consumers) {
		return
	}
	ec := s.consumers[i]
	if ec.stop != nil {
		return
	}
	ec.stop, ec.done = make(chan struct{}), make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ec.c.Run(stop)
	}(ec.stop, ec.done)
}

// EjectConsumerCursor returns node i's stream resume cursor.
func (s *Site) EjectConsumerCursor(i int) int64 {
	if i < 0 || i >= len(s.consumers) {
		return 0
	}
	return s.consumers[i].c.Cursor()
}

// EjectStreamLag reports how many stream records the slowest running
// consumer still has to apply (0 on a single-node site; stopped
// consumers don't count — they are lagging on purpose).
func (s *Site) EjectStreamLag() int64 {
	if s.EjectLog == nil {
		return 0
	}
	head := s.EjectLog.NextSeq()
	var lag int64
	for _, ec := range s.consumers {
		if ec.stop == nil {
			continue
		}
		if d := head - ec.c.Cursor(); d > lag {
			lag = d
		}
	}
	return lag
}

// WaitEjectStream blocks until every running consumer has applied the
// whole eject log (or the timeout passes), reporting success. The
// convergence barrier cluster tests quiesce on.
func (s *Site) WaitEjectStream(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.EjectStreamLag() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// allCaches lists every cache node (the single cache when not clustered).
func (s *Site) allCaches() []*webcache.Cache {
	if len(s.Caches) > 0 {
		return s.Caches
	}
	return []*webcache.Cache{s.Cache}
}

// Close shuts every component down. Safe on partially built sites.
func (s *Site) Close() {
	if s.Portal != nil {
		s.Portal.Stop()
	}
	if s.managerStop != nil {
		close(s.managerStop)
		s.managerStop = nil
	}
	for i := range s.consumers {
		s.StopEjectConsumer(i)
	}
	if s.feed != nil {
		s.feed.Close()
	}
	if s.proxyHTTP != nil {
		s.proxyHTTP.Close()
	}
	if s.streamHTTP != nil {
		s.streamHTTP.Close()
	}
	if s.cacheLB != nil {
		s.cacheLB.Close()
	}
	for _, hs := range s.cacheHTTP {
		hs.Close()
	}
	if s.appLB != nil {
		s.appLB.Close()
	}
	for _, hs := range s.appHTTP {
		hs.Close()
	}
	for _, p := range s.pools {
		p.Close()
	}
	if s.pollConn != nil {
		s.pollConn.Close()
	}
	for _, c := range s.pollConns {
		c.Close()
	}
	if s.DBServer != nil {
		s.DBServer.Close()
	}
}

// Exec runs a backend update against the database (the paper's "Upd"
// arrow: changes arriving outside the web path).
func (s *Site) Exec(sql string) error {
	_, err := s.DB.ExecSQL(sql)
	return err
}

// WaitForInvalidation runs portal cycles until the page with the given
// cache key is gone from the cache or the timeout elapses. It returns
// whether the page was invalidated. Intended for tests and demos; the
// background loop does the same work on its own cadence.
func (s *Site) WaitForInvalidation(cacheKey string, timeout time.Duration) bool {
	gone := func() bool {
		for _, c := range s.allCaches() {
			if _, present := c.Peek(cacheKey); present {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if gone() {
			return true
		}
		s.Portal.Cycle()
		time.Sleep(5 * time.Millisecond)
	}
	return gone()
}
