package main

import (
	"fmt"
	"sync"
	"time"

	cacheportal "repro"
	"repro/internal/driver"
	"repro/internal/fragment"
	"repro/internal/wire"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Times are nanoseconds since the traced run began; Parent indexes the
// span that caused it (-1 for a root); spans of one sampled request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (l *spanLog) add(name string, start, end time.Time, parent, req int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name, int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch)), parent, req})
	return len(l.spans) - 1
}

// finish sets the end of a span added before its children.
func (l *spanLog) finish(i int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = int64(end.Sub(l.epoch))
}

// One ladder starts every probePeriod; stepGap separates its steps. Calls
// made back to back find every thread awake and every cache line warm and
// run in half the time an arrival out of the blue takes, and arrivals out of
// the blue are what the open loop sends.
const (
	probePeriod = 100 * time.Millisecond
	stepGap     = 4 * time.Millisecond
)

// prober walks the request ladder: for one sampled page it calls each
// layer's public entry point in turn, outermost first, on its own
// connections, and records how long each call took.
type prober struct {
	site  *cacheportal.Site
	host  string
	o     *oracle
	log   *spanLog
	front *client
	nodes []*client
	lb    *client
	apps  []*client
	pool  *driver.Pool
	wc    *wire.Client

	dur     map[string][]float64 // layer → µs per call
	samples []sample             // the GETs, as page operations
}

func newProber(site *cacheportal.Site, host string, o *oracle, log *spanLog) (*prober, error) {
	addr := func(url string) string { return url[len("http://"):] }
	p := &prober{site: site, host: host, o: o, log: log, dur: map[string][]float64{},
		front: newClient(addr(site.CacheURL), host), lb: newClient(addr(site.AppURL), host)}
	for _, u := range site.CacheURLs {
		p.nodes = append(p.nodes, newClient(addr(u), host))
	}
	for _, u := range site.AppURLs {
		p.apps = append(p.apps, newClient(addr(u), host))
	}
	var err error
	if p.pool, err = driver.NewPool(driver.NetDriver{}, site.DBAddr, 1); err != nil {
		return nil, err
	}
	if p.wc, err = wire.Dial(site.DBAddr); err != nil {
		p.pool.Close()
		return nil, err
	}
	p.wc.Binary = true
	return p, nil
}

func (p *prober) close() {
	for _, c := range append(append([]*client{p.front, p.lb}, p.nodes...), p.apps...) {
		c.close()
	}
	p.pool.Close()
	p.wc.Close()
}

// run walks one ladder per probePeriod over pages drawn like the workload's
// own until stop closes.
func (p *prober) run(w workload, seed int64, stop <-chan struct{}) error {
	g := newPageGen(w, subSeed(seed, seedProbe, 0))
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for req := 0; ; req++ {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		if err := p.ladder(req, g.next()); err != nil {
			return err
		}
	}
}

// ladder times every layer on pg. A step that did not take the path it is
// named for (the page was ejected between two calls, say) is not recorded.
func (p *prober) ladder(req int, pg page) error {
	root := p.log.add("probe", time.Now(), time.Now(), -1, req)
	defer func() { p.log.finish(root, time.Now()) }()
	step := func(name string, fn func() (bool, error)) error {
		time.Sleep(stepGap)
		start := time.Now()
		ok, err := fn()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("probe %s %s: %w", name, pg.path(), err)
		}
		if ok {
			p.dur[name] = append(p.dur[name], us(end.Sub(start)))
			p.log.add(name, start, end, root, req)
		}
		return nil
	}
	cookie := ""
	if pg.session >= 0 {
		cookie = "Cookie: " + pg.cookie()
	}
	// get fetches pg from a cache and wants the given cache status ("" = any).
	get := func(c *client, want string) func() (bool, error) {
		return func() (bool, error) {
			sent := time.Now()
			status, body, err := c.get(pg.path(), cookie)
			if err != nil {
				return false, err
			}
			s := sample{page: pg, service: time.Since(sent), hit: status == "hit", partial: status == "partial"}
			s.latency, s.class = s.service, p.o.classify(pg, body, sent)
			p.samples = append(p.samples, s)
			return want == "" || status == want, nil
		}
	}
	// render asks an origin for pg the way a cache node does on a miss.
	render := func(c *client) func() (bool, error) {
		return func() (bool, error) {
			_, _, err := c.get(pg.path(), cookie, fragment.CompositeHeader+": "+fragment.CompositeAccept)
			return true, err
		}
	}

	// The hit path, from the front balancer inwards.
	if _, err := get(p.front, "")(); err != nil { // warm
		return err
	}
	if err := step("balancer.front", get(p.front, "hit")); err != nil {
		return err
	}
	keys := keysOf(p.host, pg)
	owner := -1
	for i, c := range p.site.Caches {
		if _, ok := c.Peek(keys.template); ok {
			owner = i
		}
	}
	if owner < 0 {
		return nil // ejected or evicted already; the next ladder will do
	}
	cache := p.site.Caches[owner]
	if err := step("webcache.node_hit", get(p.nodes[owner], "hit")); err != nil {
		return err
	}
	if err := step("cluster.forward", get(p.nodes[(owner+1)%len(p.nodes)], "hit")); err != nil {
		return err
	}
	pieces := map[string][]byte{}
	var tmpl []byte
	step("webcache.lookup", func() (bool, error) {
		e, ok := cache.Get(keys.template)
		if !ok {
			return false, nil
		}
		tmpl = e.Body
		for name, k := range keys.frags {
			f, ok := cache.Get(k)
			if !ok {
				return false, nil
			}
			pieces[name] = f.Body
		}
		return true, nil
	})
	if tmpl != nil && len(pieces) == len(keys.frags) {
		step("fragment.assemble", func() (bool, error) {
			_, err := fragment.Assemble(tmpl, func(name string) ([]byte, bool) {
				b, ok := pieces[name]
				return b, ok
			})
			return err == nil, err
		})
	}

	// The miss path, from the owning node down to the engine.
	cache.Invalidate(keys.template)
	if err := step("webcache.node_miss", get(p.nodes[owner], "miss")); err != nil {
		return err
	}
	if err := step("balancer.origin", render(p.lb)); err != nil {
		return err
	}
	if err := step("appserver.render", render(p.apps[req%len(p.apps)])); err != nil {
		return err
	}
	sql := pageSQL(pg.servlet, pg.cat)
	if err := step("driver.query", func() (bool, error) {
		lease, err := p.pool.Get()
		if err != nil {
			return false, err
		}
		defer lease.Release()
		_, err = lease.Query(sql)
		return true, err
	}); err != nil {
		return err
	}
	if err := step("wire.query", func() (bool, error) {
		_, err := p.wc.Query(sql)
		return true, err
	}); err != nil {
		return err
	}
	return step("engine.exec", func() (bool, error) {
		_, err := p.site.DB.ExecSQL(sql)
		return true, err
	})
}
