package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	cacheportal "repro"
	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/fragment"
	"repro/internal/wire"
)

// pageKeys are the cache keys of p as the application server names them.
type pageKeys struct {
	template string
	frags    map[string]string // fragment name → key
}

func keysOf(host string, p page) pageKeys {
	r, err := http.NewRequest(http.MethodGet, "http://"+host+p.path(), nil)
	if err != nil {
		panic(err) // the path is built from constants and integers
	}
	var spec cacheportal.KeySpec
	names := map[string]bool{"rows": false}
	if p.servlet == home {
		r.Header.Set("Cookie", p.cookie())
		spec.Cookie = []string{"session"}
		names = map[string]bool{"header": false, "listing": false, "trim": true}
	}
	k := pageKeys{
		template: fragment.TemplateKey(appserver.SharedPageKey(r, nil, spec)),
		frags:    map[string]string{},
	}
	for name, private := range names {
		k.frags[name] = appserver.FragmentCacheKey(r, nil, spec, name, private)
	}
	return k
}

// canary is one commit-to-eject probe: an update to the small table in a
// reserved category whose light page is cached, timed until that page's rows
// fragment is gone from every cache node. The light page is cheap to render
// again and a delete on small holds the engine's write lock for a millisecond
// (six on large), so the probe loads the site by about a hundredth.
type canary struct {
	at     time.Duration // since the background started
	commit time.Duration // the update call
	eject  time.Duration // commit return → gone everywhere
	// feed, decide and apply split eject at the moments the harness's own
	// feed subscription and eject-stream long-poll saw the update (traced
	// runs only).
	feed, decide, apply time.Duration
	staged              bool
	err                 error
}

// stages are the canary's four intervals in invalidationLadder's order.
func (c canary) stages() [4]time.Duration {
	return [4]time.Duration{c.commit, c.feed, c.decide, c.apply}
}

// background is the traffic beside the page load: the workload's update
// stream and the canaries. Both write through the oracle.
type background struct {
	site  *cacheportal.Site
	host  string
	o     *oracle
	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	mu            sync.Mutex
	canaries      []canary
	updates       int
	updateErrs    []error
	verifySamples []sample
	watch         *watchers // nil unless traced
}

// startBackground starts both streams: every update of the schedule, and the
// canaries due within d. The number of operations is therefore the same
// whenever the page load beside them happens to end; wait returns when the
// last has finished. watch, when not nil, also splits each canary into its
// stages, and is closed with the background.
func startBackground(site *cacheportal.Site, host string, o *oracle, updates []updateOp, d time.Duration, watch *watchers) (*background, error) {
	b := &background{site: site, host: host, o: o, watch: watch, start: time.Now(), stop: make(chan struct{})}
	upd, err := driver.NetDriver{}.Connect(site.DBAddr)
	if err != nil {
		return nil, err
	}
	can, err := driver.NetDriver{}.Connect(site.DBAddr)
	if err != nil {
		upd.Close()
		return nil, err
	}
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		defer upd.Close()
		b.runUpdates(upd, updates)
	}()
	go func() {
		defer b.wg.Done()
		defer can.Close()
		b.runCanaries(can, d)
	}()
	return b, nil
}

// wait returns when both streams have run to their end.
func (b *background) wait() {
	b.wg.Wait()
	if b.watch != nil {
		b.watch.close()
	}
}

// close abandons what is left of both streams and waits for them.
func (b *background) close() {
	close(b.stop)
	b.wait()
}

// sleepUntil waits for t and reports whether the background is still wanted.
func (b *background) sleepUntil(t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-b.stop:
		return false
	case <-timer.C:
		return true
	}
}

func (b *background) commit(conn driver.Conn, u update) (time.Duration, time.Time, error) {
	b.o.begin(u)
	t0 := time.Now()
	_, err := conn.Query(u.sql())
	t1 := time.Now()
	b.o.end(u, t1)
	return t1.Sub(t0), t1, err
}

func (b *background) runUpdates(conn driver.Conn, ops []updateOp) {
	for _, op := range ops {
		if !b.sleepUntil(b.start.Add(op.due)) {
			return
		}
		_, _, err := b.commit(conn, op.u)
		b.mu.Lock()
		b.updates++
		if err != nil {
			b.updateErrs = append(b.updateErrs, err)
		}
		b.mu.Unlock()
	}
}

func (b *background) runCanaries(conn driver.Conn, d time.Duration) {
	c := newClient(b.site.CacheURL[len("http://"):], b.host)
	defer c.close()
	first := categories - canaryCategories
	for n := 0; time.Duration(n)*canaryPeriod < d; n++ {
		if !b.sleepUntil(b.start.Add(time.Duration(n) * canaryPeriod)) {
			return
		}
		// Each category alternates inserting a row and deleting it again.
		round := n / canaryCategories
		cat := first + n%canaryCategories
		u := update{table: small, cat: cat, insert: round%2 == 0,
			r: row{id: int64(round/2*canaryCategories + n%canaryCategories + 1), ver: int64(n + 1)}}
		at := time.Since(b.start)
		res := b.probe(c, conn, u)
		res.at = at
		b.mu.Lock()
		b.canaries = append(b.canaries, res)
		b.mu.Unlock()
	}
}

func (b *background) probe(c *client, conn driver.Conn, u update) canary {
	p := page{servlet: light, cat: u.cat, session: -1}
	key := keysOf(b.host, p).frags["rows"]
	if b.gone(key) {
		if s := fetch(c, b.o, p); s.err != nil {
			return canary{err: s.err}
		}
	}
	t0 := time.Now()
	commit, t1, err := b.commit(conn, u)
	if err != nil {
		return canary{err: err}
	}
	res := canary{commit: commit}
	for !b.gone(key) {
		if time.Since(t1) > canaryTimeout {
			res.err = fmt.Errorf("canary: %s still cached %s after commit", key, canaryTimeout)
			return res
		}
		time.Sleep(50 * time.Microsecond)
	}
	tGone := time.Now()
	res.eject = tGone.Sub(t1)
	if b.watch != nil {
		res.stage(b.watch, u.r.id, key, t0, t1, tGone)
	}
	// The re-read warms the page for the category's next round and must show
	// the update.
	s := fetch(c, b.o, p)
	b.mu.Lock()
	b.verifySamples = append(b.verifySamples, s)
	b.mu.Unlock()
	return res
}

// gone reports whether no cache node holds key.
func (b *background) gone(key string) bool {
	for _, c := range b.site.Caches {
		if _, ok := c.Peek(key); ok {
			return false
		}
	}
	return true
}

// stage splits the canary's interval at the harness's own sightings. A
// sighting later than the next stage's (the harness's subscription ran
// behind the site's) is clamped, so the stages always add up to eject.
func (c *canary) stage(w *watchers, id int64, key string, t0, t1, tGone time.Time) {
	tFeed, ok1 := w.seen(w.rowSeen, fmt.Sprint(id), t0)
	tKey, ok2 := w.seen(w.keySeen, key, t0)
	if !ok1 || !ok2 {
		return
	}
	clamp := func(t, lo, hi time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(hi) {
			return hi
		}
		return t
	}
	tFeed = clamp(tFeed, t1, tGone)
	tKey = clamp(tKey, tFeed, tGone)
	c.feed, c.decide, c.apply, c.staged = tFeed.Sub(t1), tKey.Sub(tFeed), tGone.Sub(tKey), true
}

// watchers are the harness's own subscriptions to the two streams of the
// invalidation path: the database's update log and the eject stream. They
// timestamp what passes, from outside, like any other consumer would.
type watchers struct {
	mu      sync.Mutex
	rowSeen map[string][]time.Time // canary row id → arrivals on the update feed
	keySeen map[string][]time.Time // cache key → arrivals on the eject stream
	feed    *wire.LogFeed
	stop    chan struct{}
	wg      sync.WaitGroup
}

func startWatchers(site *cacheportal.Site) (*watchers, error) {
	fc, err := wire.Dial(site.DBAddr)
	if err != nil {
		return nil, err
	}
	fc.Binary = true
	w := &watchers{
		rowSeen: map[string][]time.Time{},
		keySeen: map[string][]time.Time{},
		feed:    wire.NewLogFeed(fc, site.DB.Log().NextLSN(), 0),
		stop:    make(chan struct{}),
	}
	w.wg.Add(2)
	go w.watchFeed()
	go w.watchEjects(site.EjectStreamURL, site.EjectLog.NextSeq())
	return w, nil
}

func (w *watchers) close() {
	close(w.stop)
	w.feed.Close()
	w.wg.Wait()
}

func (w *watchers) note(m map[string][]time.Time, k string, t time.Time) {
	w.mu.Lock()
	m[k] = append(m[k], t)
	w.mu.Unlock()
}

// seen returns the first arrival of k at or after t, waiting briefly for a
// subscription that runs behind.
func (w *watchers) seen(m map[string][]time.Time, k string, t time.Time) (time.Time, bool) {
	for deadline := time.Now().Add(200 * time.Millisecond); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		for _, at := range m[k] {
			if !at.Before(t) {
				w.mu.Unlock()
				return at, true
			}
		}
		w.mu.Unlock()
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
	}
}

func (w *watchers) watchFeed() {
	defer w.wg.Done()
	cursor := int64(0)
	for {
		changed := w.feed.Changed()
		recs, _, next, err := w.feed.PullSince(cursor)
		if err != nil {
			return // closed
		}
		now := time.Now()
		cursor = next
		for _, r := range recs {
			if r.Table == small.String() && len(r.Row) > 0 && r.Row[0].I < idStride {
				w.note(w.rowSeen, r.Row[0].String(), now)
			}
		}
		if len(recs) > 0 {
			continue
		}
		select {
		case <-changed:
		case <-w.stop:
			return
		}
	}
}

func (w *watchers) watchEjects(url string, cursor int64) {
	defer w.wg.Done()
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		resp, err := hc.Get(fmt.Sprintf("%s?cursor=%d&wait=200ms", url, cursor))
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var pg struct {
			Records []struct {
				Keys []string `json:"keys"`
			} `json:"records"`
			Next int64 `json:"next"`
		}
		err = json.NewDecoder(resp.Body).Decode(&pg)
		resp.Body.Close()
		if err != nil {
			continue
		}
		now := time.Now()
		cursor = pg.Next
		for _, r := range pg.Records {
			for _, k := range r.Keys {
				w.note(w.keySeen, k, now)
			}
		}
	}
}
