package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix. The rates are constants: about half of what
// the seed commit sustains closed-loop on two cores, never tuned at run time.
type workload struct {
	name string
	// readRate is the open loop's pages/s.
	readRate float64
	// cold reads draw uniformly from every readable page; otherwise reads
	// are Zipf over the hot set, a quarter of them personalised home pages.
	cold bool
	// updateRate is updates/s beside the reads (0 = none), spread over
	// tables. A stream with burst 1 is Poisson, its categories Zipf like the
	// reads'; a larger burst sends that many statements back to back at a
	// fixed period, uniformly over the hot categories from coldest on.
	updateRate float64
	burst      int
	tables     []table
	coldest    int
}

// The storm aims at small and keeps its bursts short because the engine
// deletes by full scan under its write lock: a delete costs about 1.3 ms on
// small (10,400 rows) and 6 ms on large (52,000). Six statements fit inside
// the invalidator's 10 ms coalescing window, so a burst is one cycle; bursts
// of 30 on large would stall every read for 100 ms, past the page SLO. It
// spares the four most read categories, so that five pages in six still hit
// and the median page is a hit: at a hit ratio near one half the median sits
// between the two modes and measures nothing.
var workloads = []workload{
	{name: "read_hot", readRate: 2000},
	{name: "read_cold", readRate: 200, cold: true},
	{name: "update_mix", readRate: 300, updateRate: 20, burst: 1, tables: []table{small, large}},
	{name: "update_storm", readRate: 100, updateRate: 200, burst: 6, tables: []table{small}, coldest: 4},
}

const (
	// connsPerCPU sizes the client: both loops use this many keep-alive
	// connections per processor. With only one per processor a single heavy
	// miss blocks half the client, and what the open loop then measures is
	// queueing in the client, not the site.
	connsPerCPU = 4
	zipfS       = 1.1
	homeShare   = 0.25
	// pageSLO is how late a page may be, from its due time, before it counts
	// as degraded. The issue proposed 100 ms; on this shared two-core box the
	// whole process now and then stalls for 100 to 400 ms (on read_hot, all
	// hits, as often as on the others), which at 2000 pages/s marks several
	// hundred pages in one run and none in the next. The tail such stalls
	// leave is reported as edge.page_p99_ms.
	pageSLO      = time.Second
	canaryPeriod = 100 * time.Millisecond
	// canaryTimeout is how long an update may take to clear the caches
	// before the canary counts as failed.
	canaryTimeout = 5 * time.Second
)

// pageGen draws a workload's pages from a seeded source.
type pageGen struct {
	rng      *rand.Rand
	cold     bool
	hot, hom *rand.Zipf
}

func newPageGen(w workload, seed int64) *pageGen {
	rng := rand.New(rand.NewSource(seed))
	return &pageGen{
		rng:  rng,
		cold: w.cold,
		hot:  rand.NewZipf(rng, zipfS, 1, hotCategories-1),
		hom:  rand.NewZipf(rng, zipfS, 1, homeCategories-1),
	}
}

func (g *pageGen) next() page {
	switch {
	case g.cold:
		return page{servlet: servlet(g.rng.Intn(3)), cat: g.rng.Intn(readCategories()), session: -1}
	case g.rng.Float64() < homeShare:
		return page{servlet: home, cat: int(g.hom.Uint64()), session: g.rng.Intn(sessions)}
	default:
		return page{servlet: servlet(g.rng.Intn(3)), cat: int(g.hot.Uint64()), session: -1}
	}
}

// readOp is one scheduled page request, due that long after the phase starts.
type readOp struct {
	due  time.Duration
	page page
}

// updateOp is one scheduled update.
type updateOp struct {
	due time.Duration
	u   update
}

// schedule is everything one open loop sends: its arrivals (Poisson at the
// workload's rate) and the update stream beside them.
type schedule struct {
	reads   []readOp
	updates []updateOp
}

// Sub-seeds keep the streams independent of one another's lengths.
const (
	seedReads = iota + 1
	seedUpdates
	seedClosed
	seedProbe
)

func subSeed(seed int64, stream, i int) int64 { return seed*1000 + int64(stream)*100 + int64(i) }

func genSchedule(w workload, seed int64, d time.Duration) schedule {
	var s schedule
	g := newPageGen(w, subSeed(seed, seedReads, 0))
	for t := nextArrival(g.rng, w.readRate); t < d; t += nextArrival(g.rng, w.readRate) {
		s.reads = append(s.reads, readOp{due: t, page: g.next()})
	}
	if w.updateRate == 0 {
		return s
	}
	// Deletes name a live row, so the generator keeps its own mirror of what
	// the stream has done so far.
	rng := rand.New(rand.NewSource(subSeed(seed, seedUpdates, 0)))
	zipf := rand.NewZipf(rng, zipfS, 1, hotCategories-1)
	m := newMirror()
	seq := int64(0)
	burstRate := w.updateRate / float64(w.burst)
	gap := func() time.Duration {
		if w.burst > 1 {
			return time.Duration(float64(time.Second) / burstRate)
		}
		return nextArrival(rng, burstRate)
	}
	for t := gap(); t < d; t += gap() {
		for i := 0; i < w.burst; i++ {
			seq++
			u := update{table: w.tables[rng.Intn(len(w.tables))], cat: int(zipf.Uint64())}
			if w.burst > 1 {
				u.cat = w.coldest + rng.Intn(hotCategories-w.coldest)
			}
			rows, seeded := m.rows[u.table][u.cat], smallPerCat
			if u.table == large {
				seeded = largePerCat
			}
			if len(rows) <= seeded/2 || (len(rows) < 2*seeded && rng.Intn(2) == 0) {
				u.insert, u.r = true, row{id: firstUpdateID + seq, ver: seq}
			} else {
				u.r = rows[rng.Intn(len(rows))]
			}
			m.apply(u)
			s.updates = append(s.updates, updateOp{due: t, u: u})
		}
	}
	return s
}

func nextArrival(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// digest identifies a schedule byte for byte.
func (s schedule) digest() string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	for _, r := range s.reads {
		put(int64(r.due), int64(r.page.servlet), int64(r.page.cat), int64(r.page.session))
	}
	for _, u := range s.updates {
		h.Write([]byte(u.u.sql()))
		put(int64(u.due))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// client is one keep-alive HTTP/1.1 connection, written by hand so that a
// request costs the harness one write and one parse and no goroutine.
type client struct {
	addr, host string
	conn       net.Conn
	br         *bufio.Reader
	req, body  bytes.Buffer
}

func newClient(addr, host string) *client { return &client{addr: addr, host: host} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// get fetches path with the given Host header and extra header lines
// ("Name: value"). body is valid until the next call.
func (c *client) get(path string, headers ...string) (cacheStatus string, body []byte, err error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return "", nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.req.Reset()
	c.req.WriteString("GET " + path + " HTTP/1.1\r\nHost: " + c.host + "\r\n")
	for _, h := range headers {
		if h != "" {
			c.req.WriteString(h + "\r\n")
		}
	}
	c.req.WriteString("\r\n")
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.conn.Write(c.req.Bytes()); err != nil {
		c.close()
		return "", nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return "", nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return resp.Header.Get("X-Cacheportal-Cache"), c.body.Bytes(), nil
}

func (c *client) getPage(p page) (string, []byte, error) {
	cookie := p.cookie()
	if cookie != "" {
		cookie = "Cookie: " + cookie
	}
	return c.get(p.path(), cookie)
}

// sample is one page request as the client saw it.
type sample struct {
	page    page
	latency time.Duration // from due time (open loop) or from send (closed loop)
	service time.Duration // send to last byte
	tick    time.Duration // how late the pacer's clock released it
	lag     time.Duration // release, or the connection coming free, to send
	hit     bool
	partial bool
	class   class
	err     error
}

// failed reports whether the page counts as a failed operation: no answer,
// or an answer the origin never rendered.
func (s sample) failed() bool {
	return s.err != nil || s.class == wrongBytes
}

// degraded reports a page that was answered with bytes the origin did render,
// but later than pageSLO or staler than stalenessBound. How late and how stale
// the site is are measured quantities (the latency and eject metrics, and the
// counts edge.late_pages and oracle.stale_past_pages); at the seed commit a
// page stale past the bound turns up by chance about once a minute (README.md,
// "Known defect"), so it cannot be part of an operation count that two sets
// of runs of one commit must agree on.
func (s sample) degraded() bool {
	return !s.failed() && (s.latency > pageSLO || s.class == stalePast)
}

// fetch requests p on c and dates the answer.
func fetch(c *client, o *oracle, p page) sample {
	sent := time.Now()
	status, body, err := c.getPage(p)
	s := sample{page: p, service: time.Since(sent), err: err}
	if err == nil {
		s.hit, s.partial = status == "hit", status == "partial"
		s.class = o.classify(p, body, sent)
	}
	return s
}

// pacerLead is how far ahead of now an open loop starts, so that the pacer
// process is up before the first request is due.
const pacerLead = 100 * time.Millisecond

// runOpen sends ops to the front balancer at addr (which is also the Host
// the requests name) on conns keep-alive connections, each as near its due
// time as the connections allow, and times every page from its due time: a
// stall delays the requests queued behind it and their latency says so.
func runOpen(addr string, o *oracle, ops []readOp, conns int) ([]sample, error) {
	samples := make([]sample, len(ops))
	// Sized to the schedule, so the pacer never waits for a busy client and
	// a backlog shows as queueing, not as late release.
	release := make(chan tick, len(ops))
	var wg sync.WaitGroup
	start := time.Now().Add(pacerLead)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr, addr)
			defer c.close()
			free := start
			for t := range release {
				due := start.Add(ops[t.i].due)
				if released := due.Add(t.late); released.After(free) {
					free = released
				}
				sent := time.Now()
				s := fetch(c, o, ops[t.i].page)
				s.tick, s.lag = t.late, sent.Sub(free)
				s.latency = sent.Sub(due) + s.service
				samples[t.i] = s
				free = time.Now()
			}
		}()
	}
	err := pace(start, ops, release)
	wg.Wait()
	return samples, err
}

// fetchAll requests every page once on conns connections, in no particular
// order: the warm-up.
func fetchAll(addr string, o *oracle, pages []page, conns int) []sample {
	samples := make([]sample, len(pages))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr, addr)
			defer c.close()
			for i := int(next.Add(1)) - 1; i < len(pages); i = int(next.Add(1)) - 1 {
				samples[i] = fetch(c, o, pages[i])
			}
		}()
	}
	wg.Wait()
	return samples
}

// runClosed keeps conns clients requesting back to back for d. It returns
// the samples and the pages/s of the median whole second, which one stall or
// one long collection does not move.
func runClosed(addr string, o *oracle, w workload, seed int64, conns int, d time.Duration) ([]sample, float64) {
	perClient := make([][]sample, conns)
	perSecond := make([]atomic.Int64, int(d/time.Second)+1)
	start := time.Now()
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(addr, addr)
			defer c.close()
			g := newPageGen(w, subSeed(seed, seedClosed, i))
			for time.Now().Before(deadline) {
				// Back to back, latency follows from the number of clients
				// (Little's law), so pageSLO does not apply: latency stays 0.
				perClient[i] = append(perClient[i], fetch(c, o, g.next()))
				if sec := int(time.Since(start) / time.Second); sec < len(perSecond) {
					perSecond[sec].Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	whole := int(d / time.Second)
	if whole == 0 {
		return all, float64(len(all)) / d.Seconds()
	}
	rates := make([]float64, whole)
	for i := range rates {
		rates[i] = float64(perSecond[i].Load())
	}
	return all, quantile(sortedCopy(rates), 0.5)
}
