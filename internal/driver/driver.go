// Package driver is the reproduction's JDBC analog: a uniform connection
// interface over the wire protocol (or an in-process database), connection
// pools and named data sources (the three access styles of paper §3.2), and
// — centrally — LoggingDriver, the non-invasive query-logger wrapper that
// records every query's text and receive/delivery timestamps for the
// sniffer, no matter how the application obtained its connection.
package driver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/wire"
)

// Conn is one logical database connection.
type Conn interface {
	// Query executes one SQL statement.
	Query(sql string) (*engine.Result, error)
	// Close releases the connection.
	Close() error
}

// Driver opens connections to a database identified by a URL. URLs take the
// form "net://host:port" or "direct://" (in-process, see DirectDriver).
type Driver interface {
	Connect(url string) (Conn, error)
}

// ---------------------------------------------------------------------------
// Network driver
// ---------------------------------------------------------------------------

// NetDriver connects over the wire protocol.
type NetDriver struct{}

// Connect dials url, which must look like "net://host:port" (the scheme is
// optional).
func (NetDriver) Connect(url string) (Conn, error) {
	addr := trimScheme(url, "net")
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &netConn{c: c, stmts: lru.New[string, *wire.Stmt](stmtCacheCapacity)}, nil
}

// stmtCacheCapacity bounds each network connection's fingerprint→statement
// cache (QueryStmt's prepared handles). Eviction costs one re-PREPARE.
const stmtCacheCapacity = 256

type netConn struct {
	c     *wire.Client
	stmts *lru.Cache[string, *wire.Stmt]
}

func (n *netConn) Query(sql string) (*engine.Result, error) { return n.c.Query(sql) }
func (n *netConn) Close() error                             { return n.c.Close() }

// Wire returns the underlying wire client (for LogSince etc.).
func (n *netConn) Wire() *wire.Client { return n.c }

func trimScheme(url, scheme string) string {
	prefix := scheme + "://"
	if len(url) >= len(prefix) && url[:len(prefix)] == prefix {
		return url[len(prefix):]
	}
	return url
}

// ---------------------------------------------------------------------------
// Direct (in-process) driver
// ---------------------------------------------------------------------------

// DirectDriver serves connections straight from an in-process Database;
// used by unit tests and single-process examples.
type DirectDriver struct {
	DB *engine.Database
	// Delay, when non-nil, adds artificial per-query service time.
	Delay func(sql string) time.Duration
}

// Connect ignores the URL and returns a connection to the wrapped database.
func (d DirectDriver) Connect(string) (Conn, error) {
	if d.DB == nil {
		return nil, errors.New("driver: DirectDriver has no database")
	}
	return &directConn{d: d}, nil
}

type directConn struct {
	d      DirectDriver
	closed bool
	mu     sync.Mutex
}

func (c *directConn) Query(sql string) (*engine.Result, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("driver: connection closed")
	}
	c.delay(sql)
	return c.d.DB.ExecSQL(sql)
}

func (c *directConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Connection pool (paper: "JDBC pools provided by the server")
// ---------------------------------------------------------------------------

// Pool is a fixed-capacity connection pool. Get blocks until a connection
// is free; Put returns it. Each Get/Put pair is a lease, identified by a
// unique lease ID that the logging layer attaches to queries so that the
// sniffer can attribute queries to requests even under concurrency.
type Pool struct {
	url    string
	driver Driver

	mu     sync.Mutex
	cond   *sync.Cond
	idle   []Conn
	total  int
	max    int
	closed bool
}

// leaseCounter issues process-wide unique lease IDs. Uniqueness across
// pools matters: a deployment runs one pool per application server, and the
// sniffer disambiguates concurrent requests by lease ID — colliding IDs
// would leak queries across servers' requests.
var leaseCounter atomic.Int64

// NewPool creates a pool of up to max connections opened via d at url.
// Connections are opened lazily.
func NewPool(d Driver, url string, max int) (*Pool, error) {
	if max <= 0 {
		return nil, fmt.Errorf("driver: pool size must be positive, got %d", max)
	}
	p := &Pool{url: url, driver: d, max: max}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// Lease is a pooled connection plus its lease identity.
type Lease struct {
	Conn
	ID   int64
	pool *Pool
	done bool
}

// Release returns the connection to the pool. Using the Lease afterwards
// is an error.
func (l *Lease) Release() {
	if l.done {
		return
	}
	l.done = true
	l.pool.put(l.Conn)
}

// Get leases a connection, blocking while the pool is exhausted.
func (p *Pool) Get() (*Lease, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("driver: pool closed")
		}
		if len(p.idle) > 0 {
			c := p.idle[len(p.idle)-1]
			p.idle = p.idle[:len(p.idle)-1]
			id := leaseCounter.Add(1)
			p.mu.Unlock()
			if t, ok := c.(Taggable); ok {
				t.SetTag(id)
			}
			return &Lease{Conn: c, ID: id, pool: p}, nil
		}
		if p.total < p.max {
			p.total++
			id := leaseCounter.Add(1)
			p.mu.Unlock()
			c, err := p.driver.Connect(p.url)
			if err != nil {
				p.mu.Lock()
				p.total--
				p.cond.Signal()
				p.mu.Unlock()
				return nil, err
			}
			if t, ok := c.(Taggable); ok {
				t.SetTag(id)
			}
			return &Lease{Conn: c, ID: id, pool: p}, nil
		}
		p.cond.Wait()
	}
}

func (p *Pool) put(c Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		p.total--
		return
	}
	p.idle = append(p.idle, c)
	p.cond.Signal()
}

// Close closes idle connections and fails pending and future Gets.
// Connections currently leased are closed when released.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, c := range p.idle {
		c.Close()
		p.total--
	}
	p.idle = nil
	p.cond.Broadcast()
	return nil
}

// Stats reports pool occupancy: total opened and currently idle.
func (p *Pool) Stats() (total, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, len(p.idle)
}

// ---------------------------------------------------------------------------
// DataSource registry (paper: "DataSources provided by the server",
// the JNDI-tree analog)
// ---------------------------------------------------------------------------

// Registry is a name → pool map, the analog of binding JDBC resource
// factories into the server's JNDI tree.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]*Pool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]*Pool)}
}

// Bind registers pool under name, replacing any previous binding.
func (r *Registry) Bind(name string, pool *Pool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[name] = pool
}

// Lookup returns the pool bound to name.
func (r *Registry) Lookup(name string) (*Pool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.sources[name]
	if !ok {
		return nil, fmt.Errorf("driver: no data source %q", name)
	}
	return p, nil
}

// Names returns the bound names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sources))
	for n := range r.sources {
		out = append(out, n)
	}
	return out
}
