// Package webcache implements the dynamic-content web cache of the paper's
// Configuration III: an HTTP reverse proxy that stores pages marked
// `Cache-Control: private, owner="cacheportal"` and evicts them on demand
// when it receives a request carrying the extended `Cache-Control: eject`
// header (the NetCache 4.0 mechanism the paper builds on, §4.2.4). Entries
// are LRU-bounded and keyed by the canonical page identifier the
// application server emits.
//
// The store is N-way sharded by FNV-1a key hash: each shard has its own
// mutex, LRU list, servlet index and statistics, so concurrent requests on
// different keys never contend on a single lock. Capacity is divided
// across shards (eviction is per-shard LRU); small caches collapse to one
// shard and keep exact global LRU semantics.
package webcache

import (
	"container/list"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one cached page, fragment, or assembly template.
type Entry struct {
	Key         string
	Body        []byte
	ContentType string
	Servlet     string
	StoredAt    time.Time
	// Refs, when non-nil, marks this entry as an assembly template: Body is
	// the skeleton with include markers and Refs names the fragments to
	// splice in. Shared refs carry their canonical fragment key; private
	// refs carry an empty key (the canonical key is per-user — the proxy
	// derives a per-request lookup key and resolves it through the alias
	// table).
	Refs []FragmentRef
}

// FragmentRef names one fragment an assembly template includes.
type FragmentRef struct {
	Name    string
	Key     string // canonical fragment key; "" for private refs
	Private bool
}

// IsTemplate reports whether the entry is an assembly template rather than
// a self-contained body.
func (e *Entry) IsTemplate() bool { return e.Refs != nil }

// Stats are the cache's counters (aggregated across shards).
type Stats struct {
	Hits          int64
	Misses        int64
	Stores        int64
	Invalidations int64 // entries removed by eject requests
	EjectMisses   int64 // eject requests naming keys that were not cached
	Evictions     int64 // entries removed by LRU pressure
}

// HitRatio returns hits/(hits+misses), or 0 when no lookups happened
// (guarded: derived ratios never produce NaN).
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// InvalidationPrecision returns the fraction of eject requests that
// removed a live entry — the invalidation-precision figure transparent
// invalidation systems are judged by. 0 when no ejects happened.
func (s Stats) InvalidationPrecision() float64 {
	total := s.Invalidations + s.EjectMisses
	if total == 0 {
		return 0
	}
	return float64(s.Invalidations) / float64(total)
}

// EvictionRate returns evictions per store, or 0 when nothing was stored.
func (s Stats) EvictionRate() float64 {
	if s.Stores == 0 {
		return 0
	}
	return float64(s.Evictions) / float64(s.Stores)
}

// shardEntry wraps an Entry with its global recency stamp (for Keys()).
type shardEntry struct {
	e   *Entry
	seq uint64
}

// cacheShard is one lock domain: a map + LRU list + servlet index + stats.
type cacheShard struct {
	mu        sync.Mutex
	capacity  int                      // 0 = unbounded
	entries   map[string]*list.Element // key → element whose Value is *shardEntry
	lru       *list.List               // front = most recent within this shard
	byServlet map[string]map[string]struct{}
	stats     Stats

	// Eject journal, for poisoning fills that an eject overtook (see
	// Cache.EjectEpoch). ejected is a ring of this shard's most recent keyed
	// ejects, each stamped with the cache-wide epoch it was assigned;
	// ejectFloor is the epoch of the shard's latest bulk eject (Clear,
	// InvalidatePrefix, InvalidateServlet), which poisons every older fill
	// regardless of key.
	ejected    [ejectJournal]ejectRecord
	ejectNext  int // ring slot the next record goes to
	ejectFloor uint64
}

// ejectJournal is how many keyed ejects a shard remembers. A fill that sees
// the whole ring newer than itself cannot rule its key out and is poisoned —
// a false positive that costs one store, so the ring only has to outlast the
// ejects of one origin round trip.
const ejectJournal = 64

type ejectRecord struct {
	key   string
	epoch uint64
}

// noteEject journals a keyed eject. Callers hold s.mu.
func (c *Cache) noteEject(s *cacheShard, key string) {
	s.ejected[s.ejectNext] = ejectRecord{key: key, epoch: c.ejectEpoch.Add(1)}
	s.ejectNext = (s.ejectNext + 1) % ejectJournal
}

// ejectedSince reports whether key may have been ejected after epoch since:
// a bulk eject landed, the key is in the journal with a later epoch, or the
// journal no longer reaches back to since. Callers hold s.mu.
func (s *cacheShard) ejectedSince(key string, since uint64) bool {
	if s.ejectFloor > since {
		return true
	}
	for i := 1; i <= ejectJournal; i++ {
		rec := &s.ejected[(s.ejectNext-i+ejectJournal)%ejectJournal]
		if rec.epoch <= since {
			return false // older than the fill (or an unused slot): done
		}
		if rec.key == key {
			return true
		}
	}
	return true
}

// stamp returns the next global recency stamp. Single-shard caches skip
// the atomic: their LRU list alone is the exact global order.
func (c *Cache) stamp() uint64 {
	if len(c.shards) == 1 {
		return 0
	}
	return c.seq.Add(1)
}

// Cache is a thread-safe sharded LRU page cache with invalidation. Besides
// direct keys, the cache maintains aliases: the proxy derives a lookup key
// from the raw request, while the origin names the canonical page key (its
// key-spec projection of the request); an alias links the former to the
// latter so subsequent raw requests hit. The alias table is shared across
// shards under its own read-mostly lock.
type Cache struct {
	shards []*cacheShard
	seq    atomic.Uint64 // global recency stamp
	// ejectEpoch counts ejects cache-wide; it advances under the lock of the
	// shard the eject applies to, so a fill's epoch orders it against every
	// shard's journal without knowing its key's shard in advance.
	ejectEpoch atomic.Uint64

	aliasMu   sync.RWMutex
	alias     map[string]string   // request key → canonical key
	aliasesOf map[string][]string // canonical key → its aliases

	// Per-servlet lookup counters, recorded by the proxy outside the shard
	// locks (NoteServlet), under their own mutex. onServlet fires once per
	// newly seen servlet name — after servletMu is released, so metric
	// registration (which snapshots under the obs registry lock) can never
	// invert lock order against a concurrent obs.Snapshot.
	servletMu    sync.Mutex
	servletStats map[string]*Stats
	onServlet    func(name string)
}

// minShardCapacity is the smallest per-shard capacity worth sharding for:
// below it, eviction skew outweighs lock contention, so the shard count is
// reduced (down to 1, which is exact global LRU).
const minShardCapacity = 32

// defaultShardCount sizes the shard set for a capacity: roughly GOMAXPROCS
// rounded up to a power of two (capped at 16), reduced until every shard
// holds at least minShardCapacity pages.
func defaultShardCount(capacity int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	if capacity > 0 {
		for n > 1 && capacity/n < minShardCapacity {
			n >>= 1
		}
	}
	return n
}

// NewCache creates a cache holding at most capacity pages (unbounded if
// capacity <= 0), sharded for the machine's parallelism. Small capacities
// get a single shard — exact LRU — automatically.
func NewCache(capacity int) *Cache {
	return NewCacheSharded(capacity, 0)
}

// NewCacheSharded creates a cache with an explicit shard count (0 = choose
// automatically, 1 = exact single-LRU semantics). Capacity is divided as
// evenly as possible across shards; the total never exceeds capacity.
func NewCacheSharded(capacity, shards int) *Cache {
	if shards <= 0 {
		shards = defaultShardCount(capacity)
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	c := &Cache{
		shards:       make([]*cacheShard, shards),
		alias:        make(map[string]string),
		aliasesOf:    make(map[string][]string),
		servletStats: make(map[string]*Stats),
	}
	for i := range c.shards {
		cap := 0
		if capacity > 0 {
			cap = capacity / shards
			if i < capacity%shards {
				cap++
			}
		}
		c.shards[i] = &cacheShard{
			capacity:  cap,
			entries:   make(map[string]*list.Element),
			lru:       list.New(),
			byServlet: make(map[string]map[string]struct{}),
		}
	}
	return c
}

// ShardCount reports how many lock domains the cache uses.
func (c *Cache) ShardCount() int { return len(c.shards) }

// shardFor hashes a key (FNV-1a) to its shard.
func (c *Cache) shardFor(key string) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Alias records that lookups for from should resolve to canonical key to.
// Identity aliases are ignored.
func (c *Cache) Alias(from, to string) {
	if from == to {
		return
	}
	c.aliasMu.Lock()
	defer c.aliasMu.Unlock()
	if prev, ok := c.alias[from]; ok {
		if prev == to {
			return
		}
		c.removeAliasLocked(prev, from)
	}
	c.alias[from] = to
	c.aliasesOf[to] = append(c.aliasesOf[to], from)
}

func (c *Cache) removeAliasLocked(target, from string) {
	list := c.aliasesOf[target]
	for i, a := range list {
		if a == from {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(c.aliasesOf, target)
	} else {
		c.aliasesOf[target] = list
	}
}

// dropAliases removes every alias pointing at key (called when the entry
// disappears). Safe to call while holding a shard lock: alias code never
// takes shard locks.
func (c *Cache) dropAliases(key string) {
	c.aliasMu.Lock()
	for _, a := range c.aliasesOf[key] {
		delete(c.alias, a)
	}
	delete(c.aliasesOf, key)
	c.aliasMu.Unlock()
}

// Resolve maps a request key through the alias table (one hop).
func (c *Cache) Resolve(key string) string {
	c.aliasMu.RLock()
	defer c.aliasMu.RUnlock()
	if to, ok := c.alias[key]; ok {
		return to
	}
	return key
}

// Get returns the cached page for key, updating recency and hit/miss
// counters.
func (c *Cache) Get(key string) (*Entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.lru.MoveToFront(el)
	se := el.Value.(*shardEntry)
	se.seq = c.stamp()
	s.stats.Hits++
	return se.e, true
}

// Lookup is Get without the miss accounting: recency and the hit counter
// update when the entry is present, but an absent key counts nothing. The
// proxy's fragment path probes several candidate keys per request (full
// request key, then the cookieless template key) and must charge at most
// one miss per page-level lookup.
func (c *Cache) Lookup(key string) (*Entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	se := el.Value.(*shardEntry)
	se.seq = c.stamp()
	s.stats.Hits++
	return se.e, true
}

// NoteServlet records one page- or fragment-level lookup outcome against
// the generating servlet. The proxy calls it outside any shard lock; the
// first observation of a servlet name fires the Instrument hook (after the
// servlet lock is released) so a gauge set appears per servlet lazily.
func (c *Cache) NoteServlet(servlet string, hit bool) {
	if servlet == "" {
		return
	}
	c.servletMu.Lock()
	st, ok := c.servletStats[servlet]
	if !ok {
		st = &Stats{}
		c.servletStats[servlet] = st
	}
	if hit {
		st.Hits++
	} else {
		st.Misses++
	}
	hook := c.onServlet
	c.servletMu.Unlock()
	if !ok && hook != nil {
		hook(servlet)
	}
}

// StatsOfServlet returns the named servlet's lookup counters.
func (c *Cache) StatsOfServlet(servlet string) Stats {
	c.servletMu.Lock()
	defer c.servletMu.Unlock()
	if st, ok := c.servletStats[servlet]; ok {
		return *st
	}
	return Stats{}
}

// ServletStats returns a copy of every servlet's lookup counters.
func (c *Cache) ServletStats() map[string]Stats {
	c.servletMu.Lock()
	defer c.servletMu.Unlock()
	out := make(map[string]Stats, len(c.servletStats))
	for name, st := range c.servletStats {
		out[name] = *st
	}
	return out
}

// OnNewServlet installs the lazily-fired per-servlet hook and replays it
// for servlets already observed. Used by Instrument; last writer wins.
func (c *Cache) OnNewServlet(fn func(name string)) {
	c.servletMu.Lock()
	c.onServlet = fn
	known := make([]string, 0, len(c.servletStats))
	for name := range c.servletStats {
		known = append(known, name)
	}
	c.servletMu.Unlock()
	if fn != nil {
		for _, name := range known {
			fn(name)
		}
	}
}

// Peek returns the entry without touching counters or recency.
func (c *Cache) Peek(key string) (*Entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*shardEntry).e, true
}

// Put stores a page, evicting the least-recently-used entry of the key's
// shard if that shard is full.
func (c *Cache) Put(e *Entry) {
	c.PutSince(e, math.MaxUint64)
}

// EjectEpoch returns the cache's current eject epoch. A fill reads it before
// forwarding a miss to the origin and hands it to PutSince with the response.
func (c *Cache) EjectEpoch() uint64 { return c.ejectEpoch.Load() }

// PutSince is Put for a fill that began at eject epoch since: if an eject
// covering e.Key landed after that epoch, the response may predate the update
// behind the eject — and the invalidator, having ejected the key, has
// forgotten it, so nothing would ever eject it again. Such a fill is poisoned:
// nothing is stored and PutSince returns false (the caller still serves the
// response). Ejects are tracked per key; only a bulk eject, or more than
// ejectJournal keyed ejects on the shard during one fill, poison by shard.
func (c *Cache) PutSince(e *Entry, since uint64) bool {
	if e.StoredAt.IsZero() {
		e.StoredAt = time.Now()
	}
	s := c.shardFor(e.Key)
	seq := c.stamp()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ejectedSince(e.Key, since) {
		return false
	}
	if el, ok := s.entries[e.Key]; ok {
		se := el.Value.(*shardEntry)
		s.dropServletRef(se.e)
		se.e, se.seq = e, seq
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&shardEntry{e: e, seq: seq})
		s.entries[e.Key] = el
		if s.capacity > 0 && s.lru.Len() > s.capacity {
			c.evictOldest(s)
		}
	}
	s.addServletRef(e)
	s.stats.Stores++
	return true
}

func (s *cacheShard) addServletRef(e *Entry) {
	if e.Servlet == "" {
		return
	}
	set, ok := s.byServlet[e.Servlet]
	if !ok {
		set = make(map[string]struct{})
		s.byServlet[e.Servlet] = set
	}
	set[e.Key] = struct{}{}
}

func (s *cacheShard) dropServletRef(e *Entry) {
	if e.Servlet == "" {
		return
	}
	if set, ok := s.byServlet[e.Servlet]; ok {
		delete(set, e.Key)
		if len(set) == 0 {
			delete(s.byServlet, e.Servlet)
		}
	}
}

// evictOldest removes the shard's LRU victim. Callers hold s.mu.
func (c *Cache) evictOldest(s *cacheShard) {
	el := s.lru.Back()
	if el == nil {
		return
	}
	se := el.Value.(*shardEntry)
	s.lru.Remove(el)
	delete(s.entries, se.e.Key)
	s.dropServletRef(se.e)
	c.dropAliases(se.e.Key)
	s.stats.Evictions++
}

// Invalidate removes the page for key, returning whether it was present.
// This is the handler for `Cache-Control: eject`.
func (c *Cache) Invalidate(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.invalidateLocked(s, key)
}

// invalidateLocked removes key from s. Callers hold s.mu. Ejects naming
// absent keys (already evicted, or never cached) count as EjectMisses so
// the invalidator's precision is observable.
func (c *Cache) invalidateLocked(s *cacheShard, key string) bool {
	c.noteEject(s, key)
	el, ok := s.entries[key]
	if !ok {
		s.stats.EjectMisses++
		return false
	}
	se := el.Value.(*shardEntry)
	s.lru.Remove(el)
	delete(s.entries, key)
	s.dropServletRef(se.e)
	c.dropAliases(key)
	s.stats.Invalidations++
	return true
}

// InvalidateMany removes every present page among keys and returns how many
// were removed — the batched `Cache-Control: eject` handler. Keys are
// grouped by shard so each shard's lock is taken once per batch.
func (c *Cache) InvalidateMany(keys []string) int {
	if len(keys) == 0 {
		return 0
	}
	byShard := make(map[*cacheShard][]string, len(c.shards))
	for _, k := range keys {
		s := c.shardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	n := 0
	for s, ks := range byShard {
		s.mu.Lock()
		for _, k := range ks {
			if c.invalidateLocked(s, k) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// InvalidateServlet removes every page generated by the named servlet and
// returns how many were removed (used by coarse request-based policies).
func (c *Cache) InvalidateServlet(servlet string) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		s.ejectFloor = c.ejectEpoch.Add(1)
		set, ok := s.byServlet[servlet]
		if !ok {
			s.mu.Unlock()
			continue
		}
		for key := range set {
			if el, ok := s.entries[key]; ok {
				s.lru.Remove(el)
				delete(s.entries, key)
				c.dropAliases(key)
				s.stats.Invalidations++
				n++
			}
		}
		delete(s.byServlet, servlet)
		s.mu.Unlock()
	}
	return n
}

// InvalidatePrefix removes every page whose key starts with prefix and
// returns the count; used for coarse URL-pattern policies.
func (c *Cache) InvalidatePrefix(prefix string) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		s.ejectFloor = c.ejectEpoch.Add(1)
		for key, el := range s.entries {
			if strings.HasPrefix(key, prefix) {
				se := el.Value.(*shardEntry)
				s.lru.Remove(el)
				delete(s.entries, key)
				s.dropServletRef(se.e)
				c.dropAliases(key)
				s.stats.Invalidations++
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Clear removes everything.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.ejectFloor = c.ejectEpoch.Add(1)
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.byServlet = make(map[string]map[string]struct{})
		s.mu.Unlock()
	}
	c.aliasMu.Lock()
	c.alias = make(map[string]string)
	c.aliasesOf = make(map[string][]string)
	c.aliasMu.Unlock()
}

// Len returns the number of cached pages.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Keys returns all cached keys, most recent first (global recency order —
// the single shard's LRU list directly, or reconstructed from per-entry
// access stamps across shards).
func (c *Cache) Keys() []string {
	if len(c.shards) == 1 {
		s := c.shards[0]
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]string, 0, s.lru.Len())
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*shardEntry).e.Key)
		}
		return out
	}
	type stamped struct {
		key string
		seq uint64
	}
	var all []stamped
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			se := el.Value.(*shardEntry)
			all = append(all, stamped{key: se.e.Key, seq: se.seq})
		}
		s.mu.Unlock()
	}
	// Insertion sort by seq descending; n is small in practice and the
	// per-shard lists arrive mostly ordered.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].seq > all[j-1].seq; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	out := make([]string, len(all))
	for i, st := range all {
		out[i] = st.key
	}
	return out
}

// Stats returns the counters aggregated across shards.
func (c *Cache) Stats() Stats {
	var agg Stats
	for _, s := range c.shards {
		s.mu.Lock()
		agg.Hits += s.stats.Hits
		agg.Misses += s.stats.Misses
		agg.Stores += s.stats.Stores
		agg.Invalidations += s.stats.Invalidations
		agg.EjectMisses += s.stats.EjectMisses
		agg.Evictions += s.stats.Evictions
		s.mu.Unlock()
	}
	return agg
}

// StatsOfShard returns shard i's counters (i in [0, ShardCount())), for
// spotting hash skew across lock domains.
func (c *Cache) StatsOfShard(i int) Stats {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes every counter — including the per-shard eviction and
// eject counters and the per-servlet breakdown — atomically with respect to
// each shard (under its lock). Servlet entries are zeroed, not removed, so
// gauges registered for them keep reporting.
func (c *Cache) ResetStats() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
	c.servletMu.Lock()
	for _, st := range c.servletStats {
		*st = Stats{}
	}
	c.servletMu.Unlock()
}
