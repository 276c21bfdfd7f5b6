package invalidator

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appserver"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/sniffer"
	"repro/internal/webcache"
)

func memStr(s string) mem.Value { return mem.Str(s) }

func TestIndexSetManagement(t *testing.T) {
	h := newHarness(t, carSchema)
	pollConn, _ := driver.DirectDriver{DB: h.db}.Connect("")
	idx := h.inv.Indexes()
	if idx.Size("Mileage", "model") != -1 {
		t.Fatal("unmaintained size should be -1")
	}
	if err := idx.Maintain(pollConn, "Mileage", "model"); err != nil {
		t.Fatal(err)
	}
	if got := idx.Maintained(); len(got) != 1 || got[0] != "mileage|model" {
		t.Fatalf("maintained: %v", got)
	}
	if idx.Size("MILEAGE", "MODEL") != 3 {
		t.Fatalf("size: %d", idx.Size("MILEAGE", "MODEL"))
	}
	exists, ok := idx.Contains("mileage", "model", memStr("Corolla"))
	if !ok || !exists {
		t.Fatalf("contains: %v %v", exists, ok)
	}
	exists, ok = idx.Contains("mileage", "model", memStr("Nope"))
	if !ok || exists {
		t.Fatalf("missing value: %v %v", exists, ok)
	}
	idx.Drop("Mileage", "model")
	if idx.Size("Mileage", "model") != -1 || len(idx.Maintained()) != 0 {
		t.Fatal("drop failed")
	}
	if err := idx.Maintain(nil, "x", "y"); err == nil {
		t.Fatal("nil poller must fail")
	}
	if err := idx.Maintain(pollConn, "nope", "y"); err == nil {
		t.Fatal("bad table must fail")
	}
}

func TestRegistryTypeLookupAndPolicyRules(t *testing.T) {
	h := newHarness(t, carSchema)
	h.page("p", "SELECT * FROM Car WHERE price < 100")
	h.cycle(t)
	qt, ok := h.inv.Registry().Type("SELECT * FROM car WHERE price < $1")
	if !ok || qt == nil {
		t.Fatal("type lookup failed")
	}
	if _, ok := h.inv.Registry().Type("nope"); ok {
		t.Fatal("phantom type")
	}
	p := h.inv.Policies()
	p.AddRule(Rule{Table: "car", Action: ActionNeverCache})
	rules := p.Rules()
	if len(rules) != 1 || rules[0].Table != "car" {
		t.Fatalf("rules: %+v", rules)
	}
}

func TestEjectorImplementations(t *testing.T) {
	cache := webcache.NewCache(0)
	cache.Put(&webcache.Entry{Key: "a"})
	cache.Put(&webcache.Entry{Key: "b"})
	if err := (CacheEjector{Cache: cache}).Eject([]string{"a", "missing"}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("len: %d", cache.Len())
	}
}

func TestInvalidatorStartLoop(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript(carSchema); err != nil {
		t.Fatal(err)
	}
	m := sniffer.NewQIURLMap()
	var ejected atomic.Int64
	inv := New(Config{
		Map:    m,
		Puller: EngineLogPuller{Log: db.Log()},
		Ejector: FuncEjector(func(keys []string) error {
			ejected.Add(int64(len(keys)))
			return nil
		}),
	})
	if _, err := inv.Cycle(); err != nil {
		t.Fatal(err)
	}
	m.Record("cheap", "s", 1, []sniffer.QueryInstance{{SQL: "SELECT * FROM Car WHERE price < 15500"}})
	if _, err := inv.Cycle(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go inv.Run(5*time.Millisecond, nil, stop, func() error {
		_, err := inv.Cycle()
		return err
	})
	db.ExecSQL("INSERT INTO Car VALUES ('Kia', 'Rio', 12000)")
	deadline := time.After(2 * time.Second)
	for ejected.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop did not invalidate")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
}

func TestWireLogPullerViaHarness(t *testing.T) {
	// Covered end-to-end in the root package; here check the adapter shape
	// via the engine puller equivalence on empty input.
	db := engine.NewDatabase()
	recs, trunc, next, err := EngineLogPuller{Log: db.Log()}.PullSince(1)
	if err != nil || trunc || len(recs) != 0 || next != 1 {
		t.Fatalf("empty pull: %v %v %d %d", err, trunc, len(recs), next)
	}
}

func TestTriggerBasedRegistryAccessor(t *testing.T) {
	tb := NewTriggerBased(sniffer.NewQIURLMap(), FuncEjector(func([]string) error { return nil }))
	if tb.Registry() == nil {
		t.Fatal("nil registry")
	}
}

func TestOwnerOfRefEdges(t *testing.T) {
	h := newHarness(t, carSchema)
	// Qualified ref naming a table that is not in the query → unknown →
	// conservative for any tuple.
	h.page("odd", "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model AND Ghost.x = 1")
	h.cycle(t)
	// The query itself would fail at runtime, but the invalidator must not
	// crash: the page was recorded (instance observation succeeds at the
	// parse level) and any Car update invalidates conservatively.
	h.exec(t, "INSERT INTO Car VALUES ('A', 'B', 1)")
	rep := h.cycle(t)
	if len(h.ejected) != 1 {
		t.Fatalf("ejected: %v (rep %+v)", h.ejected, rep)
	}
}

// TestCrossTypePollSharing: two different query types whose delta residues
// reduce to the same polling query share one DBMS round trip per cycle
// (§4.2.2: shared subqueries reduce the number and cost of polling
// queries; realized as poll-text deduplication within a cycle).
func TestCrossTypePollSharing(t *testing.T) {
	h := newHarness(t, carSchema)
	// Different select lists → different types; identical join residue.
	h.page("pa", "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price > 20000")
	h.page("pb", "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model AND Car.price > 20000")
	h.cycle(t)
	if len(h.inv.Registry().Types()) != 2 {
		t.Fatalf("types: %d", len(h.inv.Registry().Types()))
	}
	h.exec(t, "INSERT INTO Car VALUES ('Dodge', 'Viper', 90000)")
	rep := h.cycle(t)
	if rep.Polls != 1 {
		t.Fatalf("polls: %d, want 1 shared", rep.Polls)
	}
}

// TestAutoIndexSelfTuning: with AutoIndex on, repeated existence polls for
// the same (table, column) cross the advice threshold and the invalidator
// starts maintaining the index itself; subsequent cycles stop polling.
func TestAutoIndexSelfTuning(t *testing.T) {
	h := newHarness(t, carSchema)
	h.inv.cfg.AdviceThreshold = 2
	h.inv.cfg.AutoIndex = true
	h.page("url1", paperQuery1)
	h.cycle(t)

	polls := 0
	for i := 0; i < 5; i++ {
		h.exec(t, "INSERT INTO Car VALUES ('Dodge', 'Viper', 90000)")
		rep := h.cycle(t)
		polls += rep.Polls
		if i >= 3 && rep.Polls != 0 {
			t.Fatalf("cycle %d still polled after auto-index: %+v", i, rep)
		}
		if i >= 3 && rep.IndexHits == 0 {
			t.Fatalf("cycle %d: no index hit: %+v", i, rep)
		}
	}
	if h.inv.Indexes().Size("mileage", "model") < 0 {
		t.Fatal("index not auto-maintained")
	}
	if polls == 0 {
		t.Fatal("expected some polls before the index materialized")
	}
}

// TestLogLossFlushesCache: pages cached while the request log overflowed
// can never be mapped, so a truncation observation must flush the caches.
func TestLogLossFlushesCache(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript(carSchema); err != nil {
		t.Fatal(err)
	}
	rlog := appserver.NewRequestLog(2) // tiny: overflows immediately
	qlog := driver.NewQueryLog(0)
	m := sniffer.NewQIURLMap()
	mp := sniffer.NewMapper(rlog, qlog, m)
	cache := webcache.NewCache(0)
	cache.Put(&webcache.Entry{Key: "orphan"}) // cached during the gap
	inv := New(Config{
		Map:     m,
		Mapper:  mp,
		Puller:  EngineLogPuller{Log: db.Log()},
		Ejector: CacheEjector{Cache: cache},
	})
	if _, err := inv.Cycle(); err != nil { // consumes nothing; no truncation yet
		t.Fatal(err)
	}
	// Five entries through a capacity-2 log: the mapper will observe loss.
	now := time.Now()
	for i := 0; i < 5; i++ {
		rlog.Append(appserver.RequestLogEntry{
			Servlet: "s", CacheKey: "k", Cached: true, Receive: now, Deliver: now,
		})
	}
	rep, err := inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatalf("report: %+v", rep)
	}
	if cache.Len() != 0 {
		t.Fatal("cache not flushed after log loss")
	}
}
