package invalidator

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/sniffer"
)

// parallelSchema has enough tables to generate many independent (type ×
// delta table) evaluation units per cycle.
const parallelSchema = `
	CREATE TABLE T0 (a INT, b INT);
	CREATE TABLE T1 (a INT, b INT);
	CREATE TABLE T2 (a INT, b INT);
	CREATE TABLE T3 (a INT, b INT);
	INSERT INTO T0 VALUES (1, 10), (2, 20), (3, 30);
	INSERT INTO T1 VALUES (1, 15), (2, 25), (4, 45);
	INSERT INTO T2 VALUES (2, 12), (3, 33), (5, 55);
	INSERT INTO T3 VALUES (1, 11), (4, 44), (5, 51);
`

// parallelPages registers a workload mixing join types (which poll) with
// single-table types (local decisions) across every table pair.
func parallelPages(m *sniffer.QIURLMap) {
	logID := int64(0)
	page := func(key string, queries ...string) {
		var qis []sniffer.QueryInstance
		for _, q := range queries {
			logID++
			qis = append(qis, sniffer.QueryInstance{SQL: q, LogID: logID})
		}
		m.Record(key, "servlet", 1, qis)
	}
	tables := []string{"T0", "T1", "T2", "T3"}
	for i, ti := range tables {
		for j, tj := range tables {
			if i >= j {
				continue
			}
			page(fmt.Sprintf("join-%s-%s", ti, tj), fmt.Sprintf(
				"SELECT %[1]s.a, %[2]s.b FROM %[1]s, %[2]s WHERE %[1]s.a = %[2]s.a AND %[1]s.b > 5",
				ti, tj))
		}
		page("local-"+ti, fmt.Sprintf("SELECT a, b FROM %s WHERE b > 25", ti))
		page("local-lo-"+ti, fmt.Sprintf("SELECT a FROM %s WHERE b < 15", ti))
	}
}

// randomUpdateScript derives a deterministic DML sequence from a seed.
func randomUpdateScript(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"T0", "T1", "T2", "T3"}
	script := make([]string, 0, n)
	for len(script) < n {
		tbl := tables[rng.Intn(len(tables))]
		a, b := rng.Intn(8), rng.Intn(60)
		switch rng.Intn(3) {
		case 0:
			script = append(script, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", tbl, a, b))
		case 1:
			script = append(script, fmt.Sprintf("DELETE FROM %s WHERE a = %d", tbl, a))
		default:
			script = append(script, fmt.Sprintf("UPDATE %s SET b = %d WHERE a = %d", tbl, b, a))
		}
	}
	return script
}

// cycleOutcome is the observable result of one invalidation cycle.
type cycleOutcome struct {
	Ejected        []string
	Invalidated    int
	Conservative   int
	LocalDecisions int
	Polls          int
}

// runWorkload builds a fresh site, applies the scripted updates, runs one
// cycle at the given worker count, and returns what was invalidated.
func runWorkload(t *testing.T, workers, conns int, script []string) cycleOutcome {
	t.Helper()
	out, _ := runWorkloadWith(t, workers, conns, script, false)
	return out
}

// runWorkloadWith is runWorkload plus the full cycle report; textOnly strips
// the pollers' StmtPoller extension so every poll travels as rendered SQL.
func runWorkloadWith(t *testing.T, workers, conns int, script []string, textOnly bool) (cycleOutcome, Report) {
	t.Helper()
	w := newWorkload(t, workers, conns, textOnly)
	return w.cycle(t, script)
}

// workload is an invalidator over a fresh parallelSchema database whose
// first cycle has swallowed the schema-setup records.
type workload struct {
	db      *engine.Database
	m       *sniffer.QIURLMap
	inv     *Invalidator
	ejected []string
}

func newWorkload(t *testing.T, workers, conns int, textOnly bool) *workload {
	t.Helper()
	db := engine.NewDatabase()
	if _, err := db.ExecScript(parallelSchema); err != nil {
		t.Fatal(err)
	}
	pollers := make([]Poller, conns)
	for i := range pollers {
		c, err := driver.DirectDriver{DB: db}.Connect("")
		if err != nil {
			t.Fatal(err)
		}
		pollers[i] = c
	}
	var poller Poller = pollers[0]
	if len(pollers) > 1 {
		poller = NewConcurrentPoller(pollers...)
	}
	if textOnly {
		poller = textOnlyPoller{p: poller}
	}
	w := &workload{db: db, m: sniffer.NewQIURLMap()}
	w.inv = New(Config{
		Map:    w.m,
		Puller: EngineLogPuller{Log: db.Log()},
		Poller: poller,
		Ejector: FuncEjector(func(keys []string) error {
			w.ejected = append(w.ejected, keys...)
			return nil
		}),
		Workers: workers,
	})
	if _, err := w.inv.Cycle(); err != nil { // swallow schema-setup records
		t.Fatal(err)
	}
	return w
}

// cycle registers the parallel pages, applies script, and runs one cycle.
func (w *workload) cycle(t *testing.T, script []string) (cycleOutcome, Report) {
	t.Helper()
	parallelPages(w.m)
	for _, sql := range script {
		if _, err := w.db.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	rep, err := w.inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(w.ejected)
	return cycleOutcome{
		Ejected:        w.ejected,
		Invalidated:    rep.Invalidated,
		Conservative:   rep.Conservative,
		LocalDecisions: rep.LocalDecisions,
		Polls:          rep.Polls,
	}, rep
}

// evaluated counts the (query type × delta table) units w's invalidator has
// evaluated.
func (w *workload) evaluated() int64 {
	var n int64
	for _, qt := range w.inv.Registry().Types() {
		n += w.inv.Registry().StatsOf(qt).UpdateBatches
	}
	return n
}

// TestParallelCycleEquivalence is the correctness property of the parallel
// pipeline: for random update workloads, a cycle run on 8 workers over a
// concurrent poller invalidates exactly the page set the sequential cycle
// does, with identical decision counters.
func TestParallelCycleEquivalence(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		script := randomUpdateScript(seed, 1+int(size%24))
		seq := runWorkload(t, 1, 1, script)
		par := runWorkload(t, 8, 4, script)
		if !reflect.DeepEqual(seq, par) {
			t.Logf("seed=%d script=%q\nsequential: %+v\nparallel:   %+v", seed, script, seq, par)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(1)), // fixed seed: deterministic corpus
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParallelWorkerCountsAgree pins one concrete workload across several
// worker counts, including counts above the unit count.
func TestParallelWorkerCountsAgree(t *testing.T) {
	script := randomUpdateScript(42, 16)
	want := runWorkload(t, 1, 1, script)
	if want.Invalidated == 0 {
		t.Fatalf("workload should invalidate something: %+v", want)
	}
	for _, workers := range []int{2, 4, 8, 32} {
		got := runWorkload(t, workers, 3, script)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged:\nsequential: %+v\nparallel:   %+v", workers, want, got)
		}
	}
}

// TestCycleHelpFirstJoin parks every helper a cycle spawns until the cycle
// has returned: the cycle goroutine evaluates every unit itself, exactly
// once, with the sequential outcome, and the helpers released afterwards
// find nothing left to claim.
func TestCycleHelpFirstJoin(t *testing.T) {
	script := randomUpdateScript(42, 16)
	seq := newWorkload(t, 1, 1, false)
	want, _ := seq.cycle(t, script)

	w := newWorkload(t, 8, 3, false)
	var parked []func()
	w.inv.spawn = func(f func()) { parked = append(parked, f) }
	got, _ := w.cycle(t, script)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parked helpers diverged:\nsequential: %+v\nhelp-first: %+v", want, got)
	}
	units := seq.evaluated()
	if n := w.evaluated(); n != units {
		t.Fatalf("%d unit evaluations, want each of the %d units once", n, units)
	}
	if want := min(8, int(units)) - 1; len(parked) != want {
		t.Fatalf("cycle spawned %d helpers, want %d", len(parked), want)
	}
	for _, f := range parked {
		f()
	}
	if n := w.evaluated(); n != units {
		t.Fatalf("released helpers evaluated %d more units", n-units)
	}
}

// countingPoller counts Query calls and tracks peak concurrency. A call
// blocks until gate closes when gate is set.
type countingPoller struct {
	mu      sync.Mutex
	calls   int
	active  int
	peak    int
	delay   time.Duration
	gate    chan struct{}
	results map[string]*engine.Result
}

func (p *countingPoller) Query(sql string) (*engine.Result, error) {
	p.mu.Lock()
	p.calls++
	p.active++
	if p.active > p.peak {
		p.peak = p.active
	}
	res := p.results[sql]
	p.mu.Unlock()
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.gate != nil {
		<-p.gate
	}
	p.mu.Lock()
	p.active--
	p.mu.Unlock()
	if res == nil {
		res = &engine.Result{}
	}
	return res, nil
}

// TestConcurrentPollerDedup: identical in-flight query texts collapse to
// one backend call; distinct texts fan out round-robin.
func TestConcurrentPollerDedup(t *testing.T) {
	// The backend holds the one call it gets until the other 15 callers
	// are waiting on it inside Query, so the overlap does not depend on
	// scheduling.
	backend := &countingPoller{gate: make(chan struct{})}
	cp := NewConcurrentPoller(backend, backend, backend)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cp.Query("SELECT 1 FROM T0"); err != nil {
				t.Error(err)
			}
		}()
	}
	for cp.Stats().Dedups < 15 {
		time.Sleep(100 * time.Microsecond)
	}
	close(backend.gate)
	wg.Wait()
	backend.mu.Lock()
	calls := backend.calls
	backend.mu.Unlock()
	if calls != 1 {
		t.Fatalf("16 concurrent identical queries made %d backend calls, want 1", calls)
	}
	// After completion the entry is forgotten: a later identical query
	// polls again (results must reflect the current database state).
	if _, err := cp.Query("SELECT 1 FROM T0"); err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	calls = backend.calls
	backend.mu.Unlock()
	if calls != 2 {
		t.Fatalf("post-completion query made %d total backend calls, want 2", calls)
	}
}

// TestConcurrentPollerParallelism: distinct queries overlap in time.
func TestConcurrentPollerParallelism(t *testing.T) {
	backend := &countingPoller{delay: 10 * time.Millisecond}
	cp := NewConcurrentPoller(backend, backend, backend, backend)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp.Query(fmt.Sprintf("SELECT %d FROM T0", i))
		}(i)
	}
	wg.Wait()
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if backend.peak < 2 {
		t.Fatalf("distinct queries never overlapped (peak=%d)", backend.peak)
	}
}

// TestSharedPollBudgetBounded: with many workers and a tiny budget, the
// cycle still terminates with every undecided instance conservative, and
// cumulative poll time respects the bucket (within one in-flight poll per
// worker of slack).
func TestSharedPollBudgetBounded(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript(parallelSchema); err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	slow := FuncPoller(func(sql string) (*engine.Result, error) {
		polls.Add(1)
		time.Sleep(2 * time.Millisecond)
		return db.ExecSQL(sql)
	})
	m := sniffer.NewQIURLMap()
	inv := New(Config{
		Map:        m,
		Puller:     EngineLogPuller{Log: db.Log()},
		Poller:     slow,
		Ejector:    FuncEjector(func([]string) error { return nil }),
		Workers:    8,
		PollBudget: time.Millisecond,
	})
	if _, err := inv.Cycle(); err != nil {
		t.Fatal(err)
	}
	parallelPages(m)
	for _, sql := range randomUpdateScript(7, 20) {
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	// The bucket admits at most one poll per worker before going negative.
	if got := polls.Load(); got > 8 {
		t.Fatalf("budget of 1ms admitted %d polls across 8 workers", got)
	}
	if rep.Conservative == 0 {
		t.Fatal("exhausted budget should force conservative invalidations")
	}
}

// FuncPoller adapts a function to the Poller interface (test helper).
type FuncPoller func(sql string) (*engine.Result, error)

func (f FuncPoller) Query(sql string) (*engine.Result, error) { return f(sql) }
