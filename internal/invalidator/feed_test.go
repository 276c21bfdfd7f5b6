package invalidator

import (
	"encoding/json"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/sniffer"
	"repro/internal/wire"
)

// safeEjector records ejected keys under a lock: event-driven cycles run on
// their own goroutine.
type safeEjector struct {
	mu   sync.Mutex
	keys []string
}

func (e *safeEjector) Eject(keys []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.keys = append(e.keys, keys...)
	return nil
}

func (e *safeEjector) sorted() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := append([]string(nil), e.keys...)
	sort.Strings(out)
	return out
}

func (e *safeEjector) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.keys)
}

// runFeedWorkload runs one fixed workload either pull-style (writes, then a
// single manual Cycle) or event-driven (Run with an effectively
// disabled timer, so only log events trigger cycles) and returns the sorted
// set of ejected pages.
func runFeedWorkload(t *testing.T, workers int, eventDriven bool) []string {
	t.Helper()
	db := engine.NewDatabase()
	if _, err := db.ExecScript(carSchema); err != nil {
		t.Fatal(err)
	}
	m := sniffer.NewQIURLMap()
	ej := &safeEjector{}
	pollConn, err := driver.DirectDriver{DB: db}.Connect("")
	if err != nil {
		t.Fatal(err)
	}
	inv := New(Config{
		Map:     m,
		Puller:  EngineLogPuller{Log: db.Log()},
		Poller:  pollConn,
		Ejector: ej,
		Workers: workers,
	})
	if _, err := inv.Cycle(); err != nil { // swallow schema records
		t.Fatal(err)
	}
	record := func(key, sql string) {
		m.Record(key, "servlet", 1, []sniffer.QueryInstance{{SQL: sql, LogID: 1}})
	}
	record("page:corolla", "SELECT maker, model, price FROM Car WHERE model = 'Corolla'")
	record("page:civic", "SELECT maker, model, price FROM Car WHERE model = 'Civic'")
	record("page:expensive", paperQuery1)
	record("page:epa", "SELECT model, EPA FROM Mileage WHERE EPA > 30")

	writes := []string{
		"INSERT INTO Car VALUES ('Toyota', 'Avalon', 25000)",
		"INSERT INTO Mileage VALUES ('Prius', 50)",
		"DELETE FROM Car WHERE model = 'Civic'",
	}
	if !eventDriven {
		for _, w := range writes {
			if _, err := db.ExecSQL(w); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := inv.Cycle(); err != nil {
			t.Fatal(err)
		}
		return ej.sorted()
	}

	stop := make(chan struct{})
	defer close(stop)
	go inv.Run(time.Hour, EngineLogPuller{Log: db.Log()}, stop, func() error {
		_, err := inv.Cycle()
		return err
	})
	for _, w := range writes {
		if _, err := db.ExecSQL(w); err != nil {
			t.Fatal(err)
		}
	}
	// Converge: the eject set must become non-empty and then hold still.
	deadline := time.Now().Add(10 * time.Second)
	stableSince := time.Now()
	last := ej.count()
	for time.Now().Before(deadline) {
		n := ej.count()
		if n != last {
			last, stableSince = n, time.Now()
		}
		if n > 0 && time.Since(stableSince) > 200*time.Millisecond {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ej.sorted()
}

// TestPushPullEquivalence is the tentpole's behavior-preservation property:
// at every worker count, the event-driven trigger must invalidate exactly the
// pages a single pull cycle would — only the staleness window changes.
func TestPushPullEquivalence(t *testing.T) {
	want := []string{"page:civic", "page:epa", "page:expensive"}
	for _, workers := range []int{1, 4, 8} {
		pull := runFeedWorkload(t, workers, false)
		push := runFeedWorkload(t, workers, true)
		if !equalStrings(pull, want) {
			t.Fatalf("workers=%d pull ejected %v, want %v", workers, pull, want)
		}
		if !equalStrings(push, pull) {
			t.Fatalf("workers=%d push ejected %v, pull ejected %v", workers, push, pull)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireTruncationFlushExactlyOnce is the satellite regression: a server
// whose log trimmed past the invalidator's cursor — and whose Truncated flag
// was lost (modeling a reconnect mid-pull) — must still trigger the
// conservative flush, and exactly one cycle of it: the FirstLSN context makes
// truncation a pure function of the cursor.
func TestWireTruncationFlushExactlyOnce(t *testing.T) {
	// Scripted server: the log retains LSNs 50..51 (FirstLSN 50), and always
	// reports Truncated=false.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				dec, enc := json.NewDecoder(c), json.NewEncoder(c)
				for {
					var req wire.Request
					if dec.Decode(&req) != nil {
						return
					}
					resp := wire.Response{NextLSN: 52, FirstLSN: 50}
					for lsn := req.LSN; lsn <= 51; lsn++ {
						if lsn < 50 {
							continue
						}
						resp.Records = append(resp.Records, wire.LogRecord{LSN: lsn, Table: "t", Op: "INSERT"})
					}
					enc.Encode(resp)
				}
			}(c)
		}
	}()

	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := sniffer.NewQIURLMap()
	ej := &safeEjector{}
	inv := New(Config{Map: m, Puller: WireLogPuller{Client: cl}, Ejector: ej})
	m.Record("p1", "servlet", 1, []sniffer.QueryInstance{{SQL: "SELECT a FROM t WHERE a = 1", LogID: 1}})
	m.Record("p2", "servlet", 1, []sniffer.QueryInstance{{SQL: "SELECT a FROM t WHERE a = 2", LogID: 2}})

	rep, err := inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("lost Truncated flag not recomputed from FirstLSN")
	}
	if got := ej.sorted(); !equalStrings(got, []string{"p1", "p2"}) {
		t.Fatalf("conservative flush ejected %v", got)
	}

	// Re-register and cycle again from the advanced cursor: no second flush.
	m.Record("p1", "servlet", 1, []sniffer.QueryInstance{{SQL: "SELECT a FROM t WHERE a = 1", LogID: 1}})
	m.Record("p2", "servlet", 1, []sniffer.QueryInstance{{SQL: "SELECT a FROM t WHERE a = 2", LogID: 2}})
	rep, err = inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Fatal("truncation reported twice for one trim")
	}
	if n := ej.count(); n != 2 {
		t.Fatalf("flush repeated: %d keys ejected in total", n)
	}
}
