package invalidator

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sniffer"
)

// TestFlakyPollerNeverStale: a poller that fails intermittently must push
// the invalidator toward conservative invalidation, never staleness.
func TestFlakyPollerNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`
		CREATE TABLE R (a INT, b INT);
		CREATE TABLE S (b INT, d INT);
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		db.ExecSQL(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", rng.Intn(10), rng.Intn(5)))
		db.ExecSQL(fmt.Sprintf("INSERT INTO S VALUES (%d, %d)", rng.Intn(5), rng.Intn(10)))
	}
	var rngMu sync.Mutex // polls run on the cycle's worker pool
	flaky := pollerFunc(func(sql string) (*engine.Result, error) {
		rngMu.Lock()
		drop := rng.Intn(2) == 0
		rngMu.Unlock()
		if drop {
			return nil, errors.New("connection reset")
		}
		return db.ExecSQL(sql)
	})
	m := sniffer.NewQIURLMap()
	ejected := map[string]bool{}
	inv := New(Config{
		Map:    m,
		Puller: EngineLogPuller{Log: db.Log()},
		Poller: flaky,
		Ejector: FuncEjector(func(keys []string) error {
			for _, k := range keys {
				ejected[k] = true
			}
			return nil
		}),
	})
	inv.Cycle()

	pages := map[string]string{}
	for round := 0; round < 10; round++ {
		before := map[string]string{}
		key := fmt.Sprintf("p%d", round)
		sql := fmt.Sprintf("SELECT R.a FROM R, S WHERE R.b = S.b AND R.a > %d", rng.Intn(10))
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
		pages[key] = sql
		m.Record(key, "s", int64(round), []sniffer.QueryInstance{{SQL: sql}})
		for k, q := range pages {
			res, _ := db.ExecSQL(q)
			before[k] = resultFingerprint(res)
		}
		inv.Cycle()

		db.ExecSQL(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", rng.Intn(10), rng.Intn(5)))
		db.ExecSQL(fmt.Sprintf("DELETE FROM S WHERE d = %d", rng.Intn(10)))
		ejected = map[string]bool{}
		inv.Cycle()

		for k, q := range pages {
			res, _ := db.ExecSQL(q)
			if resultFingerprint(res) != before[k] && !ejected[k] {
				t.Fatalf("round %d: stale page %s (%s)", round, k, q)
			}
		}
		for k := range ejected {
			delete(pages, k)
		}
	}
}

// TestConcurrentRecordingDuringCycles: the sniffer keeps recording pages
// while the invalidator cycles — exercises the QIURLMap/Registry locking.
func TestConcurrentRecordingDuringCycles(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript("CREATE TABLE R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	m := sniffer.NewQIURLMap()
	inv := New(Config{
		Map:     m,
		Puller:  EngineLogPuller{Log: db.Log()},
		Poller:  pollerFunc(func(sql string) (*engine.Result, error) { return db.ExecSQL(sql) }),
		Ejector: FuncEjector(func([]string) error { return nil }),
	})
	inv.Cycle()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			m.Record(fmt.Sprintf("pg%d", i%50), "s", int64(i), []sniffer.QueryInstance{
				{SQL: fmt.Sprintf("SELECT a FROM R WHERE a < %d", i%20)},
			})
		}
	}()
	for c := 0; c < 200; c++ {
		db.ExecSQL(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", c%20, c%5))
		if _, err := inv.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestManyTypesScale registers many distinct query types and instances and
// checks a cycle stays correct and bounded.
func TestManyTypesScale(t *testing.T) {
	db := engine.NewDatabase()
	if _, err := db.ExecScript(`
		CREATE TABLE R (a INT, b INT);
		CREATE TABLE S (b INT, d INT);
		INSERT INTO S VALUES (0, 1), (1, 2), (2, 3), (3, 4), (4, 5);
	`); err != nil {
		t.Fatal(err)
	}
	m := sniffer.NewQIURLMap()
	ejected := 0
	inv := New(Config{
		Map:    m,
		Puller: EngineLogPuller{Log: db.Log()},
		Poller: pollerFunc(func(sql string) (*engine.Result, error) { return db.ExecSQL(sql) }),
		Ejector: FuncEjector(func(keys []string) error {
			ejected += len(keys)
			return nil
		}),
	})
	inv.Cycle()

	// 20 type shapes × 50 instances each.
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	n := 0
	// 6 comparison operators × {single-table, join} = 12 distinct templates
	// (the literals canonicalize into placeholders, so instances of one
	// shape collapse into one query type).
	for shape := 0; shape < 20; shape++ {
		op := ops[shape%len(ops)]
		joined := shape >= 10
		for inst := 0; inst < 50; inst++ {
			n++
			var sql string
			if joined {
				sql = fmt.Sprintf("SELECT R.a FROM R, S WHERE R.b = S.b AND R.a %s %d AND S.d > %d",
					op, inst%25, shape%4)
			} else {
				sql = fmt.Sprintf("SELECT a FROM R WHERE a %s %d AND b = %d", op, inst%25, shape%5)
			}
			m.Record(fmt.Sprintf("pg-%d-%d", shape, inst), "s", int64(n), []sniffer.QueryInstance{{SQL: sql}})
		}
	}
	rep, err := inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesIngested != 1000 {
		t.Fatalf("ingested %d", rep.PagesIngested)
	}
	types := inv.Registry().Types()
	if len(types) != 12 {
		t.Fatalf("types: %d, want 12", len(types))
	}

	// One update touching R: group polling must keep the poll count at the
	// type level, not the instance level.
	db.ExecSQL("INSERT INTO R VALUES (10, 2)")
	rep, err = inv.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polls > len(types) {
		t.Fatalf("polls %d exceed type count %d — group processing broken", rep.Polls, len(types))
	}
	if ejected == 0 {
		t.Fatal("nothing invalidated")
	}
}
