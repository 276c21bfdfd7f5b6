package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

func TestAutoIndexCreatesFromTemplates(t *testing.T) {
	db := NewDatabase()
	db.SetAutoIndex(true)
	if _, err := db.ExecScript(`
		CREATE TABLE item (id INT PRIMARY KEY, cat TEXT, price FLOAT);
		INSERT INTO item VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30);
	`); err != nil {
		t.Fatal(err)
	}

	// Equality template → hash index on cat.
	if _, err := db.Prepare("SELECT id FROM item WHERE cat = $1"); err != nil {
		t.Fatal(err)
	}
	if !db.Table("item").HasIndex("cat") {
		t.Fatal("equality template did not create a hash index on cat")
	}

	// Range template → ordered index on price.
	if _, err := db.Prepare("SELECT id FROM item WHERE price < $1"); err != nil {
		t.Fatal(err)
	}
	if !db.Table("item").HasOrderedIndex("price") {
		t.Fatal("range template did not create an ordered index on price")
	}

	st := db.IndexStats()
	if st.AutoHash != 1 || st.AutoOrdered != 1 {
		t.Fatalf("IndexStats = %+v, want AutoHash=1 AutoOrdered=1", st)
	}

	// Re-preparing the same query type must not re-analyze.
	if _, err := db.Prepare("SELECT id FROM item WHERE price < $1"); err != nil {
		t.Fatal(err)
	}
	if got := db.IndexStats().AutoOrdered; got != 1 {
		t.Fatalf("AutoOrdered = %d after re-prepare, want 1", got)
	}
}

// TestAutoIndexCoversWriteTemplates: UPDATE and DELETE templates get the
// index their first conjunct asks for, once per template, and then find
// their rows by probing it.
func TestAutoIndexCoversWriteTemplates(t *testing.T) {
	db := NewDatabase()
	db.SetAutoIndex(true)
	if _, err := db.ExecScript(`
		CREATE TABLE item (id INT PRIMARY KEY, cat TEXT, price FLOAT);
		INSERT INTO item VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30), (4, 'c', 40);
	`); err != nil {
		t.Fatal(err)
	}
	for i, cat := range []string{"a", "b"} {
		res, err := db.ExecSQL(fmt.Sprintf("DELETE FROM item WHERE cat = '%s'", cat))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 2-i {
			t.Fatalf("DELETE cat = %s affected %d rows", cat, res.RowsAffected)
		}
	}
	if !db.Table("item").HasIndex("cat") {
		t.Fatal("DELETE template did not create a hash index on cat")
	}
	if _, err := db.ExecSQL("UPDATE item SET cat = 'z' WHERE 35 < price"); err != nil {
		t.Fatal(err)
	}
	if !db.Table("item").HasOrderedIndex("price") {
		t.Fatal("UPDATE template did not create an ordered index on price")
	}
	st := db.IndexStats()
	want := IndexStats{AutoHash: 1, AutoOrdered: 1, HashProbes: 2, RangeProbes: 1, WriteProbes: 3, WriteRowsExamined: 4}
	if st != want {
		t.Fatalf("IndexStats = %+v, want %+v", st, want)
	}
	// A WHERE no index can answer is a write scan over every row.
	if _, err := db.ExecSQL("DELETE FROM item WHERE id % 2 = 7"); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.WriteScans != 1 || st.WriteRowsExamined != 5 {
		t.Fatalf("after a scanning DELETE: %+v", st)
	}
}

func TestAutoIndexOffByDefault(t *testing.T) {
	db := NewDatabase()
	if _, err := db.ExecScript(`
		CREATE TABLE item (id INT, cat TEXT);
		INSERT INTO item VALUES (1, 'a');
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare("SELECT id FROM item WHERE cat = $1"); err != nil {
		t.Fatal(err)
	}
	if db.Table("item").HasIndex("cat") {
		t.Fatal("auto-index ran while disabled")
	}
}

func TestAutoIndexViaExecTemplate(t *testing.T) {
	db := NewDatabase()
	db.SetAutoIndex(true)
	if _, err := db.ExecScript(`
		CREATE TABLE kv (k TEXT, v INT);
		INSERT INTO kv VALUES ('a', 1), ('b', 2);
	`); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparser.Parse("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecTemplate("poll:kv", stmt, []mem.Value{mem.Str("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if !db.Table("kv").HasIndex("k") {
		t.Fatal("ExecTemplate did not trigger auto-indexing")
	}
}

func TestRangeProbeUsed(t *testing.T) {
	db := NewDatabase()
	db.SetAutoIndex(true)
	if _, err := db.ExecScript(`
		CREATE TABLE item (id INT, price FLOAT);
		INSERT INTO item VALUES (1, 10), (2, 20), (3, 30), (4, 40);
	`); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare("SELECT id FROM item WHERE price >= $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec([]mem.Value{mem.Float(25)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v, want 2", res.Rows)
	}
	if got := db.IndexStats().RangeProbes; got == 0 {
		t.Fatal("range predicate did not take the ordered-index probe")
	}
}

// TestIndexScanEquivalence runs identical randomized workloads against an
// auto-indexed database and a plain one, checking every query answer matches.
// Run under -race via `make race`, this also pins the probe paths' locking.
func TestIndexScanEquivalence(t *testing.T) {
	setup := func(auto bool) *Database {
		db := NewDatabase()
		db.SetAutoIndex(auto)
		if _, err := db.ExecScript(`
			CREATE TABLE item (id INT PRIMARY KEY, cat TEXT, price FLOAT, ok BOOL);
		`); err != nil {
			t.Fatal(err)
		}
		return db
	}
	indexed, plain := setup(true), setup(false)

	cats := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(7))
	exec := func(sql string) {
		t.Helper()
		for _, db := range []*Database{indexed, plain} {
			if _, err := db.ExecSQL(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	queries := []struct {
		sql  string
		args func() []mem.Value
	}{
		{"SELECT id, cat, price FROM item WHERE cat = $1", func() []mem.Value {
			return []mem.Value{mem.Str(cats[rng.Intn(len(cats))])}
		}},
		{"SELECT id FROM item WHERE price < $1", func() []mem.Value {
			return []mem.Value{mem.Float(float64(rng.Intn(1000)))}
		}},
		{"SELECT id FROM item WHERE price >= $1", func() []mem.Value {
			return []mem.Value{mem.Int(int64(rng.Intn(1000)))}
		}},
		{"SELECT id FROM item WHERE id = $1", func() []mem.Value {
			return []mem.Value{mem.Int(int64(rng.Intn(600)))}
		}},
		{"SELECT cat FROM item WHERE ok = $1", func() []mem.Value {
			return []mem.Value{mem.Bool(rng.Intn(2) == 0)}
		}},
		// Mismatched family: both sides must take the scan and agree.
		{"SELECT id FROM item WHERE cat = $1", func() []mem.Value {
			return []mem.Value{mem.Int(int64(rng.Intn(10)))}
		}},
		// NULL probe: no rows on either side.
		{"SELECT id FROM item WHERE price < $1", func() []mem.Value {
			return []mem.Value{mem.Null()}
		}},
	}
	check := func() {
		t.Helper()
		for qi, q := range queries {
			args := q.args()
			pi, err := indexed.Prepare(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := plain.Prepare(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			got, gerr := pi.Exec(args)
			want, werr := pp.Exec(args)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("q%d args=%v: indexed err %v, scan err %v", qi, args, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q%d args=%v: indexed %+v != scan %+v", qi, args, got, want)
			}
		}
	}

	next := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 20; i++ {
			exec(fmt.Sprintf("INSERT INTO item VALUES (%d, '%s', %d, %v)",
				next, cats[rng.Intn(len(cats))], rng.Intn(1000), rng.Intn(2) == 0))
			next++
		}
		switch round % 3 {
		case 0:
			exec(fmt.Sprintf("DELETE FROM item WHERE id = %d", rng.Intn(next)))
		case 1:
			exec(fmt.Sprintf("UPDATE item SET price = %d WHERE id = %d", rng.Intn(1000), rng.Intn(next)))
		}
		check()
	}

	if st := indexed.IndexStats(); st.HashProbes == 0 || st.RangeProbes == 0 {
		t.Fatalf("indexed db never probed: %+v", st)
	}
}
