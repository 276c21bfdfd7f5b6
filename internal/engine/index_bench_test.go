package engine

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// BenchmarkHighFanoutPoll measures the invalidator's poll shape — the same
// prepared template executed across many bound instances — against a large
// table, with and without auto-indexing. This is the high-fanout case of
// §4.2: one update can make thousands of polling queries run, so the cost of
// each poll dominates invalidation latency.
func BenchmarkHighFanoutPoll(b *testing.B) {
	rows := 100_000
	if testing.Short() {
		rows = 2_000
	}
	setup := func(b *testing.B, auto bool) *Database {
		db := NewDatabase()
		db.SetAutoIndex(auto)
		if _, err := db.ExecSQL("CREATE TABLE item (id INT PRIMARY KEY, cat INT, price FLOAT)"); err != nil {
			b.Fatal(err)
		}
		t := db.Table("item")
		for i := 0; i < rows; i++ {
			if _, err := t.Insert(mem.Row{mem.Int(int64(i)), mem.Int(int64(i % 1000)), mem.Float(float64(i % 5000))}); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	templates := []struct {
		name string
		sql  string
		arg  func(i int) mem.Value
	}{
		{"eq", "SELECT id FROM item WHERE cat = $1", func(i int) mem.Value { return mem.Int(int64(i % 1000)) }},
		{"range", "SELECT id FROM item WHERE price < $1", func(i int) mem.Value { return mem.Float(float64(i%50) + 1) }},
	}
	for _, mode := range []string{"scan", "indexed"} {
		for _, tc := range templates {
			b.Run(fmt.Sprintf("mode=%s/pred=%s", mode, tc.name), func(b *testing.B) {
				db := setup(b, mode == "indexed")
				stmt, err := sqlparser.Parse(tc.sql)
				if err != nil {
					b.Fatal(err)
				}
				key := "poll:" + tc.sql
				// Prime so template interning and auto-index creation happen
				// outside the timed region, as they do in a long-lived server.
				if _, err := db.ExecTemplate(key, stmt, []mem.Value{tc.arg(0)}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.ExecTemplate(key, stmt, []mem.Value{tc.arg(i)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWriteByKey measures what one keyed write costs as the table grows:
// the update stream's two shapes, prepared once and executed by primary key.
// "delete+insert" removes a row and puts it back (two statements per op);
// "update" changes a column no index covers. Both find their row through the
// primary-key hash index, so ns/op and allocs/op must be flat in table size:
// the engine's write lock is held for the whole statement, and every reader
// queues behind it.
func BenchmarkWriteByKey(b *testing.B) {
	sizes := []int{10_000, 100_000}
	if testing.Short() {
		sizes = []int{1_000, 10_000}
	}
	for _, rows := range sizes {
		setup := func(b *testing.B) *Database {
			db := NewDatabase()
			if _, err := db.ExecScript("CREATE TABLE item (id INT PRIMARY KEY, cat INT, ver INT, val TEXT); CREATE INDEX item_cat ON item (cat)"); err != nil {
				b.Fatal(err)
			}
			t := db.Table("item")
			for i := 0; i < rows; i++ {
				if _, err := t.Insert(mem.Row{mem.Int(int64(i)), mem.Int(int64(i % 500)), mem.Int(0), mem.Str("v")}); err != nil {
					b.Fatal(err)
				}
			}
			return db
		}
		prepare := func(b *testing.B, db *Database, sql string) *PreparedStmt {
			st, err := db.Prepare(sql)
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		exec := func(b *testing.B, st *PreparedStmt, args ...mem.Value) {
			res, err := st.Exec(args)
			if err != nil {
				b.Fatal(err)
			}
			if res.RowsAffected != 1 {
				b.Fatalf("affected %d rows, want 1", res.RowsAffected)
			}
		}
		// A stride coprime with both sizes walks every key before repeating.
		key := func(i int) int64 { return int64(i*7919) % int64(rows) }

		b.Run(fmt.Sprintf("op=delete+insert/rows=%d", rows), func(b *testing.B) {
			db := setup(b)
			del := prepare(b, db, "DELETE FROM item WHERE id = $1")
			ins := prepare(b, db, "INSERT INTO item VALUES ($1, $2, $3, 'v')")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := key(i)
				exec(b, del, mem.Int(id))
				exec(b, ins, mem.Int(id), mem.Int(id%500), mem.Int(int64(i)))
			}
		})
		b.Run(fmt.Sprintf("op=update/rows=%d", rows), func(b *testing.B) {
			db := setup(b)
			// Arguments bind in order of appearance: SET before WHERE.
			upd := prepare(b, db, "UPDATE item SET ver = $1 WHERE id = $2")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec(b, upd, mem.Int(int64(i)), mem.Int(key(i)))
			}
		})
	}
}
