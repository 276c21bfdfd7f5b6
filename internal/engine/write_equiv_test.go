package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// scanExec is the write path as it was before UPDATE and DELETE went through
// the access-path chooser: the WHERE is evaluated on every row of the table,
// in insertion order, whatever indexes exist. It lives here as the oracle of
// TestWriteIndexEquivalence; every other statement executes normally.
func (db *Database) scanExec(stmt sqlparser.Stmt) (*Result, error) {
	var table string
	var where sqlparser.Expr
	var set []sqlparser.Assignment
	switch s := stmt.(type) {
	case *sqlparser.DeleteStmt:
		table, where = s.Table, s.Where
	case *sqlparser.UpdateStmt:
		table, where, set = s.Table, s.Where, s.Set
	default:
		return db.Exec(stmt)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[strings.ToLower(table)]
	if t == nil {
		return nil, fmt.Errorf("engine: no table %s", table)
	}
	schema := t.Schema
	setPos := make([]int, len(set))
	for i, a := range set {
		if setPos[i] = schema.ColumnIndex(a.Column); setPos[i] < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", table, a.Column)
		}
	}
	var ids []int64
	var olds, news []mem.Row
	var scanErr error
	env := Env{}.Bind(schema.Table, schema, nil)
	t.Scan(func(id int64, r mem.Row) bool {
		env.rebind(r)
		if where != nil {
			var v mem.Value
			var tr Tri
			if v, scanErr = Eval(where, env); scanErr != nil {
				return false
			}
			if tr, scanErr = Truth(v); scanErr != nil {
				return false
			}
			if tr != True {
				return true
			}
		}
		ids = append(ids, id)
		if set == nil {
			return true
		}
		nr := r.Clone()
		for i, a := range set {
			var v mem.Value
			if v, scanErr = Eval(a.Value, env); scanErr != nil {
				return false
			}
			nr[setPos[i]] = v
		}
		var validated mem.Row
		if validated, scanErr = t.ValidateRow(nr); scanErr != nil {
			return false
		}
		olds, news = append(olds, r.Clone()), append(news, validated)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	cols := schema.ColumnNames()
	if set == nil {
		removed := t.Delete(ids)
		for _, r := range removed {
			db.logAndFire(UpdateRecord{Table: schema.Table, Op: OpDelete, Columns: cols, Row: r.Clone()})
		}
		return &Result{RowsAffected: len(removed)}, nil
	}
	for i, id := range ids {
		if err := t.Replace(id, news[i]); err != nil {
			return nil, err
		}
		db.logAndFire(UpdateRecord{Table: schema.Table, Op: OpDelete, Columns: cols, Row: olds[i]})
		db.logAndFire(UpdateRecord{Table: schema.Table, Op: OpInsert, Columns: cols, Row: news[i].Clone()})
	}
	return &Result{RowsAffected: len(ids)}, nil
}

// valueSig renders a value with its kind, so 1 and 1.0 differ and NaN equals
// NaN.
func valueSig(v mem.Value) string { return fmt.Sprintf("%d:%s", v.Kind, v.Key()) }

func rowSig(r mem.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = valueSig(v)
	}
	return strings.Join(parts, ",")
}

// tableSig renders every live row with its ID, in scan order.
func tableSig(db *Database, table string) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b strings.Builder
	db.tables[table].Scan(func(id int64, r mem.Row) bool {
		fmt.Fprintf(&b, "%d=%s\n", id, rowSig(r))
		return true
	})
	return b.String()
}

func logSig(recs []UpdateRecord) string {
	var b strings.Builder
	for _, rec := range recs {
		fmt.Fprintf(&b, "%d %s %s %v %s\n", rec.LSN, rec.Table, rec.Op, rec.Columns, rowSig(rec.Row))
	}
	return b.String()
}

// writeEquivGen generates the statements of TestWriteIndexEquivalence as a
// template text plus arguments, so NaN — which has no SQL literal — can be a
// probe value.
type writeEquivGen struct {
	rng    *rand.Rand
	nextID int64
	hashed []string // hash-indexed columns of the indexed database
	sql    strings.Builder
	args   []mem.Value
}

// Column domains are small, so equality predicates match several rows.
func (g *writeEquivGen) typed(col string) mem.Value {
	switch col {
	case "id":
		return mem.Int(g.rng.Int63n(g.nextID + 5))
	case "a":
		return mem.Int(int64(g.rng.Intn(8)))
	case "f":
		return mem.Float(float64(g.rng.Intn(16)) / 2)
	case "s":
		return mem.Str(string(rune('p' + g.rng.Intn(5))))
	default:
		return mem.Bool(g.rng.Intn(2) == 0)
	}
}

// crossTyped returns a value of a family the column cannot compare with.
func (g *writeEquivGen) crossTyped(col string) mem.Value {
	if col == "s" {
		return mem.Int(int64(g.rng.Intn(8)))
	}
	return mem.Str("q")
}

func (g *writeEquivGen) arg(v mem.Value) string {
	g.args = append(g.args, v)
	return fmt.Sprintf("$%d", len(g.args))
}

var writeEquivCols = []string{"id", "a", "f", "s", "b"}

// comparison writes `col op $k` or `$k op col`, op being random unless given.
// special lets the literal be NULL or NaN (neither can raise an error); cross
// makes it a family mismatch.
func (g *writeEquivGen) comparison(col, op string, special, cross bool) {
	if op == "" {
		ops := []string{"=", "=", "=", "<", "<=", ">", ">=", "<>"}
		op = ops[g.rng.Intn(len(ops))]
	}
	v := g.typed(col)
	switch {
	case cross:
		v = g.crossTyped(col)
	case special && g.rng.Intn(6) == 0:
		v = mem.Null()
	case special && (col == "a" || col == "f" || col == "id") && g.rng.Intn(8) == 0:
		v = mem.Float(math.NaN())
	case (col == "a" || col == "id") && g.rng.Intn(4) == 0:
		v = mem.Float(float64(v.I)) // same family, other kind
	}
	if g.rng.Intn(4) == 0 {
		fmt.Fprintf(&g.sql, "%s %s %s", g.arg(v), op, col)
	} else {
		fmt.Fprintf(&g.sql, "%s %s %s", col, op, g.arg(v))
	}
}

// residual writes a well-typed conjunct no index can answer.
func (g *writeEquivGen) residual() {
	switch g.rng.Intn(6) {
	case 0:
		fmt.Fprintf(&g.sql, "id %% 3 = %s", g.arg(mem.Int(int64(g.rng.Intn(3)))))
	case 1:
		fmt.Fprintf(&g.sql, "s LIKE %s", g.arg(mem.Str(string(rune('p'+g.rng.Intn(5)))+"%")))
	case 2:
		g.sql.WriteString("a IS NOT NULL")
	case 3:
		fmt.Fprintf(&g.sql, "a IN (%s, %s)", g.arg(g.typed("a")), g.arg(g.typed("a")))
	case 4:
		fmt.Fprintf(&g.sql, "f BETWEEN %s AND %s", g.arg(mem.Float(1)), g.arg(mem.Float(float64(2+g.rng.Intn(5)))))
	default:
		fmt.Fprintf(&g.sql, "(a = %s OR b = %s)", g.arg(g.typed("a")), g.arg(g.typed("b")))
	}
}

// where writes nothing (every row matches), one conjunct, or several. A
// family mismatch is generated only where the chooser's guard meets it: as
// the only conjunct, or as the first equality on a hash-indexed column (the
// one the chooser picks). A mismatch elsewhere raises its error on the rows
// the scan reaches and a probe skips — SELECT's behaviour since the probes
// exist (DESIGN.md §5.2.6), shared by the write path.
func (g *writeEquivGen) where() {
	if g.rng.Intn(16) == 0 {
		return
	}
	n := 1 + g.rng.Intn(3)
	g.sql.WriteString(" WHERE ")
	if g.rng.Intn(8) == 0 {
		if n == 1 || len(g.hashed) == 0 {
			g.comparison(writeEquivCols[g.rng.Intn(len(writeEquivCols))], "", false, true)
			return
		}
		g.comparison(g.hashed[g.rng.Intn(len(g.hashed))], "=", false, true)
		g.sql.WriteString(" AND ")
		n--
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			g.sql.WriteString(" AND ")
		}
		if g.rng.Intn(3) == 0 {
			g.residual()
		} else {
			g.comparison(writeEquivCols[g.rng.Intn(len(writeEquivCols))], "", true, false)
		}
	}
}

func (g *writeEquivGen) statement() (string, []mem.Value) {
	g.sql.Reset()
	g.args = nil
	switch r := g.rng.Intn(10); {
	case r < 3:
		// Re-inserting a deleted primary key and colliding with a live one
		// are both in range.
		id := g.nextID
		if g.rng.Intn(3) == 0 {
			id = g.rng.Int63n(g.nextID)
		} else {
			g.nextID++
		}
		a := g.typed("a")
		if g.rng.Intn(8) == 0 {
			a = mem.Null()
		}
		fmt.Fprintf(&g.sql, "INSERT INTO t VALUES (%s, %s, %s, %s, %s, 0)",
			g.arg(mem.Int(id)), g.arg(a), g.arg(g.typed("f")), g.arg(g.typed("s")), g.arg(g.typed("b")))
	case r < 6:
		g.sql.WriteString("DELETE FROM t")
		g.where()
	default:
		g.sql.WriteString("UPDATE t SET ")
		switch g.rng.Intn(7) {
		case 0:
			fmt.Fprintf(&g.sql, "a = a + %s", g.arg(mem.Int(1)))
		case 1:
			// Moves rows between primary keys; collides now and then, after
			// some rows of the statement have already been replaced.
			fmt.Fprintf(&g.sql, "id = id + %s", g.arg(mem.Int(int64(1+g.rng.Intn(40)))))
		case 2:
			fmt.Fprintf(&g.sql, "id = %s", g.arg(g.typed("id")))
		case 3:
			fmt.Fprintf(&g.sql, "f = %s, s = %s", g.arg(g.typed("f")), g.arg(g.typed("s")))
		case 4:
			fmt.Fprintf(&g.sql, "a = %s", g.arg(mem.Null()))
		case 5:
			fmt.Fprintf(&g.sql, "s = %s", g.arg(mem.Int(3))) // rejected by ValidateRow
		default:
			fmt.Fprintf(&g.sql, "ver = ver + %s", g.arg(mem.Int(1))) // no index covers ver
		}
		g.where()
	}
	return g.sql.String(), g.args
}

// TestWriteIndexEquivalence pins the index-driven write path to the
// scan-everything one it replaced. Two databases hold the same rows; one has
// a random set of hash and ordered indexes and executes UPDATE and DELETE
// through the access-path chooser, the other has none (beyond the primary
// key's) and executes them with scanExec. After every statement the error
// string, RowsAffected, the update log's new records (LSN, op, row, in
// order) and the table's rows (ID and values, in scan order) must be equal.
// SELECTs run against the indexed database throughout, so `go test -race`
// also checks the write path's locking.
func TestWriteIndexEquivalence(t *testing.T) {
	seeds, steps := 24, 160
	if testing.Short() {
		seeds, steps = 6, 80
	}
	var probes, scans, failed, changed int64
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(7100 + seed)))
		ddl := "CREATE TABLE t (id INT PRIMARY KEY, a INT, f FLOAT, s TEXT, b BOOL, ver INT NOT NULL)"
		if seed%4 == 3 {
			ddl = "CREATE TABLE t (id INT, a INT, f FLOAT, s TEXT, b BOOL, ver INT NOT NULL)" // no unique index at all
		}
		indexed, oracle := NewDatabase(), NewDatabase()
		for _, db := range []*Database{indexed, oracle} {
			if _, err := db.ExecSQL(ddl); err != nil {
				t.Fatal(err)
			}
		}
		g := &writeEquivGen{rng: rng}
		for n := 40 + rng.Intn(120); g.nextID < int64(n); g.nextID++ {
			row := mem.Row{mem.Int(g.nextID), g.typed("a"), g.typed("f"), g.typed("s"), g.typed("b"), mem.Int(0)}
			if rng.Intn(10) == 0 {
				row[1+rng.Intn(4)] = mem.Null()
			}
			if rng.Intn(25) == 0 {
				row[2] = mem.Float(math.NaN()) // makes an ordered index on f decline
			}
			for _, db := range []*Database{indexed, oracle} {
				if _, err := db.Table("t").Insert(row.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		var indexes []string
		for _, col := range writeEquivCols {
			kind := rng.Intn(4) // none, hash, ordered, both
			if kind&1 != 0 && !indexed.Table("t").HasIndex(col) {
				if err := indexed.Table("t").CreateIndex(col, false); err != nil {
					t.Fatal(err)
				}
			}
			if indexed.Table("t").HasIndex(col) {
				g.hashed = append(g.hashed, col)
				indexes = append(indexes, "hash("+col+")")
			}
			if kind&2 != 0 {
				if err := indexed.Table("t").CreateOrderedIndex(col); err != nil {
					t.Fatal(err)
				}
				indexes = append(indexes, "ordered("+col+")")
			}
		}

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rrng := rand.New(rand.NewSource(int64(seed*10 + r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := int64(rrng.Intn(8))
					res, err := indexed.ExecSQL(fmt.Sprintf("SELECT a, f FROM t WHERE a = %d AND f >= 0", k))
					if err != nil {
						t.Errorf("seed %d: concurrent SELECT: %v", seed, err)
						return
					}
					for _, row := range res.Rows {
						if row[0] != mem.Int(k) {
							t.Errorf("seed %d: SELECT a = %d returned %v", seed, k, row)
							return
						}
					}
				}
			}(r)
		}

		mark := indexed.Log().NextLSN()
		for step := 0; step < steps; step++ {
			sql, args := g.statement()
			tmpl, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			lits := make([]sqlparser.Expr, len(args))
			for i, a := range args {
				lits[i] = a.Literal()
			}
			stmt, err := sqlparser.Bind(tmpl, lits)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			got, gerr := indexed.Exec(stmt)
			want, werr := oracle.scanExec(stmt)
			at := fmt.Sprintf("seed %d step %d indexes %v: %s %v", seed, step, indexes, sql, args)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s:\nindexed error %v\nscan error    %v", at, gerr, werr)
			}
			if gerr != nil {
				failed++
			} else if got.RowsAffected != want.RowsAffected {
				t.Fatalf("%s: indexed affected %d rows, scan %d", at, got.RowsAffected, want.RowsAffected)
			} else if got.RowsAffected > 0 {
				changed++
			}
			grecs, _ := indexed.Log().Since(mark)
			wrecs, _ := oracle.Log().Since(mark)
			if g, w := logSig(grecs), logSig(wrecs); g != w {
				t.Fatalf("%s: log records differ:\nindexed\n%sscan\n%s", at, g, w)
			}
			mark = indexed.Log().NextLSN()
			if g, w := tableSig(indexed, "t"), tableSig(oracle, "t"); g != w {
				t.Fatalf("%s: tables differ:\nindexed\n%sscan\n%s", at, g, w)
			}
		}
		close(stop)
		readers.Wait()
		st := indexed.IndexStats()
		probes, scans = probes+st.WriteProbes, scans+st.WriteScans
		if st := oracle.IndexStats(); st.WriteProbes != 0 || st.WriteScans != 0 {
			t.Fatalf("seed %d: the oracle went through the chooser: %+v", seed, st)
		}
	}
	t.Logf("%d statements changed rows, %d failed on both sides; %d write probes, %d write scans", changed, failed, probes, scans)
	if probes == 0 || scans == 0 {
		t.Fatalf("write probes %d, write scans %d: the run must exercise both", probes, scans)
	}
}
