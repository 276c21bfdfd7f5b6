package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// materializedSelect is SELECT as it ran before the topN sink: every joined
// tuple is copied out, then projectRows projects all of them, sorts them and
// slices the OFFSET/LIMIT window. projectRows, projectOne, evalOrderKey,
// orderLess and applyLimit below are that tail as it was (outputColumns has
// since lost an unused argument). They live here as the oracle of
// TestSelectSinkEquivalence; execSelect shares only the join enumeration.
func (db *Database) materializedSelect(s *sqlparser.SelectStmt) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var tuples []Env
	err := db.joinTuples(s, nil, func(env Env) error {
		tuples = append(tuples, Env{bindings: slices.Clone(env.bindings)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db.projectRows(s, tuples)
}

// projectRows applies aggregation, projection, DISTINCT, ORDER BY and
// LIMIT/OFFSET to the joined tuples.
func (db *Database) projectRows(s *sqlparser.SelectStmt, tuples []Env) (*Result, error) {
	if len(s.GroupBy) > 0 || hasAggregate(s) {
		return db.projectAggregate(s, tuples)
	}

	cols, err := db.outputColumns(s)
	if err != nil {
		return nil, err
	}

	type outRow struct {
		row  mem.Row
		sort mem.Row // ORDER BY key values
	}
	var rows []outRow
	for _, env := range tuples {
		r, err := projectOne(s, env)
		if err != nil {
			return nil, err
		}
		or := outRow{row: r}
		for _, o := range s.OrderBy {
			v, err := evalOrderKey(o.Expr, env, s, r, cols)
			if err != nil {
				return nil, err
			}
			or.sort = append(or.sort, v)
		}
		rows = append(rows, or)
	}

	if s.Distinct {
		seen := map[string]bool{}
		kept := rows[:0]
		for _, r := range rows {
			k := r.row.Key()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	if len(s.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			less, err := orderLess(rows[i].sort, rows[j].sort, s.OrderBy)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			return less
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	final := make([]mem.Row, len(rows))
	for i, r := range rows {
		final[i] = r.row
	}
	final, err = applyLimit(s, final)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: final}, nil
}

// projectOne evaluates the select list for one joined tuple.
func projectOne(s *sqlparser.SelectStmt, env Env) (mem.Row, error) {
	var row mem.Row
	for _, it := range s.Items {
		if it.Star {
			for _, b := range env.bindings {
				if it.StarTable != "" && !strings.EqualFold(it.StarTable, b.name) {
					continue
				}
				row = append(row, b.row...)
			}
			continue
		}
		v, err := Eval(it.Expr, env)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// evalOrderKey evaluates an ORDER BY key: aliases and output column names
// refer to projected values; everything else evaluates in the row env.
func evalOrderKey(e sqlparser.Expr, env Env, s *sqlparser.SelectStmt, projected mem.Row, cols []string) (mem.Value, error) {
	if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == "" {
		for i, name := range cols {
			if strings.EqualFold(name, c.Column) && i < len(projected) {
				return projected[i], nil
			}
		}
	}
	return Eval(e, env)
}

// orderLess compares two ORDER BY key tuples. NULLs sort first ascending.
func orderLess(a, b mem.Row, keys []sqlparser.OrderItem) (bool, error) {
	for i := range keys {
		av, bv := a[i], b[i]
		if av.IsNull() && bv.IsNull() {
			continue
		}
		if av.IsNull() {
			return !keys[i].Desc, nil
		}
		if bv.IsNull() {
			return keys[i].Desc, nil
		}
		c, err := mem.Compare(av, bv)
		if err != nil {
			return false, fmt.Errorf("engine: ORDER BY: %w", err)
		}
		if c == 0 {
			continue
		}
		if keys[i].Desc {
			return c > 0, nil
		}
		return c < 0, nil
	}
	return false, nil
}

func applyLimit(s *sqlparser.SelectStmt, rows []mem.Row) ([]mem.Row, error) {
	off := 0
	if s.Offset != nil {
		v, err := Eval(s.Offset, Env{})
		if err != nil || v.Kind != mem.KindInt || v.I < 0 {
			return nil, fmt.Errorf("engine: OFFSET must be a non-negative integer")
		}
		off = int(v.I)
	}
	if off >= len(rows) {
		return nil, nil
	}
	rows = rows[off:]
	if s.Limit != nil {
		v, err := Eval(s.Limit, Env{})
		if err != nil || v.Kind != mem.KindInt || v.I < 0 {
			return nil, fmt.Errorf("engine: LIMIT must be a non-negative integer")
		}
		if int(v.I) < len(rows) {
			rows = rows[:v.I]
		}
	}
	return rows, nil
}

// selectCase is one random database and SELECT for the sink equivalence
// property: two small tables with duplicate join keys and NULLs, optionally
// indexed on the join column, and a statement drawn over DISTINCT, 1–3
// ORDER BY keys (columns, an output alias, an expression, ASC and DESC),
// LIMIT and OFFSET from 0 to n+3 for n result rows (sometimes invalid), over a single table,
// a comma join, an explicit join on an unindexed column and a LEFT JOIN.
// Half the cases are cutCase's shape instead.
type selectCase struct {
	Script string
	SQL    string
}

func (selectCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	if rng.Intn(2) == 0 {
		return reflect.ValueOf(cutCase(rng))
	}
	var b strings.Builder
	b.WriteString("CREATE TABLE a (id INT, k INT, s TEXT);\n")
	b.WriteString("CREATE TABLE b (id INT, k INT, w INT);\n")
	if rng.Intn(2) == 0 {
		b.WriteString("CREATE INDEX b_k ON b (k);\n")
	}
	maybeNull := func(v string) string {
		if rng.Intn(5) == 0 {
			return "NULL"
		}
		return v
	}
	na, nb := 1+rng.Intn(12), rng.Intn(12)
	for i := 0; i < na; i++ {
		fmt.Fprintf(&b, "INSERT INTO a VALUES (%d, %s, %s);\n", rng.Intn(5),
			maybeNull(fmt.Sprint(rng.Intn(3))), maybeNull(fmt.Sprintf("'%c'", 'p'+rune(rng.Intn(3)))))
	}
	for i := 0; i < nb; i++ {
		fmt.Fprintf(&b, "INSERT INTO b VALUES (%d, %s, %s);\n", rng.Intn(5),
			maybeNull(fmt.Sprint(rng.Intn(3))), maybeNull(fmt.Sprint(rng.Intn(4))))
	}

	type item struct{ sql, name string }
	aItems := []item{{"a.id", "id"}, {"a.k", "k"}, {"a.s", "s"}, {"a.id * 10 + a.k AS ak", "ak"}}
	bItems := []item{{"b.id", "id"}, {"b.w", "w"}, {"b.k + b.w AS kw", "kw"}}
	aKeys := []string{"a.id", "a.k", "a.s", "a.id * 3 - a.k"}
	bKeys := []string{"b.id", "b.w", "b.k + 1"}

	from := "a"
	items, keys := aItems, aKeys
	switch rng.Intn(4) {
	case 1:
		from = "a, b WHERE a.k = b.k"
	case 2:
		from = "a JOIN b ON a.id = b.w"
	case 3:
		from = "a LEFT JOIN b ON a.k = b.k"
	}
	if from != "a" {
		items, keys = append(items, bItems...), append(keys, bKeys...)
		if rng.Intn(3) == 0 {
			sep := " AND "
			if !strings.Contains(from, "WHERE") {
				sep = " WHERE "
			}
			from += sep + fmt.Sprintf("a.id <> %d", rng.Intn(5))
		}
	}

	var sel []string
	if rng.Intn(8) == 0 {
		sel = []string{"*"}
	} else {
		for _, i := range rng.Perm(len(items))[:1+rng.Intn(3)] {
			sel = append(sel, items[i].sql)
			// An output name can be an ORDER BY key; an unqualified name
			// two tables share cannot (it would be ambiguous).
			if name := items[i].name; name != "id" && name != "k" {
				keys = append(keys, name)
			}
		}
	}
	distinct := ""
	if rng.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	q := "SELECT " + distinct + strings.Join(sel, ", ") + " FROM " + from
	if nk := rng.Intn(4); nk > 0 {
		var order []string
		for _, i := range rng.Perm(len(keys))[:min(nk, len(keys))] {
			dir := []string{"", " ASC", " DESC"}[rng.Intn(3)]
			order = append(order, keys[i]+dir)
		}
		q += " ORDER BY " + strings.Join(order, ", ")
	}
	// n is the statement's row count before the window, so LIMIT and
	// OFFSET land on both sides of it.
	n := 0
	db := NewDatabase()
	if _, err := db.ExecScript(b.String()); err != nil {
		panic(err)
	}
	if stmt, err := sqlparser.Parse(q); err == nil {
		if res, err := db.materializedSelect(stmt.(*sqlparser.SelectStmt)); err == nil {
			n = len(res.Rows)
		}
	}
	window := func(kw string, bad string) {
		switch r := rng.Intn(10); {
		case r == 0:
			q += " " + kw + " " + bad
		case r < 6:
			q += fmt.Sprintf(" %s %d", kw, rng.Intn(n+4))
		}
	}
	window("LIMIT", "(0 - 1)")
	window("OFFSET", "1.5")
	return reflect.ValueOf(selectCase{Script: b.String(), SQL: q})
}

// cutCase is a join whose outer rows the ORDER BY … LIMIT cut can skip:
// 5–30 outer rows whose leading ORDER BY keys are outer columns with
// duplicates and NULLs, ASC or DESC, an inner LEFT JOIN or probed comma
// join, a later key on the inner table or an expression, and LIMIT 1–3 with
// and without OFFSET; a fifth of them under DISTINCT, which is never cut.
func cutCase(rng *rand.Rand) selectCase {
	var b strings.Builder
	b.WriteString("CREATE TABLE a (id INT, k INT, s TEXT);\n")
	b.WriteString("CREATE TABLE b (id INT, k INT, w INT);\n")
	if rng.Intn(2) == 0 {
		b.WriteString("CREATE INDEX b_k ON b (k);\n")
	}
	maybeNull := func(v string) string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		return v
	}
	for i, na := 0, 5+rng.Intn(26); i < na; i++ {
		fmt.Fprintf(&b, "INSERT INTO a VALUES (%s, %s, %s);\n", maybeNull(fmt.Sprint(rng.Intn(8))),
			maybeNull(fmt.Sprint(rng.Intn(3))), maybeNull(fmt.Sprintf("'%c'", 'p'+rune(rng.Intn(4)))))
	}
	for i, nb := 0, rng.Intn(10); i < nb; i++ {
		fmt.Fprintf(&b, "INSERT INTO b VALUES (%d, %s, %d);\n", rng.Intn(5),
			maybeNull(fmt.Sprint(rng.Intn(3))), rng.Intn(4))
	}

	from := "a LEFT JOIN b ON a.k = b.k"
	if rng.Intn(3) == 0 {
		from = "a, b WHERE a.k = b.k"
	}
	if rng.Intn(3) == 0 {
		sep := " AND "
		if !strings.Contains(from, "WHERE") {
			sep = " WHERE "
		}
		from += sep + []string{"a.id <> 3", "b.w IS NULL OR b.w > 0"}[rng.Intn(2)]
	}
	sel := "*"
	if rng.Intn(4) != 0 {
		items := []string{"a.id", "a.k", "a.s", "b.id", "b.w", "a.id * 10 + b.w AS aw"}
		var pick []string
		for _, i := range rng.Perm(len(items))[:1+rng.Intn(3)] {
			pick = append(pick, items[i])
		}
		sel = strings.Join(pick, ", ")
	}
	dir := func() string { return []string{"", " ASC", " DESC"}[rng.Intn(3)] }
	var order []string
	for _, i := range rng.Perm(3)[:1+rng.Intn(2)] {
		order = append(order, []string{"a.id", "a.k", "a.s"}[i]+dir())
	}
	if rng.Intn(4) != 0 {
		order = append(order, []string{"b.id", "b.w", "a.id + b.w"}[rng.Intn(3)]+dir())
	}
	if rng.Intn(5) == 0 {
		sel = "DISTINCT " + sel
	}
	q := fmt.Sprintf("SELECT %s FROM %s ORDER BY %s LIMIT %d", sel, from, strings.Join(order, ", "), 1+rng.Intn(3))
	if rng.Intn(2) == 0 {
		q += fmt.Sprintf(" OFFSET %d", rng.Intn(4))
	}
	return selectCase{Script: b.String(), SQL: q}
}

// cutsJoin reports whether execSelect's join of s hands its topN sink fewer
// tuples than the full enumeration does, that is, whether the cut skipped an
// outer row.
func (db *Database) cutsJoin(s *sqlparser.SelectStmt) bool {
	if s.Distinct || len(s.GroupBy) > 0 || hasAggregate(s) {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	top, err := db.newTopN(s)
	if err != nil {
		return false
	}
	cut, full := 0, 0
	if err := db.joinTuples(s, top.cutoff, func(env Env) error { cut++; return top.add(env) }); err != nil {
		return false
	}
	if err := db.joinTuples(s, nil, func(Env) error { full++; return nil }); err != nil {
		return false
	}
	return cut < full
}

// resultSig renders a result or its error, kinds included, so the property
// compares rows exactly and in order.
func resultSig(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Columns)
	for _, r := range res.Rows {
		b.WriteString(rowSig(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSelectSinkEquivalence: for random tables and SELECTs, the streaming
// topN sink returns exactly the rows, in exactly the order, and the same
// LIMIT/OFFSET errors as the materialise-sort-slice path it replaced, which
// never cuts a join. At least a fifth of the cases must take the cut.
func TestSelectSinkEquivalence(t *testing.T) {
	cases, cuts := 0, 0
	check := func(c selectCase) bool {
		db := NewDatabase()
		if _, err := db.ExecScript(c.Script); err != nil {
			t.Fatalf("script: %v\n%s", err, c.Script)
		}
		stmt, err := sqlparser.Parse(c.SQL)
		if err != nil {
			t.Fatalf("parse %q: %v", c.SQL, err)
		}
		s := stmt.(*sqlparser.SelectStmt)
		got := resultSig(db.Exec(s))
		if cases++; db.cutsJoin(s) {
			cuts++
		}
		want := resultSig(db.materializedSelect(s))
		if got != want {
			t.Errorf("%s\n%s\nsink:\n%s\nmaterialized:\n%s", c.Script, c.SQL, got, want)
			return false
		}
		return true
	}
	n := 3000
	if testing.Short() {
		n = 500
	}
	if err := quick.Check(check, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d cases cut their join", cuts, cases)
	if cuts*5 < cases {
		t.Fatalf("only %d of %d cases cut their join, want at least a fifth", cuts, cases)
	}
}

// TestSelectSinkLimitErrors pins the window's error order against the
// oracle on fixed statements: OFFSET is checked before LIMIT, and an OFFSET
// at or past the last row returns no rows without checking LIMIT.
func TestSelectSinkLimitErrors(t *testing.T) {
	db := NewDatabase()
	if _, err := db.ExecScript("CREATE TABLE a (id INT, k INT); INSERT INTO a VALUES (1, 1), (2, NULL), (3, 1);"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT id FROM a ORDER BY id LIMIT (0 - 1)",
		"SELECT id FROM a LIMIT (0 - 1)",
		"SELECT id FROM a ORDER BY k LIMIT (0 - 1) OFFSET 3",
		"SELECT id FROM a WHERE id > 9 ORDER BY id LIMIT (0 - 1)",
		"SELECT id FROM a ORDER BY id OFFSET 1.5",
		"SELECT id FROM a ORDER BY id LIMIT (0 - 1) OFFSET 1.5",
		"SELECT id FROM a ORDER BY id LIMIT 'x'",
		"SELECT DISTINCT k FROM a ORDER BY k LIMIT (0 - 1) OFFSET 2",
		"SELECT DISTINCT k FROM a ORDER BY k LIMIT 0 OFFSET 1",
		"SELECT nosuch FROM a LIMIT 0",
		"SELECT k, COUNT(*) FROM a GROUP BY k ORDER BY k LIMIT (0 - 1) OFFSET 1",
	} {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		s := stmt.(*sqlparser.SelectStmt)
		if got, want := resultSig(db.Exec(s)), resultSig(db.materializedSelect(s)); got != want {
			t.Errorf("%s\nsink: %s\nmaterialized: %s", q, got, want)
		}
	}
}

// TestSelectCutSkipsErrorsBeyondWindow pins the one way a cut join differs
// from the full enumeration: an evaluation error that only tuples past the
// cut would raise does not fail the statement. The inner-level predicate
// divides by zero only on the outer row with id 3, which arrives after the
// first outer row has filled LIMIT 2 and sorts after it.
func TestSelectCutSkipsErrorsBeyondWindow(t *testing.T) {
	db := NewDatabase()
	if _, err := db.ExecScript("CREATE TABLE a (id INT); CREATE TABLE b (id INT);" +
		"INSERT INTO a VALUES (1), (3), (2); INSERT INTO b VALUES (10), (20), (30);"); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparser.Parse("SELECT a.id, b.id FROM a, b WHERE b.id / (a.id - 3) < 100 ORDER BY a.id, b.id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*sqlparser.SelectStmt)
	want := resultSig(&Result{Columns: []string{"id", "id"}, Rows: []mem.Row{
		{mem.Int(1), mem.Int(10)}, {mem.Int(1), mem.Int(20)},
	}}, nil)
	if got := resultSig(db.Exec(s)); got != want {
		t.Errorf("cut join: got\n%swant\n%s", got, want)
	}
	if _, err := db.materializedSelect(s); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("full enumeration: got error %v, want division by zero", err)
	}
}

// heavyDB is the site benchmark's shop at a reduced category count: small
// and large, each indexed on cat, with smallPer and largePer rows per
// category.
func heavyDB(tb testing.TB, cats, smallPer, largePer int) *Database {
	tb.Helper()
	db := NewDatabase()
	for _, tbl := range []string{"small", "large"} {
		if _, err := db.ExecScript(fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, cat INT, ver INT, val TEXT); CREATE INDEX %s_cat ON %s (cat);", tbl, tbl, tbl)); err != nil {
			tb.Fatal(err)
		}
		per := smallPer
		if tbl == "large" {
			per = largePer
		}
		t := db.Table(tbl)
		for c := 0; c < cats; c++ {
			for i := 0; i < per; i++ {
				id := int64(c+1)<<10 + int64(i)
				if _, err := t.Insert(mem.Row{mem.Int(id), mem.Int(int64(c)), mem.Int(0), mem.Str(fmt.Sprint("item-", id))}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return db
}

const heavySQL = "SELECT small.id, small.ver, large.id, large.ver FROM small, large " +
	"WHERE small.cat = large.cat AND small.cat = $1 ORDER BY small.id, large.id LIMIT 40"

// TestSelectOrderLimitAllocs pins what the heavy page's query allocates:
// with ORDER BY … LIMIT 40 only rows that enter the heap are copied, and the
// join skips every outer row after the first, which fills the heap, so
// doubling the outer table (20 → 40 small rows per category) moves allocations by less
// than 10 %, and the query stays at its pinned count.
func TestSelectOrderLimitAllocs(t *testing.T) {
	const pin = 115
	stmt, err := sqlparser.Parse(heavySQL)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(smallPer int) float64 {
		db := heavyDB(t, 4, smallPer, 100)
		args := []mem.Value{mem.Int(2)}
		res, err := db.ExecTemplate("heavy", stmt, args)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 40 {
			t.Fatalf("heavy returned %d rows, want 40", len(res.Rows))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := db.ExecTemplate("heavy", stmt, args); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, doubled := allocs(20), allocs(40)
	t.Logf("allocs/op: %.0f at 20×100, %.0f at 40×100", base, doubled)
	if base > pin {
		t.Fatalf("allocs/op at 20×100 = %.0f, pinned at %d", base, pin)
	}
	if doubled > base*1.1 {
		t.Fatalf("allocs/op grew from %.0f to %.0f when the outer table doubled", base, doubled)
	}
}

// BenchmarkSelectOrderLimit is the heavy page's query at shop scale: a
// 20 × 100 join per category, ordered on two keys, 40 rows returned.
func BenchmarkSelectOrderLimit(b *testing.B) {
	cats := 64
	if testing.Short() {
		cats = 8
	}
	db := heavyDB(b, cats, 20, 100)
	stmt, err := sqlparser.Parse(heavySQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecTemplate("heavy", stmt, []mem.Value{mem.Int(int64(i % cats))}); err != nil {
			b.Fatal(err)
		}
	}
}
