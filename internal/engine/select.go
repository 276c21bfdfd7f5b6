package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// execSelect runs a SELECT. The pipeline is:
//
//	join enumeration (nested loops with predicate pushdown and hash-index
//	point lookups) → WHERE residue → grouping/aggregation → HAVING →
//	projection → DISTINCT → ORDER BY → LIMIT/OFFSET.
//
// Callers hold db.mu (read).
func (db *Database) execSelect(s *sqlparser.SelectStmt) (*Result, error) {
	// Resolve the FROM sources in order; explicit JOINs append to the chain
	// with their ON condition treated as a pushed-down conjunct (INNER) or
	// a null-extending probe (LEFT).
	type source struct {
		ref      sqlparser.TableRef
		table    *mem.Table
		joinType string         // "", "INNER", "CROSS", "LEFT"
		on       sqlparser.Expr // for explicit joins
	}
	var sources []source
	for _, ref := range s.From {
		t := db.tables[strings.ToLower(ref.Name)]
		if t == nil {
			return nil, fmt.Errorf("engine: no table %s", ref.Name)
		}
		sources = append(sources, source{ref: ref, table: t})
	}
	for _, j := range s.Joins {
		t := db.tables[strings.ToLower(j.Table.Name)]
		if t == nil {
			return nil, fmt.Errorf("engine: no table %s", j.Table.Name)
		}
		sources = append(sources, source{ref: j.Table, table: t, joinType: j.Type, on: j.On})
	}

	// No FROM: evaluate the select list once against the empty env; a WHERE
	// clause (necessarily constant) gates the single tuple.
	if len(sources) == 0 {
		tuples := []Env{{}}
		if s.Where != nil {
			ok, err := isTrue(s.Where, Env{})
			if err != nil {
				return nil, err
			}
			if !ok {
				tuples = nil
			}
		}
		return db.projectRows(s, tuples)
	}

	// Duplicate effective names are ambiguous.
	seen := map[string]bool{}
	for _, src := range sources {
		n := strings.ToLower(src.ref.EffectiveName())
		if seen[n] {
			return nil, fmt.Errorf("engine: duplicate table name %s in FROM", src.ref.EffectiveName())
		}
		seen[n] = true
	}

	// Partition WHERE into conjuncts and attach each to the earliest join
	// level at which all its columns are resolvable (predicate pushdown).
	conj := sqlparser.Conjuncts(s.Where)
	for _, src := range sources {
		if src.joinType == "INNER" && src.on != nil {
			conj = append(conj, sqlparser.Conjuncts(src.on)...)
		}
	}
	levelOf := func(e sqlparser.Expr) int {
		lvl := 0
		ok := true
		for _, c := range sqlparser.ColumnsReferenced(e) {
			found := -1
			for i, src := range sources {
				env := Env{}.Bind(src.ref.EffectiveName(), src.table.Schema, nil)
				if env.HasColumn(c) {
					if c.Table != "" {
						found = i
						break
					}
					if found >= 0 {
						// Unqualified and resolvable in two sources:
						// defer to the last level so the evaluator can
						// report ambiguity.
						found = len(sources) - 1
						break
					}
					found = i
				}
			}
			if found < 0 {
				ok = false
				break
			}
			if found > lvl {
				lvl = found
			}
		}
		if !ok {
			return len(sources) - 1 // let evaluation surface the error
		}
		return lvl
	}
	predsAt := make([][]sqlparser.Expr, len(sources))
	for _, e := range conj {
		lvl := levelOf(e)
		predsAt[lvl] = append(predsAt[lvl], e)
	}

	// One access plan per level, made before enumeration: which conjunct, if
	// any, an index can answer given the levels bound before it (access.go).
	// LEFT JOIN levels always scan, their ON being evaluated per row.
	plans := make([]*accessPlan, len(sources))
	outer := Env{}
	for lvl, src := range sources {
		if src.joinType != "LEFT" {
			plans[lvl] = planAccess(predsAt[lvl], src.table, src.ref.EffectiveName(), outer)
		}
		outer = outer.Bind(src.ref.EffectiveName(), src.table.Schema, nil)
	}

	// Recursive nested-loop join producing one Env per result tuple.
	var out []Env
	var enumerate func(lvl int, env Env) error
	enumerate = func(lvl int, env Env) error {
		if lvl == len(sources) {
			out = append(out, env)
			return nil
		}
		src := sources[lvl]
		name := src.ref.EffectiveName()

		if src.joinType == "LEFT" {
			// LEFT JOIN: ON evaluated per probe row; WHERE conjuncts pinned
			// to this level still apply after null-extension.
			matched := false
			var innerErr error
			src.table.Scan(func(_ int64, r mem.Row) bool {
				rowEnv := env.Bind(name, src.table.Schema, r)
				ok := true
				if src.on != nil {
					ok, innerErr = isTrue(src.on, rowEnv)
				}
				if ok && innerErr == nil {
					ok, innerErr = allTrue(predsAt[lvl], rowEnv)
				}
				if ok && innerErr == nil {
					matched = true
					innerErr = enumerate(lvl+1, rowEnv)
				}
				return innerErr == nil
			})
			if innerErr != nil || matched {
				return innerErr
			}
			nulls := make(mem.Row, len(src.table.Schema.Columns))
			rowEnv := env.Bind(name, src.table.Schema, nulls)
			ok, err := allTrue(predsAt[lvl], rowEnv)
			if err != nil || !ok {
				return err
			}
			return enumerate(lvl+1, rowEnv)
		}

		visit := func(r mem.Row) error {
			rowEnv := env.Bind(name, src.table.Schema, r)
			ok, err := allTrue(predsAt[lvl], rowEnv)
			if err != nil || !ok {
				return err
			}
			return enumerate(lvl+1, rowEnv)
		}

		// Probed candidates arrive in insertion order, what the scan yields,
		// and still run through every predicate of the level.
		ids, probed, err := db.candidates(plans[lvl], src.table, env)
		if err != nil {
			return err
		}
		if probed {
			for _, id := range ids {
				if r, ok := src.table.Get(id); ok {
					if err := visit(r); err != nil {
						return err
					}
				}
			}
			return nil
		}
		var scanErr error
		src.table.Scan(func(_ int64, r mem.Row) bool {
			scanErr = visit(r)
			return scanErr == nil
		})
		return scanErr
	}
	if err := enumerate(0, Env{}); err != nil {
		return nil, err
	}
	return db.projectRows(s, out)
}

// isTrue reports whether e evaluates to TRUE — not FALSE, not UNKNOWN —
// under env.
func isTrue(e sqlparser.Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	tr, err := Truth(v)
	return tr == True, err
}

// allTrue reports whether every predicate is TRUE under env, stopping at the
// first that is not.
func allTrue(preds []sqlparser.Expr, env Env) (bool, error) {
	for _, p := range preds {
		if ok, err := isTrue(p, env); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func stripParens(e sqlparser.Expr) sqlparser.Expr {
	for {
		p, ok := e.(*sqlparser.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// hasAggregate reports whether any select item or HAVING uses an aggregate.
func hasAggregate(s *sqlparser.SelectStmt) bool {
	found := false
	check := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
				found = true
				return false
			}
			return true
		})
	}
	for _, it := range s.Items {
		if it.Expr != nil {
			check(it.Expr)
		}
	}
	if s.Having != nil {
		check(s.Having)
	}
	return found
}

// projectRows applies aggregation, projection, DISTINCT, ORDER BY and
// LIMIT/OFFSET to the joined tuples.
func (db *Database) projectRows(s *sqlparser.SelectStmt, tuples []Env) (*Result, error) {
	if len(s.GroupBy) > 0 || hasAggregate(s) {
		return db.projectAggregate(s, tuples)
	}

	cols, err := db.outputColumns(s, tuples)
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

// outputColumns computes the result column names. Star expansion uses the
// FROM tables' schemas in order.
func (db *Database) outputColumns(s *sqlparser.SelectStmt, tuples []Env) ([]string, error) {
	var cols []string
	for _, it := range s.Items {
		switch {
		case it.Star:
			refs := s.Tables()
			for _, ref := range refs {
				if it.StarTable != "" && !strings.EqualFold(it.StarTable, ref.EffectiveName()) {
					continue
				}
				t := db.tables[strings.ToLower(ref.Name)]
				if t == nil {
					return nil, fmt.Errorf("engine: no table %s", ref.Name)
				}
				cols = append(cols, t.Schema.ColumnNames()...)
			}
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if c, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cols = append(cols, c.Column)
			} else {
				cols = append(cols, it.Expr.String())
			}
		}
	}
	return cols, nil
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
