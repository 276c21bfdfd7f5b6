package engine

import (
	"math"
	"slices"
	"strings"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// This file is the engine's one access-path chooser. Every statement with a
// WHERE — each join level of a SELECT, and UPDATE and DELETE — asks it the
// same question: given the conjuncts that apply to a table and the rows
// already bound outside it, which rows can match? The answer is a hash-index
// probe for an equality conjunct, an ordered-index range for a comparison,
// or "scan". A probe narrows the candidates by one conjunct only; callers
// run every candidate through their full predicate, so a probe changes which
// rows are examined, never which rows match.

// accessPlan is the indexed conjunct chosen for one table: `column op expr`,
// with expr free of the table's own columns. A nil plan means scan.
type accessPlan struct {
	column string
	expr   sqlparser.Expr     // references only outer bindings
	op     sqlparser.BinaryOp // OpEq: hash probe; OpLt/LtEq/Gt/GtEq: ordered range
}

// planAccess picks the conjunct to probe t with, or nil. t is bound as name
// in the statement; outer carries the bindings available before t's row is
// chosen (rows unneeded: only names and schemas are consulted), so the plan
// depends on the statement alone and is made once, not per outer row. An
// equality on a hash-indexed column wins over a range on an ordered-indexed
// one; within a kind the first conjunct in WHERE order wins.
func planAccess(conj []sqlparser.Expr, t *mem.Table, name string, outer Env) *accessPlan {
	var ranged *accessPlan
	for _, e := range conj {
		b, ok := stripParens(e).(*sqlparser.BinaryExpr)
		if !ok {
			continue
		}
		eq := b.Op == sqlparser.OpEq
		if !eq && (ranged != nil || !isRangeOp(b.Op)) {
			continue
		}
		for _, side := range [2]struct {
			col, other sqlparser.Expr
			op         sqlparser.BinaryOp
		}{
			{b.Left, b.Right, b.Op}, {b.Right, b.Left, mirrorOp(b.Op)},
		} {
			c, ok := stripParens(side.col).(*sqlparser.ColumnRef)
			if !ok || t.Schema.ColumnIndex(c.Column) < 0 {
				continue
			}
			// A qualified reference must name this table.
			if c.Table != "" && !strings.EqualFold(c.Table, name) {
				continue
			}
			if eq && !t.HasIndex(c.Column) || !eq && !t.HasOrderedIndex(c.Column) {
				continue
			}
			if !resolvesIn(side.other, outer) {
				continue
			}
			p := &accessPlan{column: c.Column, expr: side.other, op: side.op}
			if eq {
				return p
			}
			ranged = p
			break
		}
	}
	return ranged
}

// resolvesIn reports whether every column e references is bound in env.
func resolvesIn(e sqlparser.Expr, env Env) bool {
	for _, c := range sqlparser.ColumnsReferenced(e) {
		if !env.HasColumn(c) {
			return false
		}
	}
	return true
}

// candidates resolves a plan against the bound outer rows: the IDs of t's
// rows that can satisfy the planned conjunct, ascending — insertion order,
// what a scan yields — in a slice the caller owns. ok=false means scan: no
// plan, a probe value whose kind family cannot compare with the column's
// declared type (so the comparison error surfaces as the scan raises it), a
// NaN probe value, or an index that cannot answer exactly (a NaN is stored).
func (db *Database) candidates(p *accessPlan, t *mem.Table, outer Env) (ids []int64, ok bool, err error) {
	if p == nil {
		return nil, false, nil
	}
	v, err := Eval(p.expr, outer)
	if err != nil {
		return nil, false, err
	}
	if !probeCompatible(t.Schema, p.column, v) {
		return nil, false, nil
	}
	if p.op == sqlparser.OpEq {
		bucket, ok := t.IndexLookup(p.column, v)
		if !ok {
			return nil, false, nil
		}
		db.hashProbes.Add(1)
		// Hash buckets are unsorted and shared between concurrent readers.
		ids = slices.Clone(bucket)
		slices.Sort(ids)
		return ids, true, nil
	}
	// A NULL bound makes the comparison UNKNOWN for every row: no matches.
	if v.IsNull() {
		return nil, true, nil
	}
	min, max := mem.Value{}, mem.Value{}
	minIncl, maxIncl := false, false
	switch p.op {
	case sqlparser.OpLt:
		max = v
	case sqlparser.OpLtEq:
		max, maxIncl = v, true
	case sqlparser.OpGt:
		min = v
	case sqlparser.OpGtEq:
		min, minIncl = v, true
	}
	ids, ok = t.OrderedRange(p.column, min, max, minIncl, maxIncl)
	if !ok {
		return nil, false, nil
	}
	db.rangeProbes.Add(1)
	return ids, true, nil
}

// matchForWrite calls fn, in insertion order, for every row of t on which
// where is TRUE (every row when where is nil); env binds the row under the
// table's name. UPDATE and DELETE collect their targets through it before
// mutating anything. Candidates come from the chooser and are re-checked
// against the whole WHERE, so the cost is O(candidates) when a conjunct can
// be probed and O(table) otherwise.
func (db *Database) matchForWrite(t *mem.Table, where sqlparser.Expr, fn func(id int64, r mem.Row, env Env) error) error {
	env := Env{}.Bind(t.Schema.Table, t.Schema, nil)
	examined := int64(0)
	defer func() { db.writeRowsExamined.Add(examined) }()
	visit := func(id int64, r mem.Row) error {
		examined++
		env.rebind(r)
		if where != nil {
			if ok, err := isTrue(where, env); err != nil || !ok {
				return err
			}
		}
		return fn(id, r, env)
	}

	plan := planAccess(sqlparser.Conjuncts(where), t, t.Schema.Table, Env{})
	ids, probed, err := db.candidates(plan, t, Env{})
	if err != nil {
		return err
	}
	if probed {
		db.writeProbes.Add(1)
		for _, id := range ids {
			if r, ok := t.Get(id); ok {
				if err := visit(id, r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	db.writeScans.Add(1)
	var scanErr error
	t.Scan(func(id int64, r mem.Row) bool {
		scanErr = visit(id, r)
		return scanErr == nil
	})
	return scanErr
}

func isRangeOp(op sqlparser.BinaryOp) bool {
	switch op {
	case sqlparser.OpLt, sqlparser.OpLtEq, sqlparser.OpGt, sqlparser.OpGtEq:
		return true
	}
	return false
}

// mirrorOp flips a comparison so the column reads on the left:
// `expr < col` becomes `col > expr`.
func mirrorOp(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLtEq:
		return sqlparser.OpGtEq
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGtEq:
		return sqlparser.OpLtEq
	}
	return op
}

// probeCompatible reports whether an index probe with value v is equivalent
// to scanning the column: v's kind family must match the column's declared
// type (stored values are coerced to it, so same-family comparisons never
// error). NULL probes are compatible — both paths yield no matches. A
// mismatched family must take the scan so its comparison error surfaces.
func probeCompatible(sc *mem.Schema, column string, v mem.Value) bool {
	if v.IsNull() {
		return true
	}
	ci := sc.ColumnIndex(column)
	if ci < 0 {
		return false
	}
	if v.Kind == mem.KindFloat && math.IsNaN(v.F) {
		// mem.Compare treats NaN as equal to everything; only the scan can
		// honor that.
		return false
	}
	switch sc.Columns[ci].Type {
	case sqlparser.TypeInt, sqlparser.TypeFloat:
		return v.Kind == mem.KindInt || v.Kind == mem.KindFloat
	case sqlparser.TypeString:
		return v.Kind == mem.KindString
	case sqlparser.TypeBool:
		return v.Kind == mem.KindBool
	}
	return false
}
