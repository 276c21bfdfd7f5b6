package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// projectAggregate handles SELECT with GROUP BY and/or aggregate functions.
func (db *Database) projectAggregate(s *sqlparser.SelectStmt, tuples []Env) (*Result, error) {
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("engine: * not allowed with aggregation")
		}
	}

	// Group tuples by the GROUP BY key values (empty GROUP BY = one group,
	// present even with zero input rows for plain aggregates).
	type group struct {
		keys   mem.Row
		tuples []Env
	}
	var order []string
	groups := map[string]*group{}
	for _, env := range tuples {
		var keys mem.Row
		for _, g := range s.GroupBy {
			v, err := Eval(g, env)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		k := keys.Key()
		gr, ok := groups[k]
		if !ok {
			gr = &group{keys: keys}
			groups[k] = gr
			order = append(order, k)
		}
		gr.tuples = append(gr.tuples, env)
	}
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	cols, err := db.outputColumns(s)
	if err != nil {
		return nil, err
	}

	type outRow struct {
		row  mem.Row
		sort mem.Row
	}
	var rows []outRow
	for _, k := range order {
		gr := groups[k]
		if s.Having != nil {
			v, err := evalAggExpr(s.Having, gr.tuples)
			if err != nil {
				return nil, err
			}
			tr, err := Truth(v)
			if err != nil {
				return nil, err
			}
			if tr != True {
				continue
			}
		}
		var row mem.Row
		for _, it := range s.Items {
			v, err := evalAggExpr(it.Expr, gr.tuples)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		or := outRow{row: row}
		for _, o := range s.OrderBy {
			v, err := evalAggOrderKey(o.Expr, gr.tuples, s, row, cols)
			if err != nil {
				return nil, err
			}
			or.sort = append(or.sort, v)
		}
		rows = append(rows, or)
	}

	if len(s.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			c, err := orderCmp(rows[i].sort, rows[j].sort, s.OrderBy)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	final := make([]mem.Row, len(rows))
	for i, r := range rows {
		final[i] = r.row
	}
	final, err = evalLimits(s).window(final, len(final))
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: final}, nil
}

func evalAggOrderKey(e sqlparser.Expr, tuples []Env, s *sqlparser.SelectStmt, projected mem.Row, cols []string) (mem.Value, error) {
	if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == "" {
		for i, name := range cols {
			if strings.EqualFold(name, c.Column) && i < len(projected) {
				return projected[i], nil
			}
		}
	}
	return evalAggExpr(e, tuples)
}

// evalAggExpr evaluates an expression in grouped context: aggregate calls
// fold over the group's tuples; other leaves evaluate against the group's
// first tuple (valid for GROUP BY keys; non-grouped bare columns take their
// first-row value, the permissive behaviour of many engines).
func evalAggExpr(e sqlparser.Expr, tuples []Env) (mem.Value, error) {
	switch x := e.(type) {
	case *sqlparser.FuncExpr:
		if x.IsAggregate() {
			return evalAggregate(x, tuples)
		}
		// Scalar function over grouped context: arguments may themselves
		// contain aggregates, so evaluate them in grouped context too.
		args := make([]mem.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalAggExpr(a, tuples)
			if err != nil {
				return mem.Null(), err
			}
			args[i] = v
		}
		return applyScalarFunc(x.Name, args)
	case *sqlparser.BinaryExpr:
		l, err := evalAggExpr(x.Left, tuples)
		if err != nil {
			return mem.Null(), err
		}
		r, err := evalAggExpr(x.Right, tuples)
		if err != nil {
			return mem.Null(), err
		}
		return evalBinaryValues(x.Op, l, r)
	case *sqlparser.ParenExpr:
		return evalAggExpr(x.X, tuples)
	case *sqlparser.UnaryExpr:
		v, err := evalAggExpr(x.X, tuples)
		if err != nil {
			return mem.Null(), err
		}
		return applyUnary(x.Op, v)
	default:
		if len(tuples) == 0 {
			return mem.Null(), nil
		}
		return Eval(e, tuples[0])
	}
}

// evalBinaryValues applies a binary operator to two already-computed values.
func evalBinaryValues(op sqlparser.BinaryOp, l, r mem.Value) (mem.Value, error) {
	if op == sqlparser.OpAnd || op == sqlparser.OpOr {
		lt, err := Truth(l)
		if err != nil {
			return mem.Null(), err
		}
		rt, err := Truth(r)
		if err != nil {
			return mem.Null(), err
		}
		if op == sqlparser.OpAnd {
			return triValue(min3(lt, rt)), nil
		}
		return triValue(max3(lt, rt)), nil
	}
	if op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return mem.Null(), nil
		}
		c, err := mem.Compare(l, r)
		if err != nil {
			return mem.Null(), fmt.Errorf("engine: %w", err)
		}
		var b bool
		switch op {
		case sqlparser.OpEq:
			b = c == 0
		case sqlparser.OpNotEq:
			b = c != 0
		case sqlparser.OpLt:
			b = c < 0
		case sqlparser.OpLtEq:
			b = c <= 0
		case sqlparser.OpGt:
			b = c > 0
		case sqlparser.OpGtEq:
			b = c >= 0
		}
		return mem.Bool(b), nil
	}
	return evalArith(op, l, r)
}

func applyUnary(op string, v mem.Value) (mem.Value, error) {
	switch op {
	case "NOT":
		t, err := Truth(v)
		if err != nil {
			return mem.Null(), err
		}
		return triValue(2 - t), nil
	case "-":
		switch v.Kind {
		case mem.KindNull:
			return mem.Null(), nil
		case mem.KindInt:
			return mem.Int(-v.I), nil
		case mem.KindFloat:
			return mem.Float(-v.F), nil
		}
	}
	return mem.Null(), fmt.Errorf("engine: bad unary %q", op)
}

// evalAggregate folds one aggregate call over the group.
func evalAggregate(f *sqlparser.FuncExpr, tuples []Env) (mem.Value, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return mem.Null(), fmt.Errorf("engine: %s(*) is not valid", f.Name)
		}
		return mem.Int(int64(len(tuples))), nil
	}
	if len(f.Args) != 1 {
		return mem.Null(), fmt.Errorf("engine: %s takes exactly one argument", f.Name)
	}
	arg := f.Args[0]

	var vals []mem.Value
	seen := map[string]bool{}
	for _, env := range tuples {
		v, err := Eval(arg, env)
		if err != nil {
			return mem.Null(), err
		}
		if v.IsNull() {
			continue // SQL aggregates skip NULLs
		}
		if f.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}

	switch f.Name {
	case "COUNT":
		return mem.Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return mem.Null(), nil
		}
		allInt := true
		sum := 0.0
		var isum int64
		for _, v := range vals {
			switch v.Kind {
			case mem.KindInt:
				isum += v.I
				sum += float64(v.I)
			case mem.KindFloat:
				allInt = false
				sum += v.F
			default:
				return mem.Null(), fmt.Errorf("engine: %s over non-numeric value %s", f.Name, v.Kind)
			}
		}
		if f.Name == "SUM" {
			if allInt {
				return mem.Int(isum), nil
			}
			return mem.Float(sum), nil
		}
		return mem.Float(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return mem.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := mem.Compare(v, best)
			if err != nil {
				return mem.Null(), fmt.Errorf("engine: %s: %w", f.Name, err)
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return mem.Null(), fmt.Errorf("engine: unknown aggregate %s", f.Name)
	}
}
