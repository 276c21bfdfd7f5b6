package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// execSelect runs a SELECT. The pipeline is:
//
//	join enumeration (nested loops with predicate pushdown and hash-index
//	point lookups) → WHERE residue → one sink per joined tuple.
//
// Without aggregates the sink is topN: DISTINCT, then ORDER BY … LIMIT as a
// bounded heap, so a tuple that cannot reach the OFFSET/LIMIT window is
// never copied or projected. With GROUP BY or aggregates the tuples are
// collected for projectAggregate (grouping → HAVING → projection → ORDER BY
// → LIMIT/OFFSET).
//
// Callers hold db.mu (read).
func (db *Database) execSelect(s *sqlparser.SelectStmt) (*Result, error) {
	if len(s.GroupBy) > 0 || hasAggregate(s) {
		var tuples []Env
		err := db.joinTuples(s, nil, func(env Env) error {
			tuples = append(tuples, Env{bindings: slices.Clone(env.bindings)})
			return nil
		})
		if err != nil {
			return nil, err
		}
		return db.projectAggregate(s, tuples)
	}
	top, err := db.newTopN(s)
	if err != nil {
		return nil, err
	}
	// DISTINCT keeps a duplicate's first arrival, which a skipped outer row
	// could hold, so its join is never cut.
	var cutoff func() (mem.Row, bool)
	if !s.Distinct {
		cutoff = top.cutoff
	}
	if err := db.joinTuples(s, cutoff, top.add); err != nil {
		return nil, err
	}
	return top.result()
}

// joinTuples enumerates the joined tuples of s's FROM clause that pass its
// WHERE, in nested-loop order, and hands each to emit. The Env passed to
// emit is one scratch binding set rebound in place for every tuple: emit
// must copy what it keeps.
//
// A non-nil cutoff reports the ORDER BY key a tuple must sort before to
// still enter emit's window, once there is one. A join then skips each
// outer row whose leading ORDER BY keys already sort after the cutoff's:
// every tuple it would yield would too. Arrival order is unchanged.
func (db *Database) joinTuples(s *sqlparser.SelectStmt, cutoff func() (mem.Row, bool), emit func(Env) error) error {
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
			return fmt.Errorf("engine: no table %s", ref.Name)
		}
		sources = append(sources, source{ref: ref, table: t})
	}
	for _, j := range s.Joins {
		t := db.tables[strings.ToLower(j.Table.Name)]
		if t == nil {
			return fmt.Errorf("engine: no table %s", j.Table.Name)
		}
		sources = append(sources, source{ref: j.Table, table: t, joinType: j.Type, on: j.On})
	}

	// No FROM: evaluate the select list once against the empty env; a WHERE
	// clause (necessarily constant) gates the single tuple.
	if len(sources) == 0 {
		if s.Where != nil {
			ok, err := isTrue(s.Where, Env{})
			if err != nil || !ok {
				return err
			}
		}
		return emit(Env{})
	}

	// Duplicate effective names are ambiguous.
	seen := map[string]bool{}
	for _, src := range sources {
		n := strings.ToLower(src.ref.EffectiveName())
		if seen[n] {
			return fmt.Errorf("engine: duplicate table name %s in FROM", src.ref.EffectiveName())
		}
		seen[n] = true
	}

	// bind holds one binding per level; level lvl evaluates under its first
	// lvl+1 entries and rebinds entry lvl for every row it visits, so the
	// enumeration allocates no Env per tuple.
	bind := make([]binding, len(sources))
	for i, src := range sources {
		bind[i] = binding{name: strings.ToLower(src.ref.EffectiveName()), schema: src.table.Schema}
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
			for i := range sources {
				if (Env{bindings: bind[i : i+1]}).HasColumn(c) {
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
	for lvl, src := range sources {
		if src.joinType != "LEFT" {
			plans[lvl] = planAccess(predsAt[lvl], src.table, src.ref.EffectiveName(), Env{bindings: bind[:lvl]})
		}
	}

	// The cut needs an inner level (on one table the heap alone does the
	// work) and a prefix of ORDER BY keys that are qualified columns of the
	// outer table. past reports whether the outer row bound in env sorts
	// after the worst kept key on that prefix: then so does every tuple it
	// yields, now and later, since the worst kept key only moves earlier.
	var items []sqlparser.OrderItem
	if cutoff != nil && len(sources) > 1 {
		n := 0
		for _, o := range s.OrderBy {
			if c, ok := o.Expr.(*sqlparser.ColumnRef); !ok || c.Table == "" || levelOf(c) != 0 {
				break
			}
			n++
		}
		items = s.OrderBy[:n]
	}
	key := make(mem.Row, len(items))
	past := func(env Env) bool {
		if len(items) == 0 {
			return false
		}
		worst, ok := cutoff()
		if !ok {
			return false
		}
		for j, o := range items {
			v, err := Eval(o.Expr, env)
			if err != nil {
				return false
			}
			key[j] = v
		}
		c, err := orderCmp(key, worst, items)
		return err == nil && c > 0
	}

	// Recursive nested-loop join over the scratch bindings.
	var enumerate func(lvl int) error
	enumerate = func(lvl int) error {
		if lvl == len(sources) {
			return emit(Env{bindings: bind})
		}
		src := sources[lvl]
		env := Env{bindings: bind[:lvl+1]}

		if src.joinType == "LEFT" {
			// LEFT JOIN: ON evaluated per probe row; WHERE conjuncts pinned
			// to this level still apply after null-extension.
			matched := false
			var innerErr error
			src.table.Scan(func(_ int64, r mem.Row) bool {
				env.rebind(r)
				ok := true
				if src.on != nil {
					ok, innerErr = isTrue(src.on, env)
				}
				if ok && innerErr == nil {
					ok, innerErr = allTrue(predsAt[lvl], env)
				}
				if ok && innerErr == nil {
					matched = true
					innerErr = enumerate(lvl + 1)
				}
				return innerErr == nil
			})
			if innerErr != nil || matched {
				return innerErr
			}
			env.rebind(make(mem.Row, len(src.table.Schema.Columns)))
			ok, err := allTrue(predsAt[lvl], env)
			if err != nil || !ok {
				return err
			}
			return enumerate(lvl + 1)
		}

		visit := func(r mem.Row) error {
			env.rebind(r)
			if lvl == 0 && past(env) {
				return nil
			}
			ok, err := allTrue(predsAt[lvl], env)
			if err != nil || !ok {
				return err
			}
			return enumerate(lvl + 1)
		}

		// Probed candidates arrive in insertion order, what the scan yields,
		// and still run through every predicate of the level.
		ids, probed, err := db.candidates(plans[lvl], src.table, Env{bindings: bind[:lvl]})
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
	return enumerate(0)
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

// topN is execSelect's sink for a SELECT without aggregates. It keeps only
// the rows the OFFSET/LIMIT window can reach: a max-heap of at most bound
// rows ordered by (ORDER BY key, arrival), so its root is the kept row that
// would come last and ties fall in arrival order, as a stable sort leaves
// them. A tuple's ORDER BY key is evaluated into a reused row; only a tuple
// that enters the heap is projected and copied, unless DISTINCT or a key
// naming an output column needs every tuple projected first.
type topN struct {
	s       *sqlparser.SelectStmt
	cols    []string
	keyCols []int // per ORDER BY key: the output column it names, or -1
	project bool  // project every tuple before its key
	lim     limits
	bound   int
	seen    map[string]bool // DISTINCT: rows offered so far
	rows    []topRow        // the heap, rows[0] ranking last
	key     mem.Row         // scratch ORDER BY values
	row     mem.Row         // scratch projection
	n       int             // tuples offered after DISTINCT; the next arrival number
	err     error           // first ORDER BY comparison error
}

type topRow struct {
	row mem.Row
	key mem.Row
	seq int
}

func (db *Database) newTopN(s *sqlparser.SelectStmt) (*topN, error) {
	cols, err := db.outputColumns(s)
	if err != nil {
		return nil, err
	}
	t := &topN{s: s, cols: cols, lim: evalLimits(s), project: s.Distinct}
	t.bound = t.lim.bound()
	if s.Distinct {
		t.seen = map[string]bool{}
	}
	// An unqualified ORDER BY column that names an output column (an alias,
	// or a projected column's name) sorts by the projected value.
	t.keyCols = make([]int, len(s.OrderBy))
	for i, o := range s.OrderBy {
		t.keyCols[i] = -1
		if c, ok := o.Expr.(*sqlparser.ColumnRef); ok && c.Table == "" {
			for j, name := range cols {
				if strings.EqualFold(name, c.Column) {
					t.keyCols[i] = j
					t.project = true
					break
				}
			}
		}
	}
	t.key = make(mem.Row, 0, len(s.OrderBy))
	t.row = make(mem.Row, 0, len(cols))
	return t, nil
}

// add offers one joined tuple. The first tuple is always projected, so a
// select list that cannot be evaluated fails the statement whatever its
// LIMIT.
func (t *topN) add(env Env) error {
	var err error
	projected := t.project || t.n == 0
	if projected {
		if t.row, err = projectInto(t.row[:0], t.s, env); err != nil {
			return err
		}
		if t.seen != nil {
			k := t.row.Key()
			if t.seen[k] {
				return nil
			}
			t.seen[k] = true
		}
	}
	t.key = t.key[:0]
	for i, o := range t.s.OrderBy {
		v := mem.Null()
		if c := t.keyCols[i]; c >= 0 && c < len(t.row) {
			v = t.row[c]
		} else if v, err = Eval(o.Expr, env); err != nil {
			return err
		}
		t.key = append(t.key, v)
	}
	seq := t.n
	t.n++

	// Below the bound every row is kept; at it, a row is kept only if it
	// ranks before the root (a row with an equal key arrived later and ranks
	// after), and it takes over the evicted root's slices.
	i := len(t.rows)
	switch {
	case i < t.bound:
		t.rows = append(t.rows, topRow{})
	case i > 0 && len(t.s.OrderBy) > 0 && t.cmp(t.key, t.rows[0].key) < 0:
		i = 0
	default:
		return nil
	}
	slot := &t.rows[i]
	if slot.row == nil {
		// One array per kept row: the projection, then its key.
		buf := make(mem.Row, len(t.cols)+len(t.key))
		slot.row, slot.key = buf[:0:len(t.cols)], buf[len(t.cols):len(t.cols)]
	}
	slot.seq = seq
	slot.key = append(slot.key[:0], t.key...)
	if projected {
		slot.row = append(slot.row[:0], t.row...)
	} else if slot.row, err = projectInto(slot.row[:0], t.s, env); err != nil {
		return err
	}
	// Without a LIMIT nothing is evicted, and result sorts once; without
	// ORDER BY arrival order is the result order.
	if len(t.s.OrderBy) > 0 && t.bound < math.MaxInt {
		if i == 0 {
			t.down(0)
		} else {
			t.up(i)
		}
	}
	return nil
}

// cutoff returns the ORDER BY key of the kept row that ranks last, once the
// heap holds every row the window can reach: a later tuple enters only if
// its key sorts before it. It reports false without ORDER BY, without a
// positive LIMIT (then the window may need the tuple count past OFFSET), on
// an invalid OFFSET or LIMIT, and after a comparison error.
func (t *topN) cutoff() (mem.Row, bool) {
	if len(t.s.OrderBy) == 0 || t.lim.lim <= 0 || t.lim.offErr != nil || t.err != nil || len(t.rows) < t.bound {
		return nil, false
	}
	return t.rows[0].key, true
}

// cmp compares two ORDER BY key rows, recording the first comparison error.
func (t *topN) cmp(a, b mem.Row) int {
	c, err := orderCmp(a, b, t.s.OrderBy)
	if err != nil && t.err == nil {
		t.err = err
	}
	return c
}

// Len, Less and Swap sort the kept rows into result order.
func (t *topN) Len() int { return len(t.rows) }
func (t *topN) Less(i, j int) bool {
	a, b := &t.rows[i], &t.rows[j]
	if c := t.cmp(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}
func (t *topN) Swap(i, j int) { t.rows[i], t.rows[j] = t.rows[j], t.rows[i] }

// up and down restore the max-heap after rows[i] changed: no row ranks
// after its parent.
func (t *topN) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.Less(p, i) {
			return
		}
		t.Swap(p, i)
		i = p
	}
}

func (t *topN) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.rows) {
			return
		}
		if r := c + 1; r < len(t.rows) && t.Less(c, r) {
			c = r
		}
		if !t.Less(i, c) {
			return
		}
		t.Swap(i, c)
		i = c
	}
}

// result orders the kept rows and cuts the OFFSET/LIMIT window.
func (t *topN) result() (*Result, error) {
	if len(t.s.OrderBy) > 0 {
		sort.Sort(t)
	}
	if t.err != nil {
		return nil, t.err
	}
	var rows []mem.Row
	if len(t.rows) > 0 {
		rows = make([]mem.Row, len(t.rows))
		for i := range t.rows {
			rows[i] = t.rows[i].row
		}
	}
	rows, err := t.lim.window(rows, t.n)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: t.cols, Rows: rows}, nil
}

// outputColumns computes the result column names. Star expansion uses the
// FROM tables' schemas in order.
func (db *Database) outputColumns(s *sqlparser.SelectStmt) ([]string, error) {
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

// projectInto appends the select list evaluated for one joined tuple to row
// and returns it.
func projectInto(row mem.Row, s *sqlparser.SelectStmt, env Env) (mem.Row, error) {
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

// orderCmp compares two ORDER BY key tuples: negative when a sorts first,
// positive when b does, 0 when they tie. NULLs sort first ascending.
func orderCmp(a, b mem.Row, keys []sqlparser.OrderItem) (int, error) {
	for i := range keys {
		av, bv := a[i], b[i]
		if av.IsNull() && bv.IsNull() {
			continue
		}
		c := 0
		switch {
		case av.IsNull():
			c = -1
		case bv.IsNull():
			c = 1
		default:
			var err error
			if c, err = mem.Compare(av, bv); err != nil {
				return 0, fmt.Errorf("engine: ORDER BY: %w", err)
			}
		}
		if c == 0 {
			continue
		}
		if keys[i].Desc {
			return -c, nil
		}
		return c, nil
	}
	return 0, nil
}

// limits are a statement's OFFSET and LIMIT, evaluated once. lim < 0 means
// no LIMIT. An invalid clause is kept as its error: window reports it.
type limits struct {
	off, lim       int
	offErr, limErr error
}

func evalLimits(s *sqlparser.SelectStmt) limits {
	l := limits{lim: -1}
	if s.Offset != nil {
		v, err := Eval(s.Offset, Env{})
		if err != nil || v.Kind != mem.KindInt || v.I < 0 {
			l.offErr = fmt.Errorf("engine: OFFSET must be a non-negative integer")
		} else {
			l.off = int(v.I)
		}
	}
	if s.Limit != nil {
		v, err := Eval(s.Limit, Env{})
		if err != nil || v.Kind != mem.KindInt || v.I < 0 {
			l.limErr = fmt.Errorf("engine: LIMIT must be a non-negative integer")
		} else {
			l.lim = int(v.I)
		}
	}
	return l
}

// bound is how many leading rows of the ordered result the window can reach:
// OFFSET+LIMIT, every row without a LIMIT, none when a clause is invalid
// (the statement then fails or returns nothing).
func (l limits) bound() int {
	switch {
	case l.offErr != nil || l.limErr != nil:
		return 0
	case l.lim < 0 || l.lim > math.MaxInt-l.off:
		return math.MaxInt
	}
	return l.off + l.lim
}

// window cuts the ordered result to [OFFSET, OFFSET+LIMIT). rows holds its
// first min(total, bound()) rows out of total. OFFSET is checked first, and
// an OFFSET at or past the end returns no rows without looking at LIMIT.
func (l limits) window(rows []mem.Row, total int) ([]mem.Row, error) {
	if l.offErr != nil {
		return nil, l.offErr
	}
	if l.off >= total {
		return nil, nil
	}
	if l.limErr != nil {
		return nil, l.limErr
	}
	rows = rows[l.off:]
	if l.lim >= 0 && l.lim < len(rows) {
		rows = rows[:l.lim]
	}
	return rows, nil
}
