package engine

import (
	"strings"

	"repro/internal/sqlparser"
)

// Auto-indexing gives the WHERE shapes the invalidator's prepared poll
// plans take — the same first-conjunct `col op $k` forms internal/predindex
// detects — an index to probe instead of a table scan, and gives UPDATE and
// DELETE templates of the same shape the same. When enabled
// (SetAutoIndex), the first execution of each interned query template
// analyzes its WHERE conjuncts: an equality against a constant side gets a
// hash index on the column, a range comparison gets an ordered index. The
// analysis runs once per query type (guarded by the template's atomic
// flag), so the poll hot path never re-derives it; index creation happens
// under the database write lock with a full backfill, exactly like CREATE
// INDEX.

// IndexStats snapshots the auto-indexing and probe counters.
type IndexStats struct {
	// AutoHash / AutoOrdered count indexes created by template analysis.
	AutoHash    int64
	AutoOrdered int64
	// HashProbes / RangeProbes count index probes that answered in place of
	// a scan (including the primary-key hash index): one per SELECT join
	// level per outer row, one per probed UPDATE or DELETE.
	HashProbes  int64
	RangeProbes int64
	// WriteProbes / WriteScans count UPDATE and DELETE statements by how
	// they found their rows: through an index probe, or by evaluating the
	// WHERE on every row of the table. WriteRowsExamined is the number of
	// rows those statements evaluated their WHERE on; a write path that
	// scales with rows changed keeps it near the rows affected.
	WriteProbes       int64
	WriteScans        int64
	WriteRowsExamined int64
}

// SetAutoIndex enables or disables automatic index creation from query
// templates. Off by default: the engine's explicit CREATE INDEX remains the
// only index source unless a deployment opts in (dbserver does, via
// -auto-index).
func (db *Database) SetAutoIndex(on bool) { db.autoIndex.Store(on) }

// AutoIndexEnabled reports whether template-driven index creation is on.
func (db *Database) AutoIndexEnabled() bool { return db.autoIndex.Load() }

// IndexStats returns the auto-indexing and probe counters.
func (db *Database) IndexStats() IndexStats {
	return IndexStats{
		AutoHash:    db.autoHash.Load(),
		AutoOrdered: db.autoOrdered.Load(),
		HashProbes:  db.hashProbes.Load(),
		RangeProbes: db.rangeProbes.Load(),

		WriteProbes:       db.writeProbes.Load(),
		WriteScans:        db.writeScans.Load(),
		WriteRowsExamined: db.writeRowsExamined.Load(),
	}
}

// maybeAutoIndex runs template analysis once per interned template when
// auto-indexing is on. The flag is checked before the CAS so templates
// interned while the feature is off are analyzed on their first execution
// after it turns on.
func (db *Database) maybeAutoIndex(tmpl *StmtTemplate) {
	if !db.autoIndex.Load() || !tmpl.indexed.CompareAndSwap(false, true) {
		return
	}
	db.ensureAutoIndexes(tmpl.Stmt)
}

// autoShape is one indexable conjunct: a column of a named table compared
// against a column-free expression (placeholder, literal, or arithmetic of
// those).
type autoShape struct {
	table  string // lower-cased actual table name
	column string
	eq     bool // true: hash index; false: ordered index
}

// ensureAutoIndexes analyzes a template's conjuncts — a SELECT's pushed-down
// WHERE and inner-join ON, an UPDATE's or DELETE's WHERE — and creates any
// missing indexes for the shapes the access-path chooser recognizes.
func (db *Database) ensureAutoIndexes(stmt sqlparser.Stmt) {
	var conj []sqlparser.Expr
	var refs []sqlparser.TableRef
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		conj = sqlparser.Conjuncts(s.Where)
		for _, j := range s.Joins {
			if j.Type == "INNER" && j.On != nil {
				conj = append(conj, sqlparser.Conjuncts(j.On)...)
			}
		}
		refs = s.Tables()
	case *sqlparser.UpdateStmt:
		conj, refs = sqlparser.Conjuncts(s.Where), []sqlparser.TableRef{{Name: s.Table}}
	case *sqlparser.DeleteStmt:
		conj, refs = sqlparser.Conjuncts(s.Where), []sqlparser.TableRef{{Name: s.Table}}
	}
	if len(conj) == 0 {
		return
	}

	db.mu.RLock()
	shapes := db.autoIndexShapes(conj, refs)
	var missing []autoShape
	for _, sh := range shapes {
		t := db.tables[sh.table]
		if t == nil {
			continue
		}
		if sh.eq && !t.HasIndex(sh.column) {
			missing = append(missing, sh)
		}
		if !sh.eq && !t.HasOrderedIndex(sh.column) {
			missing = append(missing, sh)
		}
	}
	db.mu.RUnlock()
	if len(missing) == 0 {
		return
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	for _, sh := range missing {
		t := db.tables[sh.table]
		if t == nil {
			continue
		}
		if sh.eq {
			if !t.HasIndex(sh.column) && t.CreateIndex(sh.column, false) == nil {
				db.autoHash.Add(1)
			}
		} else {
			if !t.HasOrderedIndex(sh.column) && t.CreateOrderedIndex(sh.column) == nil {
				db.autoOrdered.Add(1)
			}
		}
	}
}

// autoIndexShapes extracts, per FROM table, the first conjunct of the form
// `col op <column-free expr>` (either operand order) — the shape both the
// access-path chooser (access.go) and predindex's poll-plan analysis key on.
// Callers hold db.mu (read).
func (db *Database) autoIndexShapes(conj []sqlparser.Expr, refs []sqlparser.TableRef) []autoShape {
	var shapes []autoShape
	for _, ref := range refs {
		t := db.tables[strings.ToLower(ref.Name)]
		if t == nil {
			continue
		}
		for _, c := range conj {
			be, ok := stripParens(c).(*sqlparser.BinaryExpr)
			if !ok {
				continue
			}
			eq := false
			switch be.Op {
			case sqlparser.OpEq:
				eq = true
			case sqlparser.OpLt, sqlparser.OpLtEq, sqlparser.OpGt, sqlparser.OpGtEq:
			default:
				continue
			}
			var shape *autoShape
			for _, side := range [2]struct{ col, other sqlparser.Expr }{
				{be.Left, be.Right}, {be.Right, be.Left},
			} {
				cr, ok := stripParens(side.col).(*sqlparser.ColumnRef)
				if !ok {
					continue
				}
				if cr.Table != "" && !strings.EqualFold(cr.Table, ref.EffectiveName()) {
					continue
				}
				if t.Schema.ColumnIndex(cr.Column) < 0 {
					continue
				}
				if len(sqlparser.ColumnsReferenced(side.other)) != 0 {
					continue
				}
				shape = &autoShape{table: strings.ToLower(ref.Name), column: cr.Column, eq: eq}
				break
			}
			if shape != nil {
				shapes = append(shapes, *shape)
				break // first indexable conjunct per table, like predindex
			}
		}
	}
	return shapes
}
