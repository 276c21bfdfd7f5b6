package sqlparser

import (
	"strconv"
	"strings"
)

// String renders the canonical SQL for each node type. Canonical means:
// upper-case keywords, single spaces, identifiers as written (quoted only
// when they would not lex back as themselves, see quoteIdent), strings
// single-quoted with '' escaping. Parse(String(x)) yields an AST equal to x
// (modulo placeholder ordinals, which are re-assigned positionally — the
// printer emits placeholders in their original spelling, so ordinals are
// preserved for statements whose placeholders were in lexical order, which
// the parser guarantees).

// quoteIdent renders a name so that it lexes back as that identifier: as
// written when it can, otherwise double-quoted with "" escaping — an empty
// name, a keyword, or one with a character an unquoted identifier cannot
// hold. Ordinary names print unchanged, so their fingerprints do too.
func quoteIdent(name string) string {
	if name != "" && isIdentStart(name[0]) && !IsKeyword(name) {
		bare := true
		for i := 1; i < len(name) && bare; i++ {
			bare = isIdentPart(name[i])
		}
		if bare {
			return name
		}
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Column)
	}
	return quoteIdent(c.Column)
}

func (l *IntLit) String() string { return strconv.FormatInt(l.Value, 10) }

func (l *FloatLit) String() string {
	s := strconv.FormatFloat(l.Value, 'g', -1, 64)
	// Ensure a float literal re-parses as a float, not an int.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	// strconv renders +Inf etc.; those never appear from the parser but keep
	// output lossless for programmatically built ASTs.
	return s
}

// QuoteString renders s as a SQL string literal.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func (l *StringLit) String() string { return QuoteString(l.Value) }

func (l *BoolLit) String() string {
	if l.Value {
		return "TRUE"
	}
	return "FALSE"
}

func (*NullLit) String() string { return "NULL" }

func (p *Placeholder) String() string { return p.Name }

// needsParens reports whether child must be parenthesised when printed as an
// operand of parent. The printer relies on explicit ParenExpr nodes for
// round-tripping; this handles programmatically built ASTs where nesting
// violates precedence.
func needsParens(parentOp BinaryOp, child Expr, right bool) bool {
	b, ok := child.(*BinaryExpr)
	if !ok {
		return false
	}
	pp := precOf(parentOp)
	cp := precOf(b.Op)
	if cp < pp {
		return true
	}
	if cp == pp && right {
		// Left-associative operators: parenthesise right-nested same level.
		return true
	}
	return false
}

func precOf(op BinaryOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNotEq, OpLt, OpLtEq, OpGt, OpGtEq:
		return 3
	case OpAdd, OpSub, OpConcat:
		return 4
	case OpMul, OpDiv, OpMod:
		return 5
	default:
		return 6
	}
}

func operand(parentOp BinaryOp, e Expr, right bool) string {
	if needsParens(parentOp, e, right) {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (b *BinaryExpr) String() string {
	return operand(b.Op, b.Left, false) + " " + b.Op.String() + " " + operand(b.Op, b.Right, true)
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		if _, ok := u.X.(*BinaryExpr); ok {
			return "NOT (" + u.X.String() + ")"
		}
		return "NOT " + u.X.String()
	}
	return u.Op + u.X.String()
}

func (p *ParenExpr) String() string { return "(" + p.X.String() + ")" }

func (i *InExpr) String() string {
	var b strings.Builder
	b.WriteString(i.X.String())
	if i.Not {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for k, e := range i.List {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString(")")
	return b.String()
}

func (x *BetweenExpr) String() string {
	not := ""
	if x.Not {
		not = "NOT "
	}
	return x.X.String() + " " + not + "BETWEEN " + x.Lo.String() + " AND " + x.Hi.String()
}

func (l *LikeExpr) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return l.X.String() + " " + not + "LIKE " + l.Pattern.String()
}

func (n *IsNullExpr) String() string {
	if n.Not {
		return n.X.String() + " IS NOT NULL"
	}
	return n.X.String() + " IS NULL"
}

func (f *FuncExpr) String() string {
	var b strings.Builder
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		b.WriteString(f.Name) // keyword calls
	default:
		b.WriteString(quoteIdent(f.Name))
	}
	b.WriteString("(")
	if f.Star {
		b.WriteString("*")
	} else {
		if f.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range f.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	b.WriteString(")")
	return b.String()
}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			b.WriteString(quoteIdent(it.StarTable) + ".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + quoteIdent(it.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.String())
		}
	}
	for _, j := range s.Joins {
		switch j.Type {
		case "CROSS":
			b.WriteString(" CROSS JOIN " + j.Table.String())
		case "LEFT":
			b.WriteString(" LEFT JOIN " + j.Table.String() + " ON " + j.On.String())
		default:
			b.WriteString(" JOIN " + j.Table.String() + " ON " + j.On.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT " + s.Limit.String())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET " + s.Offset.String())
	}
	return b.String()
}

// String renders "name" or "name AS alias".
func (t TableRef) String() string {
	if t.Alias != "" {
		return quoteIdent(t.Name) + " AS " + quoteIdent(t.Alias)
	}
	return quoteIdent(t.Name)
}

func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + quoteIdent(s.Table))
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteIdent(c))
		}
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + quoteIdent(s.Table) + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(a.Column) + " = " + a.Value.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	return b.String()
}

func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + quoteIdent(s.Table)
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

func (s *CreateTableStmt) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	b.WriteString(quoteIdent(s.Table) + " (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(c.Name) + " " + c.Type.String())
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		} else if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteString(")")
	return b.String()
}

func (s *DropTableStmt) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + quoteIdent(s.Table)
	}
	return "DROP TABLE " + quoteIdent(s.Table)
}

func (s *CreateIndexStmt) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	return "CREATE " + u + "INDEX " + quoteIdent(s.Name) + " ON " + quoteIdent(s.Table) + " (" + quoteIdent(s.Column) + ")"
}
