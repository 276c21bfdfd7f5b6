// Package sqlparser implements a lexer, parser, AST, and printer for the SQL
// subset used throughout the CachePortal reproduction: CREATE TABLE / CREATE
// INDEX / DROP TABLE for DDL, SELECT (with joins, aggregation, ORDER BY and
// LIMIT), INSERT, UPDATE and DELETE for DML, plus positional ($1), anonymous
// (?) and named (:name) placeholders so that parameterized query types
// (section 2.3.2 of the paper) can be represented directly.
//
// The printer produces a canonical rendering of every AST node; parsing the
// printed form yields an equal AST, a property the package's quick tests
// verify. Canonical printing is what the invalidator uses to group query
// instances into query types.
package sqlparser

import "fmt"

// TokenKind classifies a lexical token.
type TokenKind int

// Token kinds. Keywords are folded into KindKeyword with the upper-cased
// keyword text in Token.Text; operators get their own kinds.
const (
	KindEOF TokenKind = iota
	KindIdent
	KindKeyword
	KindNumber
	KindString
	KindPlaceholder // $1, ?, :name
	KindLParen
	KindRParen
	KindComma
	KindDot
	KindSemicolon
	KindStar
	KindPlus
	KindMinus
	KindSlash
	KindPercent
	KindEq
	KindNotEq
	KindLt
	KindLtEq
	KindGt
	KindGtEq
	KindConcat // ||
)

// String names the token kind for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case KindEOF:
		return "EOF"
	case KindIdent:
		return "identifier"
	case KindKeyword:
		return "keyword"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindPlaceholder:
		return "placeholder"
	case KindLParen:
		return "("
	case KindRParen:
		return ")"
	case KindComma:
		return ","
	case KindDot:
		return "."
	case KindSemicolon:
		return ";"
	case KindStar:
		return "*"
	case KindPlus:
		return "+"
	case KindMinus:
		return "-"
	case KindSlash:
		return "/"
	case KindPercent:
		return "%"
	case KindEq:
		return "="
	case KindNotEq:
		return "<>"
	case KindLt:
		return "<"
	case KindLtEq:
		return "<="
	case KindGt:
		return ">"
	case KindGtEq:
		return ">="
	case KindConcat:
		return "||"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Pos is a byte offset plus 1-based line/column within the input.
type Pos struct {
	Offset int
	Line   int
	Column int
}

// String renders the position as line:column.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Column) }

// Token is a single lexical token.
type Token struct {
	Kind TokenKind
	// Text is the token's canonical text. For keywords it is upper-cased;
	// for identifiers the original case is preserved; for strings it is the
	// unquoted, unescaped value.
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case KindIdent, KindKeyword, KindNumber, KindPlaceholder:
		return t.Text
	case KindString:
		return "'" + t.Text + "'"
	default:
		return t.Kind.String()
	}
}

// keywords is the set of reserved words recognised by the lexer. Identifiers
// matching these (case-insensitively) lex as KindKeyword.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "DROP": true, "INDEX": true,
	"UNIQUE": true, "PRIMARY": true, "KEY": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true,
	"TRUE": true, "FALSE": true, "IN": true, "BETWEEN": true,
	"LIKE": true, "IS": true, "AS": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "CROSS": true,
	"INT": true, "INTEGER": true, "BIGINT": true, "FLOAT": true,
	"REAL": true, "DOUBLE": true, "TEXT": true, "VARCHAR": true,
	"CHAR": true, "BOOL": true, "BOOLEAN": true, "PRECISION": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"IF": true, "EXISTS": true, "DEFAULT": true,
}

// IsKeyword reports whether s (case-insensitively) is a reserved word. It
// upper-cases into a stack buffer, so the check allocates nothing.
func IsKeyword(s string) bool {
	var buf [16]byte // longer than every keyword
	if len(s) > len(buf) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(s)])]
}

// upper is an ASCII-only strings.ToUpper, sufficient for SQL keywords and
// cheaper than the Unicode-aware version on the hot lexing path.
func upper(s string) string {
	hasLower := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'a' <= c && c <= 'z' {
			hasLower = true
			break
		}
	}
	if !hasLower {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
