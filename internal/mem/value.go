// Package mem implements the in-memory storage layer of the reproduction's
// relational engine: typed values, schemas, tables with insertion-ordered
// rows, and hash indexes. It is the substrate standing in for the paper's
// Oracle 8i storage (see DESIGN.md §2); the query processor lives in
// internal/engine.
package mem

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
)

// Kind tags a Value.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String names the value kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Constructors.

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{Kind: KindBool, B: v} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for display and for wire encoding.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("<bad value kind %d>", v.Kind)
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.Kind {
	case KindString:
		return sqlparser.QuoteString(v.S)
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// Literal converts the value to the corresponding sqlparser literal
// expression; NULL becomes *sqlparser.NullLit.
func (v Value) Literal() sqlparser.Expr {
	switch v.Kind {
	case KindNull:
		return &sqlparser.NullLit{}
	case KindInt:
		return &sqlparser.IntLit{Value: v.I}
	case KindFloat:
		return &sqlparser.FloatLit{Value: v.F}
	case KindString:
		return &sqlparser.StringLit{Value: v.S}
	case KindBool:
		return &sqlparser.BoolLit{Value: v.B}
	default:
		return &sqlparser.NullLit{}
	}
}

// FromLiteral converts a literal expression to a Value. It returns an error
// for non-literal expressions.
func FromLiteral(e sqlparser.Expr) (Value, error) {
	switch x := e.(type) {
	case *sqlparser.IntLit:
		return Int(x.Value), nil
	case *sqlparser.FloatLit:
		return Float(x.Value), nil
	case *sqlparser.StringLit:
		return Str(x.Value), nil
	case *sqlparser.BoolLit:
		return Bool(x.Value), nil
	case *sqlparser.NullLit:
		return Null(), nil
	case *sqlparser.UnaryExpr:
		if x.Op == "-" {
			v, err := FromLiteral(x.X)
			if err != nil {
				return Null(), err
			}
			switch v.Kind {
			case KindInt:
				return Int(-v.I), nil
			case KindFloat:
				return Float(-v.F), nil
			}
		}
	}
	return Null(), fmt.Errorf("mem: expression %s is not a literal", e)
}

// Key returns a canonical encoding suitable as a hash-index or group-by key.
// Numerically equal ints and floats produce the same key.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "n"
	case KindInt:
		return "f" + strconv.FormatFloat(float64(v.I), 'g', -1, 64)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "s" + v.S
	case KindBool:
		if v.B {
			return "bt"
		}
		return "bf"
	default:
		return "?"
	}
}

// numeric returns the value as float64 when it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// Compare orders two non-NULL values, coercing between int and float.
// It returns an error for incomparable kinds. Callers must handle NULL
// before calling (SQL three-valued logic).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("mem: cannot compare NULL values")
	}
	if af, ok := a.numeric(); ok {
		if bf, ok := b.numeric(); ok {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S), nil
	}
	if a.Kind == KindBool && b.Kind == KindBool {
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("mem: cannot compare %s with %s", a.Kind, b.Kind)
}

// Equal reports whether two values are equal under SQL semantics, with NULL
// equal to nothing (including NULL). Use Key() equality for grouping, where
// NULLs group together.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// identical reports whether a and b are the same value down to the bits, so
// an index entry for one is an entry for the other. It is stricter than
// Equal and than ==: NULL is identical to NULL and a NaN to itself, 0.0 is
// not identical to -0.0 (their Keys differ).
func identical(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// CoerceTo converts v to column type t where a lossless or conventional
// conversion exists (int→float, float with integral value→int, string
// parsing is NOT attempted). NULL passes through.
func CoerceTo(v Value, t sqlparser.ColumnType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case sqlparser.TypeInt:
		switch v.Kind {
		case KindInt:
			return v, nil
		case KindFloat:
			if v.F == float64(int64(v.F)) {
				return Int(int64(v.F)), nil
			}
			return Null(), fmt.Errorf("mem: cannot store non-integral %g in INT column", v.F)
		}
	case sqlparser.TypeFloat:
		switch v.Kind {
		case KindFloat:
			return v, nil
		case KindInt:
			return Float(float64(v.I)), nil
		}
	case sqlparser.TypeString:
		if v.Kind == KindString {
			return v, nil
		}
	case sqlparser.TypeBool:
		if v.Kind == KindBool {
			return v, nil
		}
	}
	return Null(), fmt.Errorf("mem: cannot store %s value in %s column", v.Kind, t)
}

// ParseAs parses the string form produced by Value.String back into a value
// of the given column type; used by the wire protocol decoder.
func ParseAs(s string, t sqlparser.ColumnType) (Value, error) {
	if s == "NULL" {
		return Null(), nil
	}
	switch t {
	case sqlparser.TypeInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("mem: bad int %q: %v", s, err)
		}
		return Int(n), nil
	case sqlparser.TypeFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("mem: bad float %q: %v", s, err)
		}
		return Float(f), nil
	case sqlparser.TypeBool:
		switch s {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
		return Null(), fmt.Errorf("mem: bad bool %q", s)
	default:
		return Str(s), nil
	}
}
