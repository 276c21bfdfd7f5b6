package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sqlparser"
)

func carSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("Car", []Column{
		{Name: "id", Type: sqlparser.TypeInt, PrimaryKey: true, NotNull: true},
		{Name: "maker", Type: sqlparser.TypeString, NotNull: true},
		{Name: "price", Type: sqlparser.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestValueSQL(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Str("it's"), "'it''s'"},
		{Int(7), "7"},
		{Float(3), "3.0"},
		{Float(2.5), "2.5"},
		{Bool(true), "TRUE"},
		{Null(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.SQL(); got != c.want {
			t.Errorf("SQL() = %q, want %q", got, c.want)
		}
	}
}

func TestValueLiteralRoundtrip(t *testing.T) {
	vals := []Value{Null(), Int(-9), Float(1.25), Str("x"), Bool(false)}
	for _, v := range vals {
		back, err := FromLiteral(v.Literal())
		if err != nil {
			t.Fatalf("FromLiteral(%v.Literal()): %v", v, err)
		}
		if back != v {
			t.Errorf("roundtrip %v -> %v", v, back)
		}
	}
}

func TestFromLiteralNegative(t *testing.T) {
	e, err := sqlparser.ParseExpr("-(5)")
	if err != nil {
		t.Fatal(err)
	}
	// -(5) parses to UnaryExpr{-, Paren{5}} — not a plain literal.
	if _, err := FromLiteral(e); err == nil {
		t.Fatal("want error for non-literal")
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	c, err := Compare(Int(2), Float(2.0))
	if err != nil || c != 0 {
		t.Fatalf("Compare(2, 2.0) = %d, %v", c, err)
	}
	c, _ = Compare(Int(1), Float(1.5))
	if c != -1 {
		t.Fatalf("Compare(1, 1.5) = %d", c)
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(Int(1), Str("1")); err == nil {
		t.Fatal("want error comparing int to string")
	}
	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Fatal("want error comparing NULL")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Fatal("NULL = NULL must be false")
	}
	if Equal(Null(), Int(0)) {
		t.Fatal("NULL = 0 must be false")
	}
	if !Equal(Int(3), Float(3)) {
		t.Fatal("3 = 3.0 must be true")
	}
}

func TestKeyNumericUnification(t *testing.T) {
	if Int(5).Key() != Float(5).Key() {
		t.Fatal("5 and 5.0 must share an index key")
	}
	if Int(5).Key() == Str("5").Key() {
		t.Fatal("int 5 and string '5' must not collide")
	}
}

func TestCoerceTo(t *testing.T) {
	v, err := CoerceTo(Int(3), sqlparser.TypeFloat)
	if err != nil || v != Float(3) {
		t.Fatalf("int→float: %v, %v", v, err)
	}
	v, err = CoerceTo(Float(4.0), sqlparser.TypeInt)
	if err != nil || v != Int(4) {
		t.Fatalf("float→int: %v, %v", v, err)
	}
	if _, err := CoerceTo(Float(4.5), sqlparser.TypeInt); err == nil {
		t.Fatal("4.5→int must fail")
	}
	if _, err := CoerceTo(Str("x"), sqlparser.TypeInt); err == nil {
		t.Fatal("string→int must fail")
	}
	v, err = CoerceTo(Null(), sqlparser.TypeBool)
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL passthrough: %v, %v", v, err)
	}
}

func TestParseAs(t *testing.T) {
	v, err := ParseAs("42", sqlparser.TypeInt)
	if err != nil || v != Int(42) {
		t.Fatalf("%v %v", v, err)
	}
	v, _ = ParseAs("2.5", sqlparser.TypeFloat)
	if v != Float(2.5) {
		t.Fatalf("%v", v)
	}
	v, _ = ParseAs("NULL", sqlparser.TypeString)
	if !v.IsNull() {
		t.Fatalf("%v", v)
	}
	v, _ = ParseAs("true", sqlparser.TypeBool)
	if v != Bool(true) {
		t.Fatalf("%v", v)
	}
	if _, err := ParseAs("zzz", sqlparser.TypeInt); err == nil {
		t.Fatal("want parse error")
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a"}}); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := NewSchema("t", nil); err == nil {
		t.Fatal("no columns must fail")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}, {Name: "A"}}); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", PrimaryKey: true}, {Name: "b", PrimaryKey: true}}); err == nil {
		t.Fatal("two primary keys must fail")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := carSchema(t)
	if s.ColumnIndex("MAKER") != 1 {
		t.Fatal("case-insensitive lookup failed")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
	if s.PrimaryKey() != 0 {
		t.Fatal("pk should be column 0")
	}
	if got := s.ColumnNames(); !reflect.DeepEqual(got, []string{"id", "maker", "price"}) {
		t.Fatalf("names: %v", got)
	}
}

func TestTableInsertScan(t *testing.T) {
	tab := NewTable(carSchema(t))
	for i := 0; i < 5; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Str("m"), Float(float64(i) * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 5 {
		t.Fatalf("len = %d", tab.Len())
	}
	rows := tab.Rows()
	for i, r := range rows {
		if r[0] != Int(int64(i)) {
			t.Fatalf("row %d out of order: %v", i, r)
		}
	}
}

func TestTableInsertValidation(t *testing.T) {
	tab := NewTable(carSchema(t))
	if _, err := tab.Insert(Row{Int(1), Str("a")}); err == nil {
		t.Fatal("short row must fail")
	}
	if _, err := tab.Insert(Row{Int(1), Null(), Float(1)}); err == nil {
		t.Fatal("NULL in NOT NULL must fail")
	}
	if _, err := tab.Insert(Row{Str("x"), Str("a"), Float(1)}); err == nil {
		t.Fatal("type mismatch must fail")
	}
	// Int accepted in float column.
	if _, err := tab.Insert(Row{Int(1), Str("a"), Int(7)}); err != nil {
		t.Fatal(err)
	}
	r := tab.Rows()[0]
	if r[2] != Float(7) {
		t.Fatalf("coercion: %v", r[2])
	}
}

func TestTablePrimaryKeyUnique(t *testing.T) {
	tab := NewTable(carSchema(t))
	if _, err := tab.Insert(Row{Int(1), Str("a"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{Int(1), Str("b"), Float(2)}); err == nil {
		t.Fatal("duplicate pk must fail")
	}
}

func TestTableDelete(t *testing.T) {
	tab := NewTable(carSchema(t))
	var ids []int64
	for i := 0; i < 4; i++ {
		id, err := tab.Insert(Row{Int(int64(i)), Str("m"), Float(0)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	removed := tab.Delete([]int64{ids[1], ids[3], 999})
	if len(removed) != 2 {
		t.Fatalf("removed: %v", removed)
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	rows := tab.Rows()
	if rows[0][0] != Int(0) || rows[1][0] != Int(2) {
		t.Fatalf("survivors: %v", rows)
	}
	// pk index no longer holds deleted values.
	got, ok := tab.IndexLookup("id", Int(1))
	if !ok || len(got) != 0 {
		t.Fatalf("index still has deleted row: %v", got)
	}
	// reinsert previously deleted pk value now succeeds.
	if _, err := tab.Insert(Row{Int(1), Str("back"), Float(9)}); err != nil {
		t.Fatal(err)
	}
}

func TestTableReplace(t *testing.T) {
	tab := NewTable(carSchema(t))
	id, _ := tab.Insert(Row{Int(1), Str("a"), Float(1)})
	id2, _ := tab.Insert(Row{Int(2), Str("b"), Float(2)})
	nr, err := tab.ValidateRow(Row{Int(3), Str("a2"), Float(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Replace(id, nr); err != nil {
		t.Fatal(err)
	}
	got, _ := tab.Get(id)
	if got[0] != Int(3) {
		t.Fatalf("row after replace: %v", got)
	}
	// index moved
	if ids, _ := tab.IndexLookup("id", Int(1)); len(ids) != 0 {
		t.Fatal("old key still indexed")
	}
	if ids, _ := tab.IndexLookup("id", Int(3)); len(ids) != 1 {
		t.Fatal("new key not indexed")
	}
	// replacing to a duplicate pk fails
	dup, _ := tab.ValidateRow(Row{Int(2), Str("x"), Float(0)})
	if err := tab.Replace(id, dup); err == nil {
		t.Fatal("duplicate pk via replace must fail")
	}
	_ = id2
	if err := tab.Replace(12345, nr); err == nil {
		t.Fatal("replace of unknown id must fail")
	}
}

func TestCreateIndexBackfillAndUniqueViolation(t *testing.T) {
	tab := NewTable(carSchema(t))
	tab.Insert(Row{Int(1), Str("toyota"), Float(1)})
	tab.Insert(Row{Int(2), Str("honda"), Float(2)})
	tab.Insert(Row{Int(3), Str("toyota"), Float(3)})
	if err := tab.CreateIndex("maker", false); err != nil {
		t.Fatal(err)
	}
	ids, ok := tab.IndexLookup("maker", Str("toyota"))
	if !ok || len(ids) != 2 {
		t.Fatalf("lookup: %v %v", ids, ok)
	}
	if err := tab.CreateIndex("maker", false); err == nil {
		t.Fatal("duplicate index must fail")
	}
	if err := tab.CreateIndex("price", true); err != nil {
		t.Fatal(err) // prices unique so far
	}
	if err := tab.CreateIndex("nope", false); err == nil {
		t.Fatal("index on missing column must fail")
	}
	tab2 := NewTable(carSchema(t))
	tab2.Insert(Row{Int(1), Str("a"), Float(1)})
	tab2.Insert(Row{Int(2), Str("a"), Float(2)})
	if err := tab2.CreateIndex("maker", true); err == nil {
		t.Fatal("unique index over duplicates must fail")
	}
}

func TestIndexNullHandling(t *testing.T) {
	s, _ := NewSchema("t", []Column{
		{Name: "a", Type: sqlparser.TypeInt},
		{Name: "b", Type: sqlparser.TypeString},
	})
	tab := NewTable(s)
	if err := tab.CreateIndex("a", true); err != nil {
		t.Fatal(err)
	}
	// Multiple NULLs allowed under a unique index.
	if _, err := tab.Insert(Row{Null(), Str("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{Null(), Str("y")}); err != nil {
		t.Fatal(err)
	}
	ids, _ := tab.IndexLookup("a", Null())
	if len(ids) != 0 {
		t.Fatal("NULL lookup must return nothing")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tab := NewTable(carSchema(t))
	for i := 0; i < 10; i++ {
		tab.Insert(Row{Int(int64(i)), Str("m"), Float(0)})
	}
	n := 0
	tab.Scan(func(_ int64, _ Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scanned %d", n)
	}
}

func TestRowCloneAndKey(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0] != Int(1) {
		t.Fatal("clone aliases original")
	}
	if (Row{Int(1), Str("a")}).Key() != r.Key() {
		t.Fatal("equal rows must share keys")
	}
	if (Row{Int(1), Str("b")}).Key() == r.Key() {
		t.Fatal("different rows must differ")
	}
}

// Property: for random insert/delete sequences, every index lookup agrees
// with a full scan.
func TestQuickIndexMatchesScan(t *testing.T) {
	type op struct {
		insert bool
		val    int64
	}
	r := rand.New(rand.NewSource(7))
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			n := 1 + r.Intn(40)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{insert: r.Intn(3) > 0, val: int64(r.Intn(10))}
			}
			vals[0] = reflect.ValueOf(ops)
		},
	}
	prop := func(ops []op) bool {
		s, _ := NewSchema("t", []Column{{Name: "v", Type: sqlparser.TypeInt}})
		tab := NewTable(s)
		if err := tab.CreateIndex("v", false); err != nil {
			return false
		}
		for _, o := range ops {
			if o.insert {
				if _, err := tab.Insert(Row{Int(o.val)}); err != nil {
					return false
				}
			} else {
				// Delete all rows with value o.val, found by scan.
				var ids []int64
				tab.Scan(func(id int64, row Row) bool {
					if Equal(row[0], Int(o.val)) {
						ids = append(ids, id)
					}
					return true
				})
				tab.Delete(ids)
			}
		}
		// Compare index and scan for every value 0..9.
		for v := int64(0); v < 10; v++ {
			fromIdx, ok := tab.IndexLookup("v", Int(v))
			if !ok {
				return false
			}
			count := 0
			tab.Scan(func(_ int64, row Row) bool {
				if Equal(row[0], Int(v)) {
					count++
				}
				return true
			})
			if len(fromIdx) != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and transitive-ish on random numeric
// values, and Key equality coincides with Compare == 0.
func TestQuickCompareConsistency(t *testing.T) {
	prop := func(a, b int64, fa, fb float64) bool {
		va, vb := Int(a), Float(fb)
		_ = fa
		c1, err1 := Compare(va, vb)
		c2, err2 := Compare(vb, va)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 != -c2 {
			return false
		}
		if (c1 == 0) != (va.Key() == vb.Key()) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
