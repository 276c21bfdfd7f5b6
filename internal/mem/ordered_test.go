package mem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sqlparser"
)

func orderedTestTable(t *testing.T, typ sqlparser.ColumnType) *Table {
	t.Helper()
	s, err := NewSchema("t", []Column{{Name: "v", Type: typ}})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(s)
	if err := tab.CreateOrderedIndex("v"); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestOrderedIndexBasicRanges(t *testing.T) {
	tab := orderedTestTable(t, sqlparser.TypeInt)
	for _, v := range []int64{5, 1, 9, 3, 7, 3} {
		if _, err := tab.Insert(Row{Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		min, max         Value
		minIncl, maxIncl bool
		want             []int64 // expected row values, insertion order
	}{
		{Null(), Int(5), false, false, []int64{1, 3, 3}},      // v < 5
		{Null(), Int(5), false, true, []int64{5, 1, 3, 3}},    // v <= 5
		{Int(3), Null(), false, false, []int64{5, 9, 7}},      // v > 3
		{Int(3), Null(), true, false, []int64{5, 9, 3, 7, 3}}, // v >= 3
		{Int(10), Null(), false, false, nil},                  // v > 10
	}
	for i, c := range cases {
		ids, ok := tab.OrderedRange("v", c.min, c.max, c.minIncl, c.maxIncl)
		if !ok {
			t.Fatalf("case %d: index declined", i)
		}
		var got []int64
		for _, id := range ids {
			r, _ := tab.Get(id)
			got = append(got, r[0].I)
		}
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestOrderedIndexNaNFallback(t *testing.T) {
	tab := orderedTestTable(t, sqlparser.TypeFloat)
	if _, err := tab.Insert(Row{Float(1.5)}); err != nil {
		t.Fatal(err)
	}
	nanID, err := tab.Insert(Row{Float(math.NaN())})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.OrderedRange("v", Null(), Float(2), false, false); ok {
		t.Fatal("index answered a range with a NaN stored — mem.Compare makes NaN match <=/>= anything, so it must decline")
	}
	tab.Delete([]int64{nanID})
	ids, ok := tab.OrderedRange("v", Null(), Float(2), false, false)
	if !ok || len(ids) != 1 {
		t.Fatalf("after NaN delete: ok=%v ids=%v", ok, ids)
	}
	// A NaN probe value is equally unanswerable.
	if _, ok := tab.OrderedRange("v", Float(math.NaN()), Null(), true, false); ok {
		t.Fatal("index answered a NaN-bounded range")
	}
}

// TestOrderedIndexRandomized drives the two-level structure through enough
// inserts, deletes, and replaces to force merges and compactions, checking
// every range answer against a naive scan using mem.Compare — the same
// semantics the query layer's scan path applies.
func TestOrderedIndexRandomized(t *testing.T) {
	for _, typ := range []sqlparser.ColumnType{sqlparser.TypeInt, sqlparser.TypeFloat, sqlparser.TypeString} {
		t.Run(typ.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			tab := orderedTestTable(t, typ)
			randVal := func() Value {
				switch typ {
				case sqlparser.TypeInt:
					return Int(int64(rng.Intn(200) - 100))
				case sqlparser.TypeFloat:
					return Float(float64(rng.Intn(400)-200) / 4)
				default:
					return Str(string(rune('a' + rng.Intn(26))))
				}
			}
			var live []int64
			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(10); {
				case r < 6 || len(live) == 0: // insert
					v := randVal()
					if rng.Intn(20) == 0 {
						v = Null()
					}
					id, err := tab.Insert(Row{v})
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case r < 8: // delete
					i := rng.Intn(len(live))
					tab.Delete([]int64{live[i]})
					live = append(live[:i], live[i+1:]...)
				default: // replace
					id := live[rng.Intn(len(live))]
					if err := tab.Replace(id, Row{randVal()}); err != nil {
						t.Fatal(err)
					}
				}
				if op%97 != 0 {
					continue
				}
				lo, hi := randVal(), randVal()
				if rng.Intn(4) == 0 {
					lo = Null()
				}
				if rng.Intn(4) == 0 {
					hi = Null()
				}
				minIncl, maxIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
				ids, ok := tab.OrderedRange("v", lo, hi, minIncl, maxIncl)
				if !ok {
					t.Fatalf("op %d: index declined with no NaN stored", op)
				}
				want := naiveRange(tab, lo, hi, minIncl, maxIncl)
				if len(ids) != len(want) {
					t.Fatalf("op %d: got %d ids, want %d (range %v..%v incl %v/%v)",
						op, len(ids), len(want), lo, hi, minIncl, maxIncl)
				}
				for i := range ids {
					if ids[i] != want[i] {
						t.Fatalf("op %d: ids %v != want %v", op, ids, want)
					}
				}
			}
		})
	}
}

// naiveRange is the reference: a full scan applying mem.Compare exactly as
// the query layer's predicate evaluation would.
func naiveRange(tab *Table, lo, hi Value, minIncl, maxIncl bool) []int64 {
	var out []int64
	tab.Scan(func(id int64, r Row) bool {
		v := r[0]
		if v.IsNull() {
			return true
		}
		if !lo.IsNull() {
			c, err := Compare(v, lo)
			if err != nil || c < 0 || (!minIncl && c == 0) {
				return true
			}
		}
		if !hi.IsNull() {
			c, err := Compare(v, hi)
			if err != nil || c > 0 || (!maxIncl && c == 0) {
				return true
			}
		}
		out = append(out, id)
		return true
	})
	return out
}
