package mem

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sqlparser"
)

// churnModel is the table as a plain list: the oracle of
// TestTableChurnKeepsOrderAndIndexes. Deleting from it is the pass over every
// row that Table.Delete used to be.
type churnModel struct {
	ids  []int64
	rows []Row
}

func (m *churnModel) delete(ids []int64) {
	keptIDs, keptRows := m.ids[:0], m.rows[:0]
	for i, id := range m.ids {
		if !slices.Contains(ids, id) {
			keptIDs, keptRows = append(keptIDs, id), append(keptRows, m.rows[i])
		}
	}
	m.ids, m.rows = keptIDs, keptRows
}

// check compares scan order, Len, every hash bucket and every ordered range
// with what the model's rows say.
func (m *churnModel) check(t *testing.T, tab *Table, when string) {
	t.Helper()
	var gotIDs []int64
	var gotRows []Row
	tab.Scan(func(id int64, r Row) bool {
		gotIDs, gotRows = append(gotIDs, id), append(gotRows, r)
		return true
	})
	if !slices.Equal(gotIDs, m.ids) || !slices.EqualFunc(gotRows, m.rows, func(a, b Row) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s: scan yields ids %v, want %v", when, gotIDs, m.ids)
	}
	if tab.Len() != len(m.ids) || len(tab.Rows()) != len(m.ids) {
		t.Fatalf("%s: Len %d, Rows %d, want %d", when, tab.Len(), len(tab.Rows()), len(m.ids))
	}
	if len(tab.rowIDs) > 2*len(m.ids)+1 {
		t.Fatalf("%s: %d row slots for %d live rows: tombstones are not dropped", when, len(tab.rowIDs), len(m.ids))
	}
	for col, name := range []string{"id", "cat", "price"} {
		for probe := int64(-1); probe < 12; probe++ {
			v := Value(Int(probe))
			if name == "price" {
				v = Float(float64(probe) / 2)
			}
			var want []int64
			for i, r := range m.rows {
				if Equal(r[col], v) {
					want = append(want, m.ids[i])
				}
			}
			got, ok := tab.IndexLookup(name, v)
			if !ok {
				t.Fatalf("%s: no hash index on %s", when, name)
			}
			got = slices.Clone(got)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: hash index %s = %v holds %v, rows say %v", when, name, v, got, want)
			}
			if name != "price" {
				continue
			}
			want = want[:0]
			for i, r := range m.rows {
				if !r[col].IsNull() && r[col].F < v.F {
					want = append(want, m.ids[i])
				}
			}
			got, ok = tab.OrderedRange(name, Null(), v, false, false)
			if !ok || !slices.Equal(got, want) {
				t.Fatalf("%s: ordered index price < %v holds %v (ok=%v), rows say %v", when, v, got, ok, want)
			}
		}
	}
}

// TestTableChurnKeepsOrderAndIndexes interleaves Insert, Delete and Replace —
// single rows, batches, everything, deleted primary keys coming back — and
// checks after every operation that Scan keeps insertion order and that Len,
// the hash indexes and the ordered index agree with a plain list of the rows.
func TestTableChurnKeepsOrderAndIndexes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, err := NewSchema("item", []Column{
			{Name: "id", Type: sqlparser.TypeInt, PrimaryKey: true},
			{Name: "cat", Type: sqlparser.TypeInt},
			{Name: "price", Type: sqlparser.TypeFloat},
		})
		if err != nil {
			t.Fatal(err)
		}
		tab := NewTable(schema)
		if err := tab.CreateIndex("cat", false); err != nil {
			t.Fatal(err)
		}
		if err := tab.CreateIndex("price", false); err != nil {
			t.Fatal(err)
		}
		if err := tab.CreateOrderedIndex("price"); err != nil {
			t.Fatal(err)
		}
		var m churnModel
		randRow := func(pk int64) Row {
			r := Row{Int(pk), Int(int64(rng.Intn(10))), Float(float64(rng.Intn(20)) / 2)}
			if rng.Intn(8) == 0 {
				r[1+rng.Intn(2)] = Null()
			}
			return r
		}
		nextPK, freed := int64(0), []int64(nil)
		for op := 0; op < 600; op++ {
			when := ""
			switch r := rng.Intn(20); {
			case r < 9 || len(m.ids) == 0:
				pk := nextPK
				if len(freed) > 0 && rng.Intn(2) == 0 {
					pk, freed = freed[len(freed)-1], freed[:len(freed)-1] // a deleted key comes back
				} else {
					nextPK++
				}
				row := randRow(pk)
				id, err := tab.Insert(row)
				if err != nil {
					t.Fatal(err)
				}
				m.ids, m.rows = append(m.ids, id), append(m.rows, row)
				when = "insert"
			case r < 15:
				// A batch of up to four rows, ascending as the engine passes
				// them, plus an ID that does not exist.
				var ids []int64
				for _, i := range rng.Perm(len(m.ids))[:min(len(m.ids), 1+rng.Intn(4))] {
					ids = append(ids, m.ids[i])
				}
				slices.Sort(ids)
				var want []Row
				for _, id := range ids {
					want = append(want, m.rows[slices.Index(m.ids, id)])
					freed = append(freed, m.rows[slices.Index(m.ids, id)][0].I)
				}
				if got := tab.Delete(append(ids, 1<<40)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: Delete(%v) returned %v, want %v", seed, op, ids, got, want)
				}
				m.delete(ids)
				when = "delete"
			case r < 16:
				for _, r := range m.rows {
					freed = append(freed, r[0].I)
				}
				if got := tab.Delete(slices.Clone(m.ids)); len(got) != len(m.ids) {
					t.Fatalf("seed %d op %d: delete-all removed %d of %d rows", seed, op, len(got), len(m.ids))
				}
				m.ids, m.rows = nil, nil
				when = "delete-all"
			default:
				i := rng.Intn(len(m.ids))
				row := randRow(m.rows[i][0].I)
				if rng.Intn(2) == 0 {
					row[1] = m.rows[i][1] // an indexed column keeps its value
				}
				if err := tab.Replace(m.ids[i], row); err != nil {
					t.Fatal(err)
				}
				m.rows[i] = row
				when = "replace"
			}
			m.check(t, tab, when)
		}
	}
}

// TestReplaceTouchesOnlyChangedIndexes: an index whose column keeps its value
// is left alone — observable as the bucket's and the pending buffer's order,
// which a remove-and-re-add would rotate.
func TestReplaceTouchesOnlyChangedIndexes(t *testing.T) {
	tab := NewTable(carSchema(t))
	if err := tab.CreateIndex("maker", false); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateOrderedIndex("price"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := tab.Insert(Row{Int(int64(i)), Str("m"), Float(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	bucket := func() []int64 { got, _ := tab.IndexLookup("maker", Str("m")); return slices.Clone(got) }
	pending := func() []pendingEntry { return slices.Clone(tab.ordered["price"].pending) }
	b0, p0 := bucket(), pending()

	// Only the primary key changes.
	if err := tab.Replace(ids[0], Row{Int(10), Str("m"), Float(0)}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bucket(), b0) || !slices.Equal(pending(), p0) {
		t.Fatalf("unchanged columns were re-indexed: bucket %v → %v, pending %v → %v", b0, bucket(), p0, pending())
	}
	if got, _ := tab.IndexLookup("id", Int(10)); !slices.Equal(got, ids[:1]) {
		t.Fatalf("changed column not re-indexed: id = 10 holds %v", got)
	}
	if got, _ := tab.IndexLookup("id", Int(0)); len(got) != 0 {
		t.Fatalf("old key still indexed: id = 0 holds %v", got)
	}

	// 0.0 and -0.0 compare equal but hash apart: the index must follow.
	if err := tab.CreateIndex("price", false); err != nil {
		t.Fatal(err)
	}
	if err := tab.Replace(ids[0], Row{Int(10), Str("m"), Float(math.Copysign(0, -1))}); err != nil {
		t.Fatal(err)
	}
	if removed := tab.Delete(ids[:1]); len(removed) != 1 {
		t.Fatalf("removed %d rows", len(removed))
	}
	for _, v := range []Value{Float(0), Float(math.Copysign(0, -1))} {
		if got, _ := tab.IndexLookup("price", v); len(got) != 0 {
			t.Fatalf("price = %v still holds deleted row %v", v, got)
		}
	}
}

// TestHashIndexDeclinesWhileNaNStored: mem.Compare finds NaN equal to every
// number, so a scan for price = 1 matches a NaN row and no bucket can.
func TestHashIndexDeclinesWhileNaNStored(t *testing.T) {
	tab := NewTable(carSchema(t))
	if err := tab.CreateIndex("price", false); err != nil {
		t.Fatal(err)
	}
	id, err := tab.Insert(Row{Int(1), Str("m"), Float(math.NaN())})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.IndexLookup("price", Float(1)); ok {
		t.Fatal("hash index answered with a NaN stored")
	}
	if err := tab.Replace(id, Row{Int(1), Str("m"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	if got, ok := tab.IndexLookup("price", Float(1)); !ok || len(got) != 1 {
		t.Fatalf("after the NaN is gone: ok=%v ids=%v", ok, got)
	}
}
