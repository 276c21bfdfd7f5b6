package mem

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// OrderedIndex is a sorted index over one column, answering range probes
// (<, <=, >, >=) in O(log n + matches). Like HashIndex it is maintained on
// every Insert/Delete/Replace, but its write path is two-level so inserts
// stay cheap: new entries land in an unsorted pending buffer and are merged
// into the sorted main run when the buffer fills. Lookups consult both.
//
// Keys order the same way mem.Compare does — numerics inter-comparable,
// strings by byte order, bools false<true — and families never compare
// across (the query layer guards probes by the column's declared type, so a
// probe only ever meets keys of its own family). NULLs are not indexed
// (range predicates never match NULL) and NaN floats are counted but not
// indexed: mem.Compare treats NaN as equal to everything, an ordering no
// sorted structure can honor, so while any NaN is present the index
// declines to answer and the caller falls back to scanning.
type OrderedIndex struct {
	Col     int // column position in the schema
	main    []orderedEntry
	pending []pendingEntry
	dead    int // main entries whose id lists emptied since the last merge
	nan     int // NaN values currently stored in the column
}

// pendingMax bounds the unsorted buffer; at the bound a merge folds it into
// the main run, keeping lookups' linear component constant.
const pendingMax = 512

type orderedEntry struct {
	key orderedKey
	ids []int64
}

type pendingEntry struct {
	key orderedKey
	id  int64
}

// orderedKey is a comparable projection of a Value. fam ranks families
// (numeric < string < bool) so mixed-family columns still have a total
// order, though guarded probes never cross families.
type orderedKey struct {
	fam byte
	f   float64 // numeric value; 0/1 for bool
	s   string
}

const (
	famNumeric = iota
	famString
	famBool
)

// orderedKeyFor projects v, reporting ok=false for values the index cannot
// order (NULL, NaN).
func orderedKeyFor(v Value) (orderedKey, bool) {
	switch v.Kind {
	case KindInt:
		return orderedKey{fam: famNumeric, f: float64(v.I)}, true
	case KindFloat:
		if math.IsNaN(v.F) {
			return orderedKey{}, false
		}
		return orderedKey{fam: famNumeric, f: v.F}, true
	case KindString:
		return orderedKey{fam: famString, s: v.S}, true
	case KindBool:
		k := orderedKey{fam: famBool}
		if v.B {
			k.f = 1
		}
		return k, true
	default:
		return orderedKey{}, false
	}
}

func (a orderedKey) less(b orderedKey) bool {
	if a.fam != b.fam {
		return a.fam < b.fam
	}
	if a.fam == famString {
		return a.s < b.s
	}
	return a.f < b.f
}

// NewOrderedIndex creates an empty index over column position col.
func NewOrderedIndex(col int) *OrderedIndex {
	return &OrderedIndex{Col: col}
}

// Add indexes row id under value v.
func (x *OrderedIndex) Add(v Value, id int64) {
	if v.IsNull() {
		return
	}
	key, ok := orderedKeyFor(v)
	if !ok {
		x.nan++
		return
	}
	x.pending = append(x.pending, pendingEntry{key: key, id: id})
	if len(x.pending) >= pendingMax {
		x.merge()
	}
}

// Remove drops row id from the entry for v.
func (x *OrderedIndex) Remove(v Value, id int64) {
	if v.IsNull() {
		return
	}
	key, ok := orderedKeyFor(v)
	if !ok {
		if x.nan > 0 {
			x.nan--
		}
		return
	}
	for i := len(x.pending) - 1; i >= 0; i-- {
		p := x.pending[i]
		if p.id == id && p.key == key {
			x.pending[i] = x.pending[len(x.pending)-1]
			x.pending = x.pending[:len(x.pending)-1]
			return
		}
	}
	i := sort.Search(len(x.main), func(i int) bool { return !x.main[i].key.less(key) })
	if i >= len(x.main) || x.main[i].key != key {
		return
	}
	ids := x.main[i].ids
	for j, got := range ids {
		if got == id {
			ids[j] = ids[len(ids)-1]
			x.main[i].ids = ids[:len(ids)-1]
			break
		}
	}
	if len(x.main[i].ids) == 0 {
		x.dead++
		if x.dead*2 > len(x.main) {
			x.compact()
		}
	}
}

// merge sorts the pending buffer and folds it into the main run, dropping
// dead entries along the way.
func (x *OrderedIndex) merge() {
	if len(x.pending) == 0 {
		return
	}
	sort.Slice(x.pending, func(i, j int) bool { return x.pending[i].key.less(x.pending[j].key) })
	out := make([]orderedEntry, 0, len(x.main)+len(x.pending)-x.dead)
	mi, pi := 0, 0
	for mi < len(x.main) || pi < len(x.pending) {
		switch {
		case mi < len(x.main) && len(x.main[mi].ids) == 0:
			mi++
		case pi >= len(x.pending) || (mi < len(x.main) && x.main[mi].key.less(x.pending[pi].key)):
			out = append(out, x.main[mi])
			mi++
		case mi < len(x.main) && x.main[mi].key == x.pending[pi].key:
			e := x.main[mi]
			for pi < len(x.pending) && x.pending[pi].key == e.key {
				e.ids = append(e.ids, x.pending[pi].id)
				pi++
			}
			out = append(out, e)
			mi++
		default:
			// A run of pending entries ahead of (or past) the main run;
			// coalesce equal keys.
			e := orderedEntry{key: x.pending[pi].key, ids: []int64{x.pending[pi].id}}
			pi++
			for pi < len(x.pending) && x.pending[pi].key == e.key {
				e.ids = append(e.ids, x.pending[pi].id)
				pi++
			}
			out = append(out, e)
		}
	}
	x.main = out
	x.pending = x.pending[:0]
	x.dead = 0
}

// compact drops dead entries from the main run.
func (x *OrderedIndex) compact() {
	kept := x.main[:0]
	for _, e := range x.main {
		if len(e.ids) > 0 {
			kept = append(kept, e)
		}
	}
	x.main = kept
	x.dead = 0
}

// Range returns the IDs of rows whose column value lies between min and max
// (NULL bound = unbounded on that side), plus ok=false when the index
// cannot answer exactly — a NaN is stored in the column, or a bound is a
// value the key space cannot order (NaN). IDs are returned in ascending
// order, which for this storage layer is insertion order.
func (x *OrderedIndex) Range(min, max Value, minIncl, maxIncl bool) ([]int64, bool) {
	if x.nan > 0 {
		return nil, false
	}
	var lo, hi *orderedKey
	if !min.IsNull() {
		k, ok := orderedKeyFor(min)
		if !ok {
			return nil, false
		}
		lo = &k
	}
	if !max.IsNull() {
		k, ok := orderedKeyFor(max)
		if !ok {
			return nil, false
		}
		hi = &k
	}
	within := func(k orderedKey) bool {
		if lo != nil {
			if k.less(*lo) || (!minIncl && k == *lo) {
				return false
			}
		}
		if hi != nil {
			if hi.less(k) || (!maxIncl && k == *hi) {
				return false
			}
		}
		return true
	}
	var ids []int64
	start := 0
	if lo != nil {
		start = sort.Search(len(x.main), func(i int) bool { return !x.main[i].key.less(*lo) })
	}
	for i := start; i < len(x.main); i++ {
		e := x.main[i]
		if hi != nil && hi.less(e.key) {
			break
		}
		if within(e.key) {
			ids = append(ids, e.ids...)
		}
	}
	for _, p := range x.pending {
		if within(p.key) {
			ids = append(ids, p.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, true
}

// Len returns the number of indexed (orderable) values.
func (x *OrderedIndex) Len() int {
	n := len(x.pending)
	for _, e := range x.main {
		n += len(e.ids)
	}
	return n
}

// CreateOrderedIndex adds an ordered index on the named column, backfilling
// existing rows. Creating one that exists is an error; probe with
// HasOrderedIndex.
func (t *Table) CreateOrderedIndex(column string) error {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("mem: table %s: no column %s", t.Schema.Table, column)
	}
	key := strings.ToLower(column)
	if _, exists := t.ordered[key]; exists {
		return fmt.Errorf("mem: table %s: ordered index on %s already exists", t.Schema.Table, column)
	}
	idx := NewOrderedIndex(ci)
	t.Scan(func(id int64, r Row) bool {
		idx.Add(r[ci], id)
		return true
	})
	if t.ordered == nil {
		t.ordered = make(map[string]*OrderedIndex)
	}
	t.ordered[key] = idx
	return nil
}

// HasOrderedIndex reports whether an ordered index exists on the named
// column.
func (t *Table) HasOrderedIndex(column string) bool {
	_, ok := t.ordered[strings.ToLower(column)]
	return ok
}

// OrderedRange returns the IDs of rows whose value in the named column lies
// within the bounds (NULL bound = unbounded), in insertion order. ok=false
// when no ordered index covers the column or the index cannot answer
// exactly; the caller must fall back to scanning.
func (t *Table) OrderedRange(column string, min, max Value, minIncl, maxIncl bool) ([]int64, bool) {
	idx, ok := t.ordered[strings.ToLower(column)]
	if !ok {
		return nil, false
	}
	return idx.Range(min, max, minIncl, maxIncl)
}
