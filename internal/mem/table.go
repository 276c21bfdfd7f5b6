package mem

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlparser"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       sqlparser.ColumnType
	NotNull    bool
	PrimaryKey bool
}

// Schema is an ordered list of columns plus name-resolution helpers. Column
// names are case-insensitive.
type Schema struct {
	Table   string
	Columns []Column
	names   []string // Columns[i].Name, built once
	byName  map[string]int
	pk      int // index of primary key column, -1 if none
}

// NewSchema builds a schema, validating column-name uniqueness and that at
// most one primary key is declared.
func NewSchema(table string, cols []Column) (*Schema, error) {
	if table == "" {
		return nil, fmt.Errorf("mem: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("mem: table %s has no columns", table)
	}
	s := &Schema{Table: table, Columns: cols, names: make([]string, len(cols)), byName: make(map[string]int, len(cols)), pk: -1}
	for i, c := range cols {
		s.names[i] = c.Name
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("mem: table %s: duplicate column %s", table, c.Name)
		}
		s.byName[key] = i
		if c.PrimaryKey {
			if s.pk >= 0 {
				return nil, fmt.Errorf("mem: table %s: multiple primary keys", table)
			}
			s.pk = i
		}
	}
	return s, nil
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// PrimaryKey returns the index of the primary key column, or -1.
func (s *Schema) PrimaryKey() int { return s.pk }

// ColumnNames returns the column names in order. The slice is shared by
// every caller (each update-log record carries it): read-only.
func (s *Schema) ColumnNames() []string { return s.names }

// Row is one tuple; len(Row) == len(Schema.Columns).
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key renders the row as a composite hash key.
func (r Row) Key() string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// Table is an insertion-ordered heap of rows with optional hash indexes.
// Table methods are not synchronized; the owning Database serializes access.
type Table struct {
	Schema *Schema
	// rowIDs lists row IDs in insertion order, which is ascending: IDs come
	// from nextID. A deleted row's ID stays behind as a tombstone (it is
	// absent from rows) until tombstones outnumber live rows, when one pass
	// drops them all; so Delete costs O(rows removed) amortized and a scan
	// walks at most twice the live rows.
	rowIDs  []int64
	rows    map[int64]Row
	indexes map[string]*HashIndex    // lower-cased column name → index
	ordered map[string]*OrderedIndex // lower-cased column name → ordered index
	nextID  int64
}

// NewTable creates an empty table. A hash index is created automatically on
// the primary key column, if any.
func NewTable(schema *Schema) *Table {
	t := &Table{
		Schema:  schema,
		rows:    make(map[int64]Row),
		indexes: make(map[string]*HashIndex),
	}
	if pk := schema.PrimaryKey(); pk >= 0 {
		t.indexes[strings.ToLower(schema.Columns[pk].Name)] = NewHashIndex(pk, true)
	}
	return t
}

// Len returns the number of live rows.
func (t *Table) Len() int { return len(t.rows) }

// Insert validates, coerces and appends a row, returning its row ID.
func (t *Table) Insert(r Row) (int64, error) {
	if len(r) != len(t.Schema.Columns) {
		return 0, fmt.Errorf("mem: table %s: row has %d values, want %d",
			t.Schema.Table, len(r), len(t.Schema.Columns))
	}
	coerced := make(Row, len(r))
	for i, v := range r {
		col := t.Schema.Columns[i]
		if v.IsNull() && col.NotNull {
			return 0, fmt.Errorf("mem: table %s: column %s is NOT NULL", t.Schema.Table, col.Name)
		}
		cv, err := CoerceTo(v, col.Type)
		if err != nil {
			return 0, fmt.Errorf("mem: table %s column %s: %w", t.Schema.Table, col.Name, err)
		}
		coerced[i] = cv
	}
	// Unique index checks before any mutation.
	for name, idx := range t.indexes {
		if idx.Unique {
			if ids := idx.Lookup(coerced[idx.Col]); len(ids) > 0 {
				return 0, fmt.Errorf("mem: table %s: duplicate value %s for unique column %s",
					t.Schema.Table, coerced[idx.Col], name)
			}
		}
	}
	id := t.nextID
	t.nextID++
	t.rows[id] = coerced
	t.rowIDs = append(t.rowIDs, id)
	for _, idx := range t.indexes {
		idx.Add(coerced[idx.Col], id)
	}
	for _, idx := range t.ordered {
		idx.Add(coerced[idx.Col], id)
	}
	return id, nil
}

// Get returns the row with the given ID.
func (t *Table) Get(id int64) (Row, bool) {
	r, ok := t.rows[id]
	return r, ok
}

// Delete removes the rows with the given IDs; unknown IDs are ignored. It
// returns the rows actually removed, in the order given — insertion order
// when ids ascend, as a scan or an index probe yields them.
func (t *Table) Delete(ids []int64) []Row {
	var removed []Row
	for _, id := range ids {
		r, ok := t.rows[id]
		if !ok {
			continue
		}
		removed = append(removed, r)
		for _, idx := range t.indexes {
			idx.Remove(r[idx.Col], id)
		}
		for _, idx := range t.ordered {
			idx.Remove(r[idx.Col], id)
		}
		delete(t.rows, id)
	}
	if dead := len(t.rowIDs) - len(t.rows); dead > len(t.rows) {
		kept := t.rowIDs[:0]
		for _, id := range t.rowIDs {
			if _, ok := t.rows[id]; ok {
				kept = append(kept, id)
			}
		}
		t.rowIDs = kept
	}
	return removed
}

// Replace overwrites the row with the given ID (used by UPDATE). The new
// row must already be validated/coerced by the caller via ValidateRow. Only
// the indexes whose column value changed are touched.
func (t *Table) Replace(id int64, r Row) error {
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("mem: table %s: no row %d", t.Schema.Table, id)
	}
	for _, idx := range t.indexes {
		if idx.Unique && !Equal(old[idx.Col], r[idx.Col]) && !(old[idx.Col].IsNull() && r[idx.Col].IsNull()) {
			if ids := idx.Lookup(r[idx.Col]); len(ids) > 0 {
				return fmt.Errorf("mem: table %s: duplicate value %s for unique column %s",
					t.Schema.Table, r[idx.Col], t.Schema.Columns[idx.Col].Name)
			}
		}
	}
	for _, idx := range t.indexes {
		if !identical(old[idx.Col], r[idx.Col]) {
			idx.Remove(old[idx.Col], id)
			idx.Add(r[idx.Col], id)
		}
	}
	for _, idx := range t.ordered {
		if !identical(old[idx.Col], r[idx.Col]) {
			idx.Remove(old[idx.Col], id)
			idx.Add(r[idx.Col], id)
		}
	}
	t.rows[id] = r
	return nil
}

// ValidateRow coerces every value of r to the schema's column types,
// enforcing NOT NULL; it returns the coerced copy.
func (t *Table) ValidateRow(r Row) (Row, error) {
	if len(r) != len(t.Schema.Columns) {
		return nil, fmt.Errorf("mem: table %s: row has %d values, want %d",
			t.Schema.Table, len(r), len(t.Schema.Columns))
	}
	out := make(Row, len(r))
	for i, v := range r {
		col := t.Schema.Columns[i]
		if v.IsNull() && col.NotNull {
			return nil, fmt.Errorf("mem: table %s: column %s is NOT NULL", t.Schema.Table, col.Name)
		}
		cv, err := CoerceTo(v, col.Type)
		if err != nil {
			return nil, fmt.Errorf("mem: table %s column %s: %w", t.Schema.Table, col.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// Scan calls fn for every live row in insertion order until fn returns
// false.
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	for _, id := range t.rowIDs {
		if r, ok := t.rows[id]; ok {
			if !fn(id, r) {
				return
			}
		}
	}
}

// Rows returns a snapshot of all rows in insertion order.
func (t *Table) Rows() []Row {
	out := make([]Row, 0, len(t.rows))
	t.Scan(func(_ int64, r Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// CreateIndex adds a hash index on the named column, backfilling existing
// rows. Creating an index that exists is an error; use HasIndex to probe.
func (t *Table) CreateIndex(column string, unique bool) error {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("mem: table %s: no column %s", t.Schema.Table, column)
	}
	key := strings.ToLower(column)
	if _, exists := t.indexes[key]; exists {
		return fmt.Errorf("mem: table %s: index on %s already exists", t.Schema.Table, column)
	}
	idx := NewHashIndex(ci, unique)
	var dup error
	t.Scan(func(id int64, r Row) bool {
		if unique && len(idx.Lookup(r[ci])) > 0 {
			dup = fmt.Errorf("mem: table %s: existing duplicate value %s prevents unique index on %s",
				t.Schema.Table, r[ci], column)
			return false
		}
		idx.Add(r[ci], id)
		return true
	})
	if dup != nil {
		return dup
	}
	t.indexes[key] = idx
	return nil
}

// HasIndex reports whether an index exists on the named column.
func (t *Table) HasIndex(column string) bool {
	_, ok := t.indexes[strings.ToLower(column)]
	return ok
}

// IndexLookup returns the IDs of rows whose indexed column equals v, or
// (nil, false) when the index cannot answer as a scan would: the column is
// not indexed, or it holds a NaN, which mem.Compare finds equal to every
// number and no hash bucket can.
func (t *Table) IndexLookup(column string, v Value) ([]int64, bool) {
	idx, ok := t.indexes[strings.ToLower(column)]
	if !ok || idx.nan > 0 {
		return nil, false
	}
	return idx.Lookup(v), true
}

// HashIndex is an equality index from column value to row IDs.
type HashIndex struct {
	Col    int // column position in the schema
	Unique bool
	m      map[string][]int64
	nan    int // NaN values currently stored in the column
}

func isNaN(v Value) bool { return v.Kind == KindFloat && math.IsNaN(v.F) }

// NewHashIndex creates an empty index over column position col.
func NewHashIndex(col int, unique bool) *HashIndex {
	return &HashIndex{Col: col, Unique: unique, m: make(map[string][]int64)}
}

// Add indexes row id under value v. NULLs are not indexed (SQL unique
// semantics: multiple NULLs allowed, equality never matches NULL).
func (x *HashIndex) Add(v Value, id int64) {
	if v.IsNull() {
		return
	}
	if isNaN(v) {
		x.nan++
	}
	k := v.Key()
	x.m[k] = append(x.m[k], id)
}

// Remove drops row id from the entry for v.
func (x *HashIndex) Remove(v Value, id int64) {
	if v.IsNull() {
		return
	}
	k := v.Key()
	ids := x.m[k]
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if isNaN(v) {
				x.nan--
			}
			break
		}
	}
	if len(ids) == 0 {
		delete(x.m, k)
	} else {
		x.m[k] = ids
	}
}

// Lookup returns the row IDs stored under v. Looking up NULL returns nil.
func (x *HashIndex) Lookup(v Value) []int64 {
	if v.IsNull() {
		return nil
	}
	return x.m[v.Key()]
}
