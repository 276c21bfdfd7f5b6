package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sqlparser"
	"repro/internal/trace"
)

// Result is the outcome of executing a statement. SELECT fills Columns and
// Rows; DML fills RowsAffected.
type Result struct {
	Columns      []string
	Rows         []mem.Row
	RowsAffected int
}

// Database is an in-memory multi-table SQL database with an update log.
// All public methods are safe for concurrent use; statements execute under
// a database-wide lock (readers share, writers exclude), which matches the
// serialization the paper's single-DBMS configurations assume.
type Database struct {
	mu       sync.RWMutex
	tables   map[string]*mem.Table // lower-cased name → table
	names    []string              // creation order, lower-cased
	log      *UpdateLog
	triggers triggerSet
	stmts    *stmtCache
	tracer   atomic.Pointer[trace.Tracer]

	// Auto-indexing state (see index.go). Probe counters are atomics
	// because SELECTs run concurrently under the read lock.
	autoIndex   atomic.Bool
	autoHash    atomic.Int64
	autoOrdered atomic.Int64
	hashProbes  atomic.Int64
	rangeProbes atomic.Int64
	// Write-side access-path counters (matchForWrite in access.go).
	writeProbes       atomic.Int64
	writeScans        atomic.Int64
	writeRowsExamined atomic.Int64
}

// NewDatabase creates an empty database with a default-capacity update log.
func NewDatabase() *Database {
	return &Database{
		tables: make(map[string]*mem.Table),
		log:    NewUpdateLog(0),
		stmts:  newStmtCache(0),
	}
}

// Log exposes the database's update log; the invalidator polls it.
func (db *Database) Log() *UpdateLog { return db.log }

// SetTracer attaches a pipeline tracer: every committed change opens a new
// trace and stamps its context into the UpdateRecord, making the engine the
// root of the commit-to-eject causal chain. nil detaches (tracing off); the
// commit-path cost of a detached tracer is one atomic pointer load.
func (db *Database) SetTracer(t *trace.Tracer) { db.tracer.Store(t) }

// Table returns the named table (case-insensitive), or nil.
func (db *Database) Table(name string) *mem.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns table names in creation order (as created).
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.names))
	for _, n := range db.names {
		out = append(out, db.tables[n].Schema.Table)
	}
	return out
}

// ExecSQL executes a single statement, given as text. It is a
// prepare-cache lookup: repeated text replays a fully bound prepared
// statement with no lexing or parsing, and new text of a previously seen
// query type reuses the compiled template, paying only the parse. Texts that
// still contain unbound placeholders, and DDL, execute directly as before.
func (db *Database) ExecSQL(sql string) (*Result, error) {
	if prep, ok := db.stmts.texts.Get(sql); ok {
		return prep.Exec(nil)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if !preparable(stmt) {
		return db.Exec(stmt)
	}
	prep, err := db.prepareParsed(stmt)
	if err != nil {
		return nil, err
	}
	if prep.numArgs > 0 {
		// Raw placeholders in supposedly bound text: execute the parsed
		// statement directly so the legacy error surfaces unchanged.
		return db.Exec(stmt)
	}
	db.stmts.texts.Put(sql, prep)
	return prep.Exec(nil)
}

// ExecScript parses and executes a semicolon-separated script, returning
// the result of the final statement.
func (db *Database) ExecScript(sql string) (*Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = db.Exec(s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// Exec executes a parsed statement.
func (db *Database) Exec(stmt sqlparser.Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execSelect(s)
	case *sqlparser.InsertStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execInsert(s)
	case *sqlparser.UpdateStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execUpdate(s)
	case *sqlparser.DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDelete(s)
	case *sqlparser.CreateTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreateTable(s)
	case *sqlparser.DropTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDropTable(s)
	case *sqlparser.CreateIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreateIndex(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (db *Database) execCreateTable(s *sqlparser.CreateTableStmt) (*Result, error) {
	key := strings.ToLower(s.Table)
	if _, exists := db.tables[key]; exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: table %s already exists", s.Table)
	}
	cols := make([]mem.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = mem.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull, PrimaryKey: c.PrimaryKey}
	}
	schema, err := mem.NewSchema(s.Table, cols)
	if err != nil {
		return nil, err
	}
	db.tables[key] = mem.NewTable(schema)
	db.names = append(db.names, key)
	return &Result{}, nil
}

func (db *Database) execDropTable(s *sqlparser.DropTableStmt) (*Result, error) {
	key := strings.ToLower(s.Table)
	if _, exists := db.tables[key]; !exists {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("engine: no table %s", s.Table)
	}
	delete(db.tables, key)
	for i, n := range db.names {
		if n == key {
			db.names = append(db.names[:i], db.names[i+1:]...)
			break
		}
	}
	return &Result{}, nil
}

func (db *Database) execCreateIndex(s *sqlparser.CreateIndexStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("engine: no table %s", s.Table)
	}
	if err := t.CreateIndex(s.Column, s.Unique); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execInsert(s *sqlparser.InsertStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("engine: no table %s", s.Table)
	}
	schema := t.Schema
	// Map the statement's column list to schema positions.
	positions := make([]int, 0, len(s.Columns))
	if len(s.Columns) == 0 {
		for i := range schema.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, name := range s.Columns {
			ci := schema.ColumnIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("engine: table %s has no column %s", s.Table, name)
			}
			positions = append(positions, ci)
		}
	}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, want %d", len(exprRow), len(positions))
		}
		row := make(mem.Row, len(schema.Columns)) // unset columns default to NULL
		for i, e := range exprRow {
			v, err := Eval(e, Env{})
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		id, err := t.Insert(row)
		if err != nil {
			return nil, err
		}
		stored, _ := t.Get(id)
		db.logAndFire(UpdateRecord{Table: schema.Table, Op: OpInsert, Columns: schema.ColumnNames(), Row: stored.Clone()})
		n++
	}
	return &Result{RowsAffected: n}, nil
}

func (db *Database) execDelete(s *sqlparser.DeleteStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("engine: no table %s", s.Table)
	}
	var ids []int64
	err := db.matchForWrite(t, s.Where, func(id int64, _ mem.Row, _ Env) error {
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The table no longer references a removed row, so the record takes it
	// without a copy.
	removed := t.Delete(ids)
	for _, r := range removed {
		db.logAndFire(UpdateRecord{Table: t.Schema.Table, Op: OpDelete, Columns: t.Schema.ColumnNames(), Row: r})
	}
	return &Result{RowsAffected: len(removed)}, nil
}

func (db *Database) execUpdate(s *sqlparser.UpdateStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("engine: no table %s", s.Table)
	}
	schema := t.Schema
	setPos := make([]int, len(s.Set))
	for i, a := range s.Set {
		ci := schema.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", s.Table, a.Column)
		}
		setPos[i] = ci
	}
	// Two phases: collect matching rows first, then mutate, so neither the
	// WHERE predicate nor an index probe observes half-updated data.
	type change struct {
		id  int64
		old mem.Row
		new mem.Row
	}
	var changes []change
	err := db.matchForWrite(t, s.Where, func(id int64, r mem.Row, env Env) error {
		nr := r.Clone()
		for i, a := range s.Set {
			v, err := Eval(a.Value, env)
			if err != nil {
				return err
			}
			nr[setPos[i]] = v
		}
		validated, err := t.ValidateRow(nr)
		if err != nil {
			return err
		}
		changes = append(changes, change{id: id, old: r, new: validated})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range changes {
		if err := t.Replace(c.id, c.new); err != nil {
			return nil, err
		}
		// UPDATE = Δ⁻(old) then Δ⁺(new), the decomposition the invalidator
		// expects (§4.2.1). Replace swapped the stored row for c.new, so the
		// old image is the record's alone.
		db.logAndFire(UpdateRecord{Table: schema.Table, Op: OpDelete, Columns: schema.ColumnNames(), Row: c.old})
		db.logAndFire(UpdateRecord{Table: schema.Table, Op: OpInsert, Columns: schema.ColumnNames(), Row: c.new.Clone()})
	}
	return &Result{RowsAffected: len(changes)}, nil
}
