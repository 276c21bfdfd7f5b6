package driver

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/sqlparser"
	"repro/internal/wire"
)

// Stmt is a prepared statement at the driver layer: compiled once, executed
// many times with different arguments — the JDBC PreparedStatement analog.
type Stmt interface {
	// Exec binds args to the statement's placeholders in order and runs it.
	Exec(args []mem.Value) (*engine.Result, error)
	// NumArgs returns how many arguments Exec expects.
	NumArgs() int
	// Close releases the statement's resources.
	Close() error
}

// Preparer is an optional Conn extension for connections with a native
// prepared path. Use the package-level Prepare helper rather than asserting
// it yourself: the helper emulates preparation over plain Query for
// connections that lack it.
type Preparer interface {
	Prepare(sql string) (Stmt, error)
}

// Prepare compiles sql on c. Connections with a native prepared path
// (network, direct, logging) use it; any other Conn gets a text-emulated
// statement that binds arguments client-side and sends ordinary Query text,
// so every Conn supports the prepared API.
func Prepare(c Conn, sql string) (Stmt, error) {
	if p, ok := c.(Preparer); ok {
		return p.Prepare(sql)
	}
	return newTextStmt(c, sql)
}

// Prepare compiles sql on the leased connection.
func (l *Lease) Prepare(sql string) (Stmt, error) {
	if l.done {
		return nil, errors.New("driver: lease released")
	}
	return Prepare(l.Conn, sql)
}

// ---------------------------------------------------------------------------
// Text emulation
// ---------------------------------------------------------------------------

// textStmt emulates preparation over a plain Conn: the template is parsed
// once, each Exec binds the arguments into a copy and sends the rendered
// text through Query.
type textStmt struct {
	c       Conn
	parsed  sqlparser.Stmt
	numArgs int
}

func newTextStmt(c Conn, sql string) (*textStmt, error) {
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &textStmt{c: c, parsed: parsed, numArgs: len(sqlparser.Placeholders(parsed))}, nil
}

func (s *textStmt) NumArgs() int { return s.numArgs }
func (s *textStmt) Close() error { return nil }

func (s *textStmt) render(args []mem.Value) (string, error) {
	lits := make([]sqlparser.Expr, len(args))
	for i, a := range args {
		lits[i] = a.Literal()
	}
	bound, err := sqlparser.Bind(s.parsed, lits)
	if err != nil {
		return "", err
	}
	return bound.String(), nil
}

func (s *textStmt) Exec(args []mem.Value) (*engine.Result, error) {
	sql, err := s.render(args)
	if err != nil {
		return nil, err
	}
	return s.c.Query(sql)
}

// ---------------------------------------------------------------------------
// Network connection
// ---------------------------------------------------------------------------

// Prepare implements Preparer over the wire protocol's PREPARE/EXECUTE
// verbs. The wire statement survives reconnects (it re-prepares itself).
func (n *netConn) Prepare(sql string) (Stmt, error) {
	ws, err := n.c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &netStmt{s: ws}, nil
}

type netStmt struct{ s *wire.Stmt }

func (s *netStmt) Exec(args []mem.Value) (*engine.Result, error) { return s.s.Exec(args) }
func (s *netStmt) NumArgs() int                                  { return s.s.NumArgs() }
func (s *netStmt) Close() error                                  { return s.s.Close() }

// QueryStmt executes a compiled template through a per-connection statement
// cache: the first execution of a fingerprint pays one PREPARE roundtrip,
// subsequent ones send EXECUTE with bound values only — no SQL text crosses
// the wire and the server re-parses nothing. Satisfies the invalidator's
// StmtPoller extension.
func (n *netConn) QueryStmt(fingerprint string, tmpl *sqlparser.SelectStmt, args []mem.Value) (*engine.Result, error) {
	ws, err := n.stmts.GetOrPut(fingerprint, func() (*wire.Stmt, error) {
		return n.c.Prepare(tmpl.String())
	})
	if err != nil {
		return nil, err
	}
	return ws.Exec(args)
}

// ---------------------------------------------------------------------------
// Direct connection
// ---------------------------------------------------------------------------

// Prepare implements Preparer against the in-process engine.
func (c *directConn) Prepare(sql string) (Stmt, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("driver: connection closed")
	}
	prep, err := c.d.DB.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &directStmt{c: c, prep: prep, key: prep.Template().Key}, nil
}

type directStmt struct {
	c    *directConn
	prep *engine.PreparedStmt
	key  string
}

func (s *directStmt) NumArgs() int { return s.prep.NumArgs() }
func (s *directStmt) Close() error { return nil }

func (s *directStmt) Exec(args []mem.Value) (*engine.Result, error) {
	s.c.mu.Lock()
	closed := s.c.closed
	s.c.mu.Unlock()
	if closed {
		return nil, errors.New("driver: connection closed")
	}
	s.c.delay(s.key)
	return s.prep.Exec(args)
}

// QueryStmt executes a compiled template straight through the engine's
// statement cache — zero parsing. Satisfies the invalidator's StmtPoller
// extension.
func (c *directConn) QueryStmt(fingerprint string, tmpl *sqlparser.SelectStmt, args []mem.Value) (*engine.Result, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("driver: connection closed")
	}
	c.delay(fingerprint)
	return c.d.DB.ExecTemplate(fingerprint, tmpl, args)
}

func (c *directConn) delay(sql string) {
	if c.d.Delay != nil {
		if d := c.d.Delay(sql); d > 0 {
			time.Sleep(d)
		}
	}
}

// ---------------------------------------------------------------------------
// Logging connection
// ---------------------------------------------------------------------------

// Prepare implements Preparer: the inner statement executes through its
// native path, and every Exec logs the bound instance text with both
// timestamps. The sniffer's request-to-query mapper works on query text, so
// prepared execution must still render each instance for the log — binding
// is cheap (one AST copy); what the prepared path saves is the parse and the
// server-side recompilation, not the print.
func (c *LoggingConn) Prepare(sql string) (Stmt, error) {
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	inner, err := Prepare(c.inner, sql)
	if err != nil {
		return nil, err
	}
	return &loggingStmt{c: c, inner: inner, parsed: parsed}, nil
}

type loggingStmt struct {
	c      *LoggingConn
	inner  Stmt
	parsed sqlparser.Stmt
}

func (s *loggingStmt) NumArgs() int { return s.inner.NumArgs() }
func (s *loggingStmt) Close() error { return s.inner.Close() }

func (s *loggingStmt) Exec(args []mem.Value) (*engine.Result, error) {
	text := s.instanceText(args)
	recv := time.Now()
	res, err := s.inner.Exec(args)
	entry := QueryLogEntry{
		LeaseID: s.c.tag.Load(),
		SQL:     text,
		Receive: recv,
		Deliver: time.Now(),
	}
	if err != nil {
		entry.Err = err.Error()
	}
	s.c.log.Append(entry)
	return res, err
}

// instanceText renders the bound instance for the query log.
func (s *loggingStmt) instanceText(args []mem.Value) string {
	lits := make([]sqlparser.Expr, len(args))
	for i, a := range args {
		lits[i] = a.Literal()
	}
	bound, err := sqlparser.Bind(s.parsed, lits)
	if err != nil {
		// Arity mismatch: the inner Exec will fail with the real error; log
		// a best-effort marker so the attempt is still visible.
		return fmt.Sprintf("%s /* unbindable: %v */", s.parsed.String(), err)
	}
	return bound.String()
}
