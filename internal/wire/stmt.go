package wire

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/sqlparser"
)

// Stmt is a client-side prepared statement. It tracks the connection epoch it
// was prepared under: the client's transparent redial invalidates server-side
// handles (they are per-connection), so Exec re-prepares automatically when
// it notices the connection changed, and once more if the server still
// reports the handle unknown.
type Stmt struct {
	c       *Client
	sql     string
	numArgs int

	mu     sync.Mutex
	id     int64
	epoch  uint64 // connection epoch the handle was prepared under
	closed bool
}

// Prepare compiles sql on the server and returns a reusable handle. The text
// is also parsed locally, to fail fast on syntax errors without a network
// roundtrip and to check the server's argument count.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{c: c, sql: sql, numArgs: len(sqlparser.Placeholders(parsed))}
	if err := s.prepareRemote(); err != nil {
		return nil, err
	}
	return s, nil
}

// NumArgs returns how many bind arguments Exec expects.
func (s *Stmt) NumArgs() int { return s.numArgs }

// prepareRemote sends PREPARE and records the handle and connection epoch.
// Callers hold s.mu or have exclusive access to s.
func (s *Stmt) prepareRemote() error {
	resp, err := s.c.roundTrip(Request{Op: OpPrepare, Query: s.sql})
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	if resp.NumArgs != s.numArgs {
		return fmt.Errorf("wire: server expects %d args for %q, client parsed %d", resp.NumArgs, s.sql, s.numArgs)
	}
	s.id = resp.StmtID
	s.epoch = s.c.connEpoch()
	return nil
}

// Exec runs the prepared statement with args bound to its placeholders.
func (s *Stmt) Exec(args []mem.Value) (*engine.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("wire: statement closed")
	}
	if len(args) != s.numArgs {
		return nil, fmt.Errorf("wire: statement wants %d args, got %d", s.numArgs, len(args))
	}
	if s.epoch != s.c.connEpoch() {
		// The connection was redialed since we prepared; the server-side
		// handle died with the old connection.
		if err := s.prepareRemote(); err != nil {
			return nil, err
		}
	}
	resp, err := s.c.roundTrip(Request{Op: OpExecute, StmtID: s.id, Args: args})
	if err == nil && strings.Contains(resp.Error, ErrUnknownStmt) {
		// Raced with a reconnect between the epoch check and the roundtrip,
		// or the server otherwise dropped the handle: re-prepare once.
		if err := s.prepareRemote(); err != nil {
			return nil, err
		}
		resp, err = s.c.roundTrip(Request{Op: OpExecute, StmtID: s.id, Args: args})
	}
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	return &engine.Result{Columns: resp.Columns, RowsAffected: resp.RowsAffected, Rows: resp.Rows}, nil
}

// Close releases the server-side handle. Best-effort: if the connection is
// down the handle died with it anyway.
func (s *Stmt) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.epoch != s.c.connEpoch() {
		return nil
	}
	s.c.roundTrip(Request{Op: OpCloseStmt, StmtID: s.id})
	return nil
}
