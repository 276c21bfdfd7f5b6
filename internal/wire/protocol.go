// Package wire implements the client/server protocol of the reproduction's
// DBMS: length-prefixed binary frames over TCP, from the first byte of every
// connection (see binary.go). It is the network boundary that the paper's
// JDBC drivers provided; the query-logging wrapper in internal/driver
// interposes on it exactly as the paper's JDBC wrapper did (§3.2), and the
// invalidator uses the LogSince operation to pull the database update log
// (§4.2.1).
package wire

import (
	"repro/internal/engine"
	"repro/internal/mem"
)

// Op is the request operation. Its value is the opcode byte that opens a
// request frame.
type Op byte

// Request operations.
const (
	OpQuery     Op = iota + 1 // execute one SQL statement
	OpLogSince                // fetch update-log records with LSN >= LSN
	OpPing                    // liveness probe
	OpPrepare                 // compile a statement, returning a handle
	OpExecute                 // execute a prepared handle with arguments
	OpCloseStmt               // release a prepared handle
	// OpSubscribeLog switches the connection into streaming mode: the server
	// pushes update-log record batches (and idle heartbeats) as frames on
	// this connection, starting at Request.LSN, until either side closes.
	// The connection is dedicated to the stream from then on.
	OpSubscribeLog
)

// ErrUnknownStmt is the error-text prefix a server sends when an EXECUTE or
// CLOSE_STMT names a handle this connection never prepared (or prepared on a
// previous connection — handles are per-connection, so a reconnect discards
// them). Clients detect it to re-prepare transparently.
const ErrUnknownStmt = "wire: unknown statement handle"

// Request is one client→server frame.
type Request struct {
	Op    Op
	Query string
	LSN   int64
	// StmtID names a prepared-statement handle for OpExecute / OpCloseStmt.
	StmtID int64
	// Args are the bind values for OpExecute, in placeholder order.
	Args []mem.Value
	// LogEpoch, on OpLogSince and OpSubscribeLog, is the epoch of the
	// update log LSN was taken from (0 when unknown). A server whose log
	// has another epoch answers as for a cursor past its head: truncated,
	// resuming at its oldest record.
	LogEpoch int64
}

// Response is one server→client frame.
type Response struct {
	Error        string
	Columns      []string
	Rows         []mem.Row
	RowsAffected int
	// Records are update-log records, each carrying its commit's
	// pipeline-trace context (Trace/Span) in-band.
	Records   []engine.UpdateRecord
	Truncated bool
	NextLSN   int64
	// FirstLSN is the oldest LSN the server's log still retained when this
	// response was built — the truncation context. Clients recompute
	// truncation as lsn < FirstLSN, so a reconnect mid-pull cannot lose the
	// flag's meaning (0 = context not needed).
	FirstLSN int64
	// LogEpoch is the epoch of the server's update log on OpLogSince
	// responses and SUBSCRIBE_LOG frames. It is not the client's
	// connection epoch: it changes only when the server starts a new log.
	LogEpoch int64
	// StmtID / NumArgs answer OpPrepare: the handle to execute by, and how
	// many bind arguments the statement expects.
	StmtID  int64
	NumArgs int
}
