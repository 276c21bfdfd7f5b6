// Package wire implements the client/server protocol of the reproduction's
// DBMS: newline-delimited JSON frames over TCP, upgradable per connection to
// length-prefixed binary frames via the HELLO handshake (see binary.go).
// It is the network boundary
// that the paper's JDBC drivers provided; the query-logging wrapper in
// internal/driver interposes on it exactly as the paper's JDBC wrapper did
// (§3.2), and the invalidator uses the LogSince operation to pull the
// database update log (§4.2.1).
package wire

import (
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
)

// Op is the request operation.
type Op string

// Request operations.
const (
	OpQuery     Op = "query"     // execute one SQL statement
	OpLogSince  Op = "logsince"  // fetch update-log records with LSN >= LSN
	OpPing      Op = "ping"      // liveness probe
	OpPrepare   Op = "prepare"   // compile a statement, returning a handle
	OpExecute   Op = "execute"   // execute a prepared handle with arguments
	OpCloseStmt Op = "closestmt" // release a prepared handle
	// OpSubscribeLog switches the connection into streaming mode: the server
	// pushes update-log record batches (and idle heartbeats) as frames on
	// this connection, starting at Request.LSN, until either side closes.
	// The connection is dedicated to the stream from then on.
	OpSubscribeLog Op = "subscribelog"
	// OpHello negotiates the binary framing (see binary.go). The request
	// carries the highest WireVersion the client speaks; the response carries
	// the version the server selected (0 = stay on JSON). Both frames are
	// always JSON; on agreement the very next frame in each direction is
	// binary. An old server answers with its usual unknown-op error, which a
	// client treats exactly like the PREPARE and SUBSCRIBE_LOG fallbacks: it
	// stays on JSON permanently.
	OpHello Op = "hello"
)

// ErrUnknownStmt is the error-text prefix a server sends when an EXECUTE or
// CLOSE_STMT names a handle this connection never prepared (or prepared on a
// previous connection — handles are per-connection, so a reconnect discards
// them). Clients detect it to re-prepare transparently.
const ErrUnknownStmt = "wire: unknown statement handle"

// Request is one client→server frame.
type Request struct {
	Op    Op     `json:"op"`
	Query string `json:"query,omitempty"`
	LSN   int64  `json:"lsn,omitempty"`
	// StmtID names a prepared-statement handle for OpExecute / OpCloseStmt.
	StmtID int64 `json:"stmt_id,omitempty"`
	// Args are the bind values for OpExecute, in placeholder order.
	Args []WireValue `json:"args,omitempty"`
	// WireVersion is the binary protocol version offered by OpHello (zero
	// on every other op, and when the client is JSON-only).
	WireVersion int `json:"wire_version,omitempty"`
}

// LogRecord is the wire form of an engine.UpdateRecord. Trace/Span carry
// the commit's pipeline-trace context in-band (omitted when zero, so
// untraced deployments and old peers see identical frames).
type LogRecord struct {
	LSN     int64       `json:"lsn"`
	TimeNS  int64       `json:"time_ns"`
	Table   string      `json:"table"`
	Op      string      `json:"op"` // "INSERT" or "DELETE"
	Columns []string    `json:"columns"`
	Row     []WireValue `json:"row"`
	Trace   int64       `json:"trace,omitempty"`
	Span    int64       `json:"span,omitempty"`
}

// WireValue is the wire form of a mem.Value.
type WireValue struct {
	// K is the kind: "n" null, "i" int, "f" float, "s" string, "b" bool.
	K string  `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
	B bool    `json:"b,omitempty"`
}

// Response is one server→client frame.
type Response struct {
	Error        string        `json:"error,omitempty"`
	Columns      []string      `json:"columns,omitempty"`
	Rows         [][]WireValue `json:"rows,omitempty"`
	RowsAffected int           `json:"rows_affected,omitempty"`
	Records      []LogRecord   `json:"records,omitempty"`
	Truncated    bool          `json:"truncated,omitempty"`
	NextLSN      int64         `json:"next_lsn,omitempty"`
	// FirstLSN is the oldest LSN the server's log still retained when this
	// response was built — the truncation context. Clients recompute
	// truncation as lsn < FirstLSN, so a reconnect mid-pull cannot lose the
	// flag's meaning (0 = context not needed / pre-FirstLSN server).
	FirstLSN int64 `json:"first_lsn,omitempty"`
	// StmtID / NumArgs answer OpPrepare: the handle to execute by, and how
	// many bind arguments the statement expects.
	StmtID  int64 `json:"stmt_id,omitempty"`
	NumArgs int   `json:"num_args,omitempty"`
	// WireVersion answers OpHello: the binary protocol version the server
	// selected (0 = the connection stays on JSON framing).
	WireVersion int `json:"wire_version,omitempty"`
}

// EncodeValue converts a mem.Value to its wire form.
func EncodeValue(v mem.Value) WireValue {
	switch v.Kind {
	case mem.KindInt:
		return WireValue{K: "i", I: v.I}
	case mem.KindFloat:
		return WireValue{K: "f", F: v.F}
	case mem.KindString:
		return WireValue{K: "s", S: v.S}
	case mem.KindBool:
		return WireValue{K: "b", B: v.B}
	default:
		return WireValue{K: "n"}
	}
}

// DecodeValue converts a wire value back to a mem.Value. Unknown kinds
// decode as NULL, keeping the decoder total.
func DecodeValue(w WireValue) mem.Value {
	switch w.K {
	case "i":
		return mem.Int(w.I)
	case "f":
		return mem.Float(w.F)
	case "s":
		return mem.Str(w.S)
	case "b":
		return mem.Bool(w.B)
	default:
		return mem.Null()
	}
}

// EncodeRow converts a mem.Row.
func EncodeRow(r mem.Row) []WireValue {
	out := make([]WireValue, len(r))
	for i, v := range r {
		out[i] = EncodeValue(v)
	}
	return out
}

// DecodeRow converts a wire row.
func DecodeRow(ws []WireValue) mem.Row {
	out := make(mem.Row, len(ws))
	for i, w := range ws {
		out[i] = DecodeValue(w)
	}
	return out
}

// encodeRows converts result rows, sized once; no rows encode as nil.
func encodeRows(rows []mem.Row) [][]WireValue {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]WireValue, len(rows))
	for i, r := range rows {
		out[i] = EncodeRow(r)
	}
	return out
}

// decodeRows converts wire rows, sized once; no rows decode as nil.
func decodeRows(ws [][]WireValue) []mem.Row {
	if len(ws) == 0 {
		return nil
	}
	out := make([]mem.Row, len(ws))
	for i, w := range ws {
		out[i] = DecodeRow(w)
	}
	return out
}

// EncodeRecord converts an engine.UpdateRecord.
func EncodeRecord(r engine.UpdateRecord) LogRecord {
	return LogRecord{
		LSN:     r.LSN,
		TimeNS:  r.Time.UnixNano(),
		Table:   r.Table,
		Op:      r.Op.String(),
		Columns: r.Columns,
		Row:     EncodeRow(r.Row),
		Trace:   r.Trace,
		Span:    r.Span,
	}
}

// DecodeRecord converts a wire record back to an engine.UpdateRecord.
func DecodeRecord(r LogRecord) engine.UpdateRecord {
	op := engine.OpInsert
	if r.Op == "DELETE" {
		op = engine.OpDelete
	}
	return engine.UpdateRecord{
		LSN:     r.LSN,
		Time:    time.Unix(0, r.TimeNS),
		Table:   r.Table,
		Op:      op,
		Columns: r.Columns,
		Row:     DecodeRow(r.Row),
		Trace:   r.Trace,
		Span:    r.Span,
	}
}
