package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Server serves a Database over the wire protocol. One goroutine per
// connection; frames on a connection are processed sequentially, matching
// the paper's per-connection JDBC semantics.
type Server struct {
	DB *engine.Database

	// QueryDelay, when non-nil, returns an artificial service time added
	// before executing each query; experiments use it to emulate slower
	// hardware without touching the engine.
	QueryDelay func(sql string) time.Duration

	// Logf, when non-nil, receives diagnostic messages (default: silent).
	Logf func(format string, args ...any)

	// HeartbeatInterval is how often an idle SUBSCRIBE_LOG stream sends an
	// empty keepalive frame so client read deadlines stay sound
	// (DefaultHeartbeat when 0).
	HeartbeatInterval time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	closeCh  chan struct{}
	wg       sync.WaitGroup

	// Stats
	queries    int64
	prepares   int64
	executes   int64
	subscribes int64
}

// maxConnStmts bounds prepared handles per connection; a client that leaks
// handles gets an error rather than growing server memory without bound.
const maxConnStmts = 1024

// connStmts is the per-connection prepared-statement table. serveConn
// processes frames sequentially, so no lock is needed.
type connStmts struct {
	next  int64
	stmts map[int64]*engine.PreparedStmt
}

// DefaultHeartbeat is the idle keepalive interval for SUBSCRIBE_LOG streams.
// It must stay below any client read deadline, so a live-but-quiet stream is
// distinguishable from a blackholed connection (the PR-3 fault model).
const DefaultHeartbeat = 2 * time.Second

// streamWriteTimeout bounds each frame write on a subscribe stream: a client
// that stops reading for this long is treated as gone and the stream drops
// (it resubscribes from its cursor, losing nothing).
const streamWriteTimeout = 30 * time.Second

// NewServer creates a server for db.
func NewServer(db *engine.Database) *Server {
	return &Server{DB: db, conns: make(map[net.Conn]struct{}), closeCh: make(chan struct{})}
}

// Listen binds addr ("host:port", ":0" for ephemeral) and starts accepting
// in a background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("wire: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cc := newCodec(conn)
	cs := &connStmts{stmts: make(map[int64]*engine.PreparedStmt)}
	for {
		var req Request
		if err := cc.readRequest(&req); err != nil {
			return // client went away or sent garbage; drop the connection
		}
		if req.Op == OpSubscribeLog {
			// The connection is dedicated to the stream from here on; when
			// the stream ends (either side closes, or a write stalls past its
			// deadline) the connection is dropped with it.
			s.serveSubscribe(conn, cc, req)
			return
		}
		resp := s.handle(req, cs)
		if err := cc.writeResponse(&resp); err != nil {
			return
		}
	}
}

// serveSubscribe streams update-log batches to one client. The first frame is
// an ack carrying the log's epoch, so the client learns the stream is open
// (and resets its reconnect backoff) without waiting for records or a
// heartbeat; after that, record batches are pushed as they arrive, with
// empty heartbeat frames when idle. Frames with records carry
// NextLSN/FirstLSN/Truncated exactly as a LogSince response would; empty
// frames carry no cursor and must not advance the client's. A cursor from
// another log (foreignCursor) turns the ack into a truncation frame, and the
// stream starts at this log's oldest record.
func (s *Server) serveSubscribe(conn net.Conn, cc *codec, req Request) {
	s.mu.Lock()
	s.subscribes++
	s.mu.Unlock()
	writeFrame := func(resp Response) error {
		conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		return cc.writeResponse(&resp)
	}
	log := s.DB.Log()
	ack, foreign := foreignCursor(log, req)
	if err := writeFrame(ack); err != nil {
		return
	}
	cursor := req.LSN
	if foreign {
		cursor = ack.NextLSN
	}
	sub := log.Subscribe(cursor, 0)
	defer sub.Close()
	hb := s.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case b, ok := <-sub.C:
			if !ok {
				return
			}
			resp := Response{Records: b.Recs, Truncated: b.Truncated, NextLSN: b.Next, FirstLSN: b.FirstSeq, LogEpoch: ack.LogEpoch}
			if err := writeFrame(resp); err != nil {
				return
			}
		case <-ticker.C:
			if err := writeFrame(Response{}); err != nil {
				return
			}
		case <-s.closeCh:
			return
		}
	}
}

func (s *Server) handle(req Request, cs *connStmts) Response {
	switch req.Op {
	case OpPing:
		return Response{}
	case OpPrepare:
		prep, err := s.DB.Prepare(req.Query)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if len(cs.stmts) >= maxConnStmts {
			return Response{Error: fmt.Sprintf("wire: too many prepared statements on this connection (max %d)", maxConnStmts)}
		}
		cs.next++
		cs.stmts[cs.next] = prep
		s.mu.Lock()
		s.prepares++
		s.mu.Unlock()
		return Response{StmtID: cs.next, NumArgs: prep.NumArgs()}
	case OpExecute:
		prep := cs.stmts[req.StmtID]
		if prep == nil {
			return Response{Error: fmt.Sprintf("%s %d", ErrUnknownStmt, req.StmtID)}
		}
		if d := s.queryDelay(prep.Template().Key); d > 0 {
			time.Sleep(d)
		}
		s.mu.Lock()
		s.queries++
		s.executes++
		s.mu.Unlock()
		res, err := prep.Exec(req.Args)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{Columns: res.Columns, RowsAffected: res.RowsAffected, Rows: res.Rows}
	case OpCloseStmt:
		if _, ok := cs.stmts[req.StmtID]; !ok {
			return Response{Error: fmt.Sprintf("%s %d", ErrUnknownStmt, req.StmtID)}
		}
		delete(cs.stmts, req.StmtID)
		return Response{}
	case OpQuery:
		if d := s.queryDelay(req.Query); d > 0 {
			time.Sleep(d)
		}
		s.mu.Lock()
		s.queries++
		s.mu.Unlock()
		res, err := s.DB.ExecSQL(req.Query)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{Columns: res.Columns, RowsAffected: res.RowsAffected, Rows: res.Rows}
	case OpLogSince:
		log := s.DB.Log()
		if resp, foreign := foreignCursor(log, req); foreign {
			return resp
		}
		// SinceNext observes records, cursor, and truncation context under one
		// lock acquisition; reading NextLSN separately would race with appends
		// and hand the client a cursor past records it never received.
		recs, truncated, next, first := log.SinceNext(req.LSN)
		return Response{Records: recs, Truncated: truncated, NextLSN: next, FirstLSN: first, LogEpoch: log.Epoch()}
	default:
		return Response{Error: fmt.Sprintf("wire: unknown op %d", req.Op)}
	}
}

// foreignCursor checks a log reader's cursor against this server's log. A
// cursor taken from another log — another epoch, or past this log's head,
// as after a restart — has nothing to resume: the reply flags the loss and
// points the reader at this log's oldest record (foreign is true).
// Otherwise the reply carries only the log's epoch.
func foreignCursor(log *engine.UpdateLog, req Request) (resp Response, foreign bool) {
	resp.LogEpoch = log.Epoch()
	if (req.LogEpoch == 0 || req.LogEpoch == resp.LogEpoch) && req.LSN <= log.NextLSN() {
		return resp, false
	}
	resp.Truncated = true
	resp.NextLSN = log.FirstLSN()
	resp.FirstLSN = resp.NextLSN
	return resp, true
}

func (s *Server) queryDelay(sql string) time.Duration {
	if s.QueryDelay == nil {
		return 0
	}
	return s.QueryDelay(sql)
}

// Queries returns the number of queries served so far (text and prepared).
func (s *Server) Queries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// Prepares returns the number of PREPARE frames served.
func (s *Server) Prepares() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepares
}

// Executes returns the number of EXECUTE frames served.
func (s *Server) Executes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.executes
}

// Subscribes returns the number of SUBSCRIBE_LOG streams accepted.
func (s *Server) Subscribes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subscribes
}

// Conns returns the number of live client connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Instrument registers the server's counters with reg under "<prefix>.":
// queries served, open connections, the update log's next LSN (its growth
// rate is the site's write throughput), and the engine's statement-cache and
// access-path counters (a growing write_scans is an UPDATE or DELETE shape
// with no index to probe). Pull-style gauges — the query path is untouched.
func (s *Server) Instrument(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+".queries_total", s.Queries)
	reg.GaugeFunc(prefix+".prepares_total", s.Prepares)
	reg.GaugeFunc(prefix+".executes_total", s.Executes)
	reg.GaugeFunc(prefix+".conns", func() int64 { return int64(s.Conns()) })
	reg.GaugeFunc(prefix+".log_next_lsn", func() int64 { return s.DB.Log().NextLSN() })
	reg.GaugeFunc(prefix+".subscribes_total", s.Subscribes)
	reg.GaugeFunc(prefix+".log_subscribers", func() int64 { return int64(s.DB.Log().Hub().Stats().Subscribers) })
	reg.GaugeFunc(prefix+".log_feed_lag", func() int64 { return s.DB.Log().Hub().Lag() })
	reg.GaugeFunc(prefix+".stmt_text_hits", func() int64 { return s.DB.StmtCacheStats().TextHits })
	reg.GaugeFunc(prefix+".stmt_template_hits", func() int64 { return s.DB.StmtCacheStats().TemplateHits })
	reg.GaugeFunc(prefix+".stmt_template_misses", func() int64 { return s.DB.StmtCacheStats().TemplateMisses })
	reg.GaugeFunc(prefix+".index_hash_probes", func() int64 { return s.DB.IndexStats().HashProbes })
	reg.GaugeFunc(prefix+".index_range_probes", func() int64 { return s.DB.IndexStats().RangeProbes })
	reg.GaugeFunc(prefix+".write_probes", func() int64 { return s.DB.IndexStats().WriteProbes })
	reg.GaugeFunc(prefix+".write_scans", func() int64 { return s.DB.IndexStats().WriteScans })
	reg.GaugeFunc(prefix+".write_rows_examined", func() int64 { return s.DB.IndexStats().WriteRowsExamined })
}

// Close stops accepting, closes every live connection, and waits for
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closeCh)
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}
