// Package logexport lets the sniffer/invalidator run on a separate machine,
// as in the paper's Figure 7: "the invalidator sits on a separate machine
// which fetches the logs from the appropriate servers at regular
// intervals". The application server exposes its request log and query log
// over HTTP; the remote side mirrors them into local log instances that the
// ordinary sniffer.Mapper consumes unchanged.
package logexport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appserver"
	"repro/internal/backoff"
	"repro/internal/driver"
	"repro/internal/feed"
	"repro/internal/httpx"
)

// DefaultPathPrefix is where the exporter mounts its endpoints.
const DefaultPathPrefix = "/_cacheportal"

// The pages carry the logs' own entries, in encoding/json's default form.
type (
	wireRequestEntry = appserver.RequestLogEntry
	wireQueryEntry   = driver.QueryLogEntry
)

// logPage is one pull's answer, the same shape for both logs: the entries
// at or after the cursor, whether the log had already trimmed past it, the
// cursor to pull from next, the oldest retained entry, and the log's epoch.
type logPage[T any] struct {
	Entries   []T   `json:"entries"`
	Truncated bool  `json:"truncated"`
	Next      int64 `json:"next"` // pass as ?since= on the next pull
	First     int64 `json:"first"`
	Epoch     int64 `json:"epoch"`
}

// DefaultMaxWait caps the ?wait= long-poll duration an exporter will honor.
const DefaultMaxWait = 25 * time.Second

// Exporter serves the two logs over HTTP. Both endpoints accept
// ?since=<cursor> (alias: ?cursor=) and an optional &wait=<duration>: with
// wait, a request at the log head blocks until an entry arrives or the wait
// elapses (long poll), turning the pull endpoints into a change feed without
// a new protocol.
type Exporter struct {
	Requests *appserver.RequestLog
	Queries  *driver.QueryLog
	// MaxWait caps honored ?wait= values (DefaultMaxWait when 0).
	MaxWait time.Duration
}

// Handler returns the exporter's http.Handler; mount it under
// DefaultPathPrefix.
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(DefaultPathPrefix+"/logs/requests", func(w http.ResponseWriter, r *http.Request) {
		servePage(w, r, e.Requests.Log, e.waitParam(r))
	})
	mux.HandleFunc(DefaultPathPrefix+"/logs/queries", func(w http.ResponseWriter, r *http.Request) {
		servePage(w, r, e.Queries.Log, e.waitParam(r))
	})
	return mux
}

func sinceParam(r *http.Request) int64 {
	q := r.URL.Query()
	s := q.Get("cursor")
	if s == "" {
		s = q.Get("since")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 {
		return 1
	}
	return n
}

func (e *Exporter) waitParam(r *http.Request) time.Duration {
	d, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil || d <= 0 {
		return 0
	}
	max := e.MaxWait
	if max <= 0 {
		max = DefaultMaxWait
	}
	return min(d, max)
}

// servePage answers one pull of log: the page at the request's cursor,
// after a long poll of up to wait when the cursor is at the head.
func servePage[T any](w http.ResponseWriter, r *http.Request, log *feed.Log[T], wait time.Duration) {
	since := sinceParam(r)
	log.Wait(r.Context().Done(), since, wait)
	entries, truncated, next, first := log.SinceNext(since)
	writeJSON(w, logPage[T]{Entries: entries, Truncated: truncated, Next: next, First: first, Epoch: log.Epoch()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Wrap serves the exporter's endpoints alongside an existing handler: paths
// under DefaultPathPrefix go to the exporter, everything else to next.
func (e *Exporter) Wrap(next http.Handler) http.Handler {
	h := e.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.Path) >= len(DefaultPathPrefix) && r.URL.Path[:len(DefaultPathPrefix)] == DefaultPathPrefix {
			h.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// DefaultLongPoll is the ?wait= duration Run uses when Mirror.LongPoll is
// unset. It stays well under the shared client's whole-request timeout
// (httpx.DefaultTimeout) so a held-open empty response is never mistaken for
// a hung server.
const DefaultLongPoll = 5 * time.Second

// Mirror pulls both remote logs into local RequestLog/QueryLog instances so
// an unmodified sniffer.Mapper can run against them on another machine.
// Sync pulls one snapshot of each log; Run long-polls both endpoints on
// dedicated goroutines so entries land as they are appended. A loss
// upstream — the exporter's log trimmed past the mirror's cursor, or a
// restarted application server began a new log — reaches the local log as
// a skipped sequence, so the mapper reading it reports truncation.
type Mirror struct {
	// BaseURL is the application server's base URL (the exporter is
	// expected under BaseURL + DefaultPathPrefix).
	BaseURL string
	// Client defaults to the shared timeout-bearing client (httpx.Default),
	// so a hung application server cannot stall the invalidation loop.
	Client *http.Client
	// LongPoll is the ?wait= duration Run sends (DefaultLongPoll when 0).
	// Keep it below the HTTP client's whole-request timeout.
	LongPoll time.Duration

	// Requests and Queries are the local mirrors; NewMirror creates them.
	Requests *appserver.RequestLog
	Queries  *driver.QueryLog

	reqs    mirrored[wireRequestEntry]
	queries mirrored[wireQueryEntry]
}

// mirrored is the pull state of one remote log. Its mutex is held across a
// whole page pull (fetch, append, cursor advance): Run's pumps and explicit
// Sync calls may interleave, and every remote entry must be appended
// locally exactly once. The two logs stay independent so one log's long
// poll never stalls the other.
//
// Sync preemption: a pump's parked long poll holds the mutex, so a Sync
// that simply queued behind it would wait out the whole ?wait= window —
// fatal for event-driven cycles, whose soundness pull must run at
// roundtrip latency. The pump publishes a cancel for its in-flight park;
// Sync bumps the waiter count and fires the cancel, and a pump that sees
// waiters > 0 downgrades to wait=0 so it cannot re-park ahead of the Sync.
// Order matters on both sides: the pump stores the cancel before checking
// the count, Sync bumps the count before loading the cancel — whichever
// way the race lands, the park is either cut short or never entered.
type mirrored[T any] struct {
	path string // endpoint name under DefaultPathPrefix/logs/

	mu    sync.Mutex
	next  int64 // remote cursor
	epoch int64 // remote log the cursor indexes; 0 before the first page

	syncs  atomic.Int32
	cancel atomic.Value // context.CancelFunc
}

// NewMirror builds a mirror of the exporter at baseURL.
func NewMirror(baseURL string) *Mirror {
	return &Mirror{
		BaseURL:  baseURL,
		Requests: appserver.NewRequestLog(0),
		Queries:  driver.NewQueryLog(0),
		reqs:     mirrored[wireRequestEntry]{path: "requests", next: 1},
		queries:  mirrored[wireQueryEntry]{path: "queries", next: 1},
	}
}

func getJSON[T any](ctx context.Context, c *http.Client, url string, out *logPage[T]) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("logexport: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sync pulls one page (held open up to wait when > 0) from the mirror's
// exporter into local, returning how many entries it appended.
func (s *mirrored[T]) sync(ctx context.Context, m *Mirror, local *feed.Log[T], wait time.Duration) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		s.cancel.Store(cancel)
		if s.syncs.Load() > 0 {
			wait = 0 // a Sync is waiting for this lock; don't park on its turn
		}
	}
	url := fmt.Sprintf("%s%s/logs/%s?cursor=%d", m.BaseURL, DefaultPathPrefix, s.path, s.next)
	if wait > 0 {
		url += "&wait=" + wait.String()
	}
	var page logPage[T]
	if err := getJSON(ctx, httpx.Client(m.Client), url, &page); err != nil {
		return 0, err
	}
	if (s.epoch != 0 && page.Epoch != s.epoch) || page.Next < s.next {
		// The cursor indexes a log that is gone: report the loss and
		// re-read the new log from its oldest entry.
		local.Skip()
		s.epoch, s.next = page.Epoch, page.First
		return 0, nil
	}
	s.epoch = page.Epoch
	if page.Truncated {
		local.Skip()
	}
	for _, en := range page.Entries {
		local.Append(en)
	}
	s.next = page.Next
	return len(page.Entries), nil
}

// preempt runs one sync at wait=0, cutting short a pump's parked long poll
// instead of queueing behind it (the pump retries from its cursor, losing
// nothing).
func (s *mirrored[T]) preempt(m *Mirror, local *feed.Log[T]) (int, error) {
	s.syncs.Add(1)
	defer s.syncs.Add(-1)
	if c, ok := s.cancel.Load().(context.CancelFunc); ok {
		c()
	}
	return s.sync(context.Background(), m, local, 0)
}

// Sync pulls one page of each log. It returns how many entries arrived.
// While Run's pumps are active, Sync preempts a parked long poll instead of
// queueing behind it, so the synchronous head observation an event-driven
// cycle depends on costs a roundtrip, not a long-poll window.
func (m *Mirror) Sync() (int, error) {
	n, err := m.reqs.preempt(m, m.Requests.Log)
	if err != nil {
		return n, err
	}
	nq, err := m.queries.preempt(m, m.Queries.Log)
	return n + nq, err
}

// Run long-polls both log endpoints until stop closes, mirroring entries as
// the application server appends them. Each log gets its own pump goroutine
// so a quiet request log cannot delay query delivery. Errors back off
// exponentially and the pump resumes from its cursor, so a dropped or
// restarted connection costs latency, never entries. Run returns once both
// pumps have exited; in-flight requests are canceled via context.
func (m *Mirror) Run(stop <-chan struct{}) {
	wait := m.LongPoll
	if wait <= 0 {
		wait = DefaultLongPoll
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-stop; cancel() }()
	var wg sync.WaitGroup
	pump := func(sync func(context.Context, time.Duration) (int, error)) {
		defer wg.Done()
		failures := 0
		for ctx.Err() == nil {
			if _, err := sync(ctx, wait); err != nil {
				if errors.Is(err, context.Canceled) && ctx.Err() == nil {
					// A Sync preempted the park; it advances the cursor
					// itself, so just resume from wherever it leaves off.
					failures = 0
					continue
				}
				failures++
				t := time.NewTimer(backoff.Delay(250*time.Millisecond, failures, 5*time.Second))
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
				continue
			}
			failures = 0
		}
	}
	wg.Add(2)
	go pump(func(ctx context.Context, wait time.Duration) (int, error) {
		return m.reqs.sync(ctx, m, m.Requests.Log, wait)
	})
	go pump(func(ctx context.Context, wait time.Duration) (int, error) {
		return m.queries.sync(ctx, m, m.Queries.Log, wait)
	})
	wg.Wait()
}
