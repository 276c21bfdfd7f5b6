package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestEjectLogSinceAndRetention(t *testing.T) {
	l := NewEjectLog(4)
	for i := 0; i < 6; i++ {
		l.Append([]string{string(rune('a' + i))})
	}
	// Records 1 and 2 fell out of the 4-record retention.
	recs, trunc, next, first := l.Since(1)
	if !trunc {
		t.Fatal("expired cursor not flagged truncated")
	}
	if first != 3 || next != 7 || len(recs) != 4 {
		t.Fatalf("Since(1) = %d recs, first=%d next=%d", len(recs), first, next)
	}
	if recs[0].Seq != 3 {
		t.Fatalf("oldest retained seq = %d, want 3", recs[0].Seq)
	}
	// A live cursor reads exactly the tail, no truncation.
	recs, trunc, _, _ = l.Since(6)
	if trunc || len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("Since(6) = %v trunc=%v", recs, trunc)
	}
	// A caught-up cursor reads nothing.
	recs, trunc, _, _ = l.Since(7)
	if trunc || len(recs) != 0 {
		t.Fatalf("Since(head) = %v trunc=%v", recs, trunc)
	}
}

func TestEjectLogChangedWakesBeforeRead(t *testing.T) {
	l := NewEjectLog(0)
	ch := l.Changed()
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	l.Append([]string{"k"})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Changed channel never closed on append")
	}
}

func TestStreamHandlerLongPoll(t *testing.T) {
	l := NewEjectLog(0)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	c := &Consumer{URL: srv.URL, Wait: 2 * time.Second}
	var mu sync.Mutex
	var got []string
	c.Apply = func(keys []string, _ string) {
		mu.Lock()
		got = append(got, keys...)
		mu.Unlock()
	}
	c.Clear = func() { t.Error("unexpected clear") }
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Run(stop)
		close(done)
	}()

	// The append lands while a long poll is parked; the consumer must see
	// it promptly rather than waiting out the full poll window.
	time.Sleep(50 * time.Millisecond)
	l.Append([]string{"k1", "k2"})
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long-poll consumer never saw the append")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	if !reflect.DeepEqual(got, []string{"k1", "k2"}) {
		t.Fatalf("applied %v", got)
	}
	mu.Unlock()
	close(stop)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("consumer did not stop; in-flight poll not aborted")
	}
	if c.Cursor() != 2 {
		t.Fatalf("cursor = %d, want 2", c.Cursor())
	}
}

func TestConsumerCursorResume(t *testing.T) {
	l := NewEjectLog(0)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	l.Append([]string{"a"})
	l.Append([]string{"b"})

	run := func(c *Consumer) {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { c.Run(stop); close(done) }()
		deadline := time.Now().Add(3 * time.Second)
		for c.Cursor() < l.NextSeq() {
			if time.Now().After(deadline) {
				t.Fatalf("consumer stuck at cursor %d, head %d", c.Cursor(), l.NextSeq())
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
		<-done
	}

	var mu sync.Mutex
	var got []string
	apply := func(keys []string, _ string) { mu.Lock(); got = append(got, keys...); mu.Unlock() }
	first := &Consumer{URL: srv.URL, Wait: 50 * time.Millisecond, Apply: apply, Clear: func() {}}
	run(first)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("first run applied %v", got)
	}

	// While the consumer is down, more ejects land. A second consumer
	// resuming at the saved cursor applies only the missed records.
	l.Append([]string{"c"})
	l.Append([]string{"d"})
	got = nil
	second := &Consumer{URL: srv.URL, Wait: 50 * time.Millisecond, Apply: apply, Clear: func() {}}
	second.SetCursor(first.Cursor())
	run(second)
	if !reflect.DeepEqual(got, []string{"c", "d"}) {
		t.Fatalf("resumed run applied %v, want only the missed records", got)
	}
}

func TestConsumerTruncationClears(t *testing.T) {
	l := NewEjectLog(2)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	for i := 0; i < 8; i++ {
		l.Append([]string{"k"})
	}
	cleared := make(chan struct{}, 1)
	c := &Consumer{
		URL:   srv.URL,
		Wait:  50 * time.Millisecond,
		Apply: func([]string, string) {},
		Clear: func() {
			select {
			case cleared <- struct{}{}:
			default:
			}
		},
	}
	c.SetCursor(1) // long gone: retention kept only seqs 7..8
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { c.Run(stop); close(done) }()
	select {
	case <-cleared:
	case <-time.After(3 * time.Second):
		t.Fatal("truncated consumer never cleared")
	}
	close(stop)
	<-done
	if c.Cleared() == 0 {
		t.Fatal("Cleared counter not bumped")
	}
	if c.Cursor() != l.NextSeq() {
		t.Fatalf("cursor = %d after recovery, want head %d", c.Cursor(), l.NextSeq())
	}
}

// TestConsumerRewindOnNewLog: the invalidator behind the stream URL
// restarts, so a fresh log (new epoch, sequences from 1 again) answers a
// consumer whose cursor is past the new head. The consumer must clear once
// — ejects appended between the two logs are lost to it — and then apply
// every record of the new log, instead of waiting for the new log to pass
// its old cursor.
func TestConsumerRewindOnNewLog(t *testing.T) {
	var current atomic.Pointer[EjectLog]
	current.Store(NewEjectLog(0))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	for i := 0; i < 9; i++ {
		current.Load().Append([]string{"old"})
	}

	var mu sync.Mutex
	var got []string
	c := &Consumer{
		URL:  srv.URL,
		Wait: 50 * time.Millisecond,
		Apply: func(keys []string, _ string) {
			mu.Lock()
			got = append(got, keys...)
			mu.Unlock()
		},
		Clear: func() {},
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { c.Run(stop); close(done) }()
	defer func() { close(stop); <-done }()
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: cursor %d, cleared %d", what, c.Cursor(), c.Cleared())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("old log consumed", func() bool { return c.Cursor() == 10 })
	if c.Cleared() != 0 {
		t.Fatalf("cleared %d times on the first log", c.Cleared())
	}

	fresh := NewEjectLog(0)
	current.Store(fresh)
	fresh.Append([]string{"new1"})
	waitFor("new log's first record applied", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 10
	})
	fresh.Append([]string{"new2"})
	waitFor("new log consumed", func() bool { return c.Cursor() == fresh.NextSeq() })
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"new1", "new2"}; !reflect.DeepEqual(got[9:], want) {
		t.Fatalf("applied %v from the new log, want %v", got[9:], want)
	}
	if c.Cleared() != 1 {
		t.Fatalf("cleared %d times across the restart, want exactly 1", c.Cleared())
	}
}

// TestConsumerResumesPromptlyAfterRestart: the invalidator behind the
// stream URL goes down, and the consumer must fail six polls within 2 s of
// it, which a retry delay that doubles from 250 ms (at most 25 % early)
// could not do in under 5.8 s. A fresh log then answers on the same
// address, and the consumer must clear and apply its first record within
// 500 ms.
func TestConsumerResumesPromptlyAfterRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serve := func(ln net.Listener, l *EjectLog) *http.Server {
		srv := &http.Server{Handler: l.Handler()}
		go srv.Serve(ln)
		return srv
	}
	old := NewEjectLog(0)
	old.Append([]string{"old"})
	srv := serve(ln, old)

	var mu sync.Mutex
	var got []string
	var failures atomic.Int64
	c := &Consumer{
		URL:  "http://" + addr + "/",
		Wait: 50 * time.Millisecond,
		Apply: func(keys []string, _ string) {
			mu.Lock()
			got = append(got, keys...)
			mu.Unlock()
		},
		Clear:   func() {},
		OnError: func(error) { failures.Add(1) },
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { c.Run(stop); close(done) }()
	defer func() { close(stop); <-done }()
	applied := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == n
		}
	}
	for deadline := time.Now().Add(3 * time.Second); !applied(1)(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("old log's record not applied")
		}
	}

	failures.Store(0)
	srv.Close()
	for down := time.Now(); failures.Load() < 6; time.Sleep(5 * time.Millisecond) {
		if waited := time.Since(down); waited > 2*time.Second {
			t.Fatalf("%d failed polls in the %v after the producer stopped, want 6", failures.Load(), waited)
		}
	}
	fresh := NewEjectLog(0)
	fresh.Append([]string{"new1"})
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	restart := time.Now()
	srv = serve(ln, fresh)
	defer srv.Close()
	for !applied(2)() {
		if waited := time.Since(restart); waited > 500*time.Millisecond {
			t.Fatalf("new log's first record not applied %v after the restart (cleared %d)", waited, c.Cleared())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Cleared() != 1 {
		t.Fatalf("cleared %d times across the restart, want 1", c.Cleared())
	}
}

func TestStreamEjector(t *testing.T) {
	l := NewEjectLog(0)
	e := StreamEjector{Log: l}
	if err := e.Eject([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Eject(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.EjectAll(); err != nil {
		t.Fatal(err)
	}
	// A traced batch carries its distinct contexts in key order.
	ctxs := map[string]trace.Context{
		"k1": {Trace: 41, Span: 7},
		"k2": {Trace: 43, Span: 9},
		"k3": {Trace: 41, Span: 7},
	}
	if err := e.EjectTraced([]string{"k1", "k2", "k3", "k4"}, ctxs); err != nil {
		t.Fatal(err)
	}
	recs, _, next, _ := l.Since(1)
	// The empty eject must not have appended a record.
	if len(recs) != 3 || next != 4 {
		t.Fatalf("log has %d records, next=%d", len(recs), next)
	}
	if !reflect.DeepEqual(recs[0].Keys, []string{"x"}) || recs[0].Clear || recs[0].Traces != "" {
		t.Fatalf("rec 1 = %+v", recs[0])
	}
	if !recs[1].Clear {
		t.Fatalf("rec 2 = %+v, want clear", recs[1])
	}
	if recs[2].Traces != "41:7,43:9" || len(recs[2].Keys) != 4 {
		t.Fatalf("rec 3 = %+v, want traces \"41:7,43:9\" on 4 keys", recs[2])
	}
}
