package invalidator

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chanNotifier is a hand-cranked LogNotifier with the close-and-replace
// broadcast semantics of the real logs.
type chanNotifier struct {
	mu sync.Mutex
	ch chan struct{}
}

func newChanNotifier() *chanNotifier {
	return &chanNotifier{ch: make(chan struct{})}
}

func (n *chanNotifier) Changed() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ch
}

func (n *chanNotifier) Fire() {
	n.mu.Lock()
	defer n.mu.Unlock()
	close(n.ch)
	n.ch = make(chan struct{})
}

// loopHarness runs RunLoop against a hand-cranked notifier and a cycle func
// the test scripts: every cycle announces itself on started and, when gate is
// non-nil, blocks until the test sends on it.
type loopHarness struct {
	n       *chanNotifier
	started chan struct{}
	gate    chan struct{}
	fail    atomic.Bool
	cycles  atomic.Int64
	events  atomic.Int64
	stop    chan struct{}
	done    chan struct{}
}

func startLoop(interval time.Duration, gated, failing bool) *loopHarness {
	h := &loopHarness{
		n: newChanNotifier(),
		// Room for every cycle a test awaits one by one; a cycle that finds
		// it full (free-running timer or event cycles nobody awaits) skips
		// the announcement rather than stall the loop.
		started: make(chan struct{}, 64),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if gated {
		h.gate = make(chan struct{})
	}
	h.fail.Store(failing)
	go func() {
		defer close(h.done)
		RunLoop(interval, h.n, h.stop, func() error {
			h.cycles.Add(1)
			select {
			case h.started <- struct{}{}:
			default:
			}
			if h.gate != nil {
				<-h.gate
			}
			if h.fail.Load() {
				return errors.New("scripted failure")
			}
			return nil
		}, func() { h.events.Add(1) })
	}()
	return h
}

// awaitCycle waits for the next cycle to start.
func (h *loopHarness) awaitCycle(t *testing.T, what string) {
	t.Helper()
	select {
	case <-h.started:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no cycle started", what)
	}
}

// expectQuiet asserts no cycle starts for a few milliseconds.
func (h *loopHarness) expectQuiet(t *testing.T, what string) {
	t.Helper()
	select {
	case <-h.started:
		t.Fatalf("%s: unexpected extra cycle", what)
	case <-time.After(5 * time.Millisecond):
	}
}

// halt closes stop and requires RunLoop to return promptly.
func (h *loopHarness) halt(t *testing.T) {
	t.Helper()
	close(h.stop)
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunLoop did not return after stop")
	}
}

// TestRunLoopTimerFallback pins the degradation path: with a notifier that
// never fires (an old server, a feed in fallback), the interval timer alone
// keeps cycles coming.
func TestRunLoopTimerFallback(t *testing.T) {
	h := startLoop(2*time.Millisecond, false, false)
	for i := 0; i < 4; i++ {
		h.awaitCycle(t, "timer fallback")
	}
	if e := h.events.Load(); e != 0 {
		t.Fatalf("%d event cycles counted with a silent notifier", e)
	}
	h.halt(t)
}

// TestRunLoopLeadingEdge: one wake on an idle loop runs exactly one cycle at
// once — the fallback timer is an hour away, so a cycle that runs at all did
// not wait for a timer.
func TestRunLoopLeadingEdge(t *testing.T) {
	h := startLoop(time.Hour, false, false)
	h.awaitCycle(t, "catch-up")
	h.expectQuiet(t, "idle after catch-up")

	fired := time.Now()
	h.n.Fire()
	h.awaitCycle(t, "leading edge")
	if d := time.Since(fired); d > time.Second {
		t.Fatalf("wake-to-cycle took %v", d)
	}
	h.expectQuiet(t, "after the one wake")
	if c, e := h.cycles.Load(), h.events.Load(); c != 2 || e != 1 {
		t.Fatalf("cycles=%d events=%d, want 2 (catch-up + wake) and 1", c, e)
	}
	h.halt(t)
}

// TestRunLoopFoldsWhileRunning: wakes delivered while a cycle is in flight
// cost exactly one following cycle, started the moment the running one
// returns — batching comes from cycle time, not from a window.
func TestRunLoopFoldsWhileRunning(t *testing.T) {
	h := startLoop(time.Hour, true, false)
	h.awaitCycle(t, "catch-up")
	h.gate <- struct{}{}

	h.n.Fire()
	h.awaitCycle(t, "first wake") // now blocked in the gate
	for i := 0; i < 7; i++ {
		h.n.Fire()
	}
	h.expectQuiet(t, "while the cycle is still running")
	h.gate <- struct{}{}
	h.awaitCycle(t, "folded burst") // no timer involved: interval is an hour
	h.gate <- struct{}{}
	h.expectQuiet(t, "after the folded cycle")
	if c, e := h.cycles.Load(), h.events.Load(); c != 3 || e != 2 {
		t.Fatalf("cycles=%d events=%d, want 3 and 2", c, e)
	}
	h.halt(t)
}

// TestRunLoopNeverLosesWake hammers the channel-before-cycle discipline: a
// producer publishes work and fires at arbitrary points relative to the
// running cycle; with the fallback timer an hour away, the last publication
// is only ever consumed if no wake is lost.
func TestRunLoopNeverLosesWake(t *testing.T) {
	n := newChanNotifier()
	var produced, consumed atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunLoop(time.Hour, n, stop, func() error {
			seen := produced.Load()
			runtime.Gosched() // widen the in-flight window
			consumed.Store(seen)
			return nil
		}, nil)
	}()
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			produced.Add(1)
			n.Fire()
			if i%3 == 0 {
				runtime.Gosched()
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for consumed.Load() != produced.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: consumed %d of %d — a wake was lost",
					round, consumed.Load(), produced.Load())
			}
			runtime.Gosched()
		}
	}
	close(stop)
	<-done
}

// TestRunLoopBackoffIgnoresWakes: while cycles fail, continuous wakes must
// not short-cut NextCycleDelay — attempts follow the backoff schedule, not
// the wake rate — and the first success restores immediate firing.
func TestRunLoopBackoffIgnoresWakes(t *testing.T) {
	const interval = 5 * time.Millisecond
	const span = 150 * time.Millisecond
	h := startLoop(interval, false, true)
	firing := make(chan struct{})
	go func() {
		defer close(firing)
		for {
			select {
			case <-h.stop:
				return
			default:
				h.n.Fire()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	time.Sleep(span)
	// Shortest possible schedule (every jitter draw at -25%): the catch-up
	// cycle, then retries after 3.75, 7.5, 15, 30 and 60 ms — six attempts by
	// 116 ms, the seventh not before 176 ms. The deleted 10 ms window allowed
	// fifteen; no protection at all would allow thousands.
	if c := h.cycles.Load(); c > 8 {
		t.Fatalf("%d failing cycles in %v under continuous wakes; backoff allows at most 7", c, span)
	}
	if e := h.events.Load(); e != 0 {
		t.Fatalf("%d wakes honoured while backing off", e)
	}
	h.fail.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for h.events.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("immediate firing not restored after a success: %d event cycles", h.events.Load())
		}
		time.Sleep(time.Millisecond)
	}
	h.halt(t)
	<-firing
}

// TestRunLoopStopIsPrompt: stop wins over a pending wake when it lands during
// a cycle, and interrupts a backoff wait.
func TestRunLoopStopIsPrompt(t *testing.T) {
	t.Run("during cycle", func(t *testing.T) {
		h := startLoop(time.Hour, true, false)
		h.awaitCycle(t, "catch-up")
		h.n.Fire() // a wake is pending when the cycle returns
		close(h.stop)
		h.gate <- struct{}{}
		select {
		case <-h.done:
		case <-time.After(10 * time.Second):
			t.Fatal("RunLoop did not return after stop")
		}
		if c := h.cycles.Load(); c != 1 {
			t.Fatalf("%d cycles ran, want 1: stop must beat the pending wake", c)
		}
	})
	t.Run("during backoff", func(t *testing.T) {
		h := startLoop(time.Hour, false, true)
		h.awaitCycle(t, "catch-up") // fails: the loop now waits out an hour-scale backoff
		h.n.Fire()
		h.expectQuiet(t, "wake during backoff")
		h.halt(t)
	})
}
