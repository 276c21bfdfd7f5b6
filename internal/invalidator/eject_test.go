package invalidator

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestPendingRetryListBounded: repeated eject failures must not grow the
// retry list — keys are deduplicated across cycles.
func TestPendingRetryListBounded(t *testing.T) {
	h := newHarness(t, carSchema)
	h.page("url1", "SELECT maker FROM Car WHERE price > 20000")
	h.ejectErr = errors.New("cache unreachable")
	h.exec(t, "INSERT INTO Car VALUES ('Lexus', 'LS', 60000)")
	h.cycle(t)
	if got := h.inv.pending; !reflect.DeepEqual(got, []string{"url1"}) {
		t.Fatalf("pending after first failure: %v", got)
	}
	// Two more failing cycles; the same key keeps failing but the list
	// must stay at one entry.
	for i := 0; i < 2; i++ {
		h.exec(t, fmt.Sprintf("INSERT INTO Car VALUES ('M%d', 'X', 70000)", i))
		h.cycle(t)
	}
	if got := h.inv.pending; !reflect.DeepEqual(got, []string{"url1"}) {
		t.Fatalf("pending grew across failing cycles: %v", got)
	}
}

// TestPendingDropsUnregisteredPages: a pending key whose page has since
// left the registry is dropped, not retried forever.
func TestPendingDropsUnregisteredPages(t *testing.T) {
	h := newHarness(t, carSchema)
	h.page("url1", "SELECT maker FROM Car WHERE price > 20000")
	h.page("url2", "SELECT model FROM Car WHERE price > 20000")
	h.ejectErr = errors.New("cache unreachable")
	h.exec(t, "INSERT INTO Car VALUES ('Lexus', 'LS', 60000)")
	h.cycle(t)
	if len(h.inv.pending) != 2 {
		t.Fatalf("both keys should be pending: %v", h.inv.pending)
	}
	// url1's page disappears (e.g. the application replaced it and the
	// new version was never re-registered).
	h.inv.Registry().UnlinkPage("url1")
	h.ejectErr = nil
	h.cycle(t)
	if got := h.ejectedSorted(); !reflect.DeepEqual(got, []string{"url2"}) {
		t.Fatalf("retry should skip the unregistered page: ejected %v", got)
	}
}
