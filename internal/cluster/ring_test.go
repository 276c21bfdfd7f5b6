package cluster

import (
	"net/http/httptest"
	"reflect"
	"testing"
)

func nodes(ids ...string) []NodeInfo {
	out := make([]NodeInfo, len(ids))
	for i, id := range ids {
		out[i] = NodeInfo{ID: id, URL: "http://" + id}
	}
	return out
}

func TestNewMapDeterministic(t *testing.T) {
	a := NewMap(0, nodes("n1", "n2", "n3"))
	b := NewMap(0, nodes("n1", "n2", "n3"))
	if a.NumSlots() != DefaultSlots {
		t.Fatalf("slots = %d, want %d", a.NumSlots(), DefaultSlots)
	}
	if !reflect.DeepEqual(a.Slots, b.Slots) {
		t.Fatal("two maps over the same nodes differ")
	}
	// Every slot has a primary that is a real node.
	for s, asn := range a.Slots {
		if _, ok := a.Node(asn.Primary); !ok {
			t.Fatalf("slot %d primary %q is not a node", s, asn.Primary)
		}
	}
}

func TestNewMapSpreadsSlots(t *testing.T) {
	m := NewMap(256, nodes("n1", "n2", "n3"))
	owned := map[string]int{}
	for _, a := range m.Slots {
		owned[a.Primary]++
	}
	for id, n := range owned {
		// Rendezvous over 256 slots should give every node a meaningful
		// share; an exact third is not required, a starving node is a bug.
		if n < 256/3/2 {
			t.Fatalf("node %s owns only %d/256 slots: %v", id, n, owned)
		}
	}
}

func TestBoundedMovementOnMembershipChange(t *testing.T) {
	old := NewMap(256, nodes("n1", "n2", "n3"))
	grown := old.WithNodes(nodes("n1", "n2", "n3", "n4"))
	moved := MovedSlots(old, grown)
	// Adding one node to three should move about 1/4 of the slots; assert
	// it stays well under half (a modulo ring would move ~3/4).
	if moved == 0 || moved > 256/2 {
		t.Fatalf("adding a node moved %d/256 slots", moved)
	}
	if grown.Version != old.Version+1 {
		t.Fatalf("version = %d, want %d", grown.Version, old.Version+1)
	}
	shrunk := old.WithNodes(nodes("n1", "n2"))
	moved = MovedSlots(old, shrunk)
	if moved == 0 || moved > 256/2 {
		t.Fatalf("removing a node moved %d/256 slots", moved)
	}
	// Slots n3 owned must all have moved to a surviving node.
	for s, a := range shrunk.Slots {
		if a.Primary == "n3" {
			t.Fatalf("slot %d still owned by departed n3", s)
		}
	}
}

func TestRouteKeyCollapsesSpellings(t *testing.T) {
	base := "example.com/app/search"
	spellings := []string{
		base,
		base + "?g:q=x&p:page=2",
		base + "?q=x&page=2#session=abc",
		base + "!frag=hotlist",
		base + "?g:q=x!tmpl",
	}
	want := RouteKey(spellings[0])
	for _, s := range spellings {
		if got := RouteKey(s); got != want {
			t.Fatalf("RouteKey(%q) = %q, want %q", s, got, want)
		}
	}
	m := NewMap(0, nodes("n1", "n2", "n3"))
	slot := m.Slot(want)
	for _, s := range spellings {
		if got := m.Slot(RouteKey(s)); got != slot {
			t.Fatalf("slot(%q) = %d, want %d", s, got, slot)
		}
	}
}

func TestRequestRouteKeyMatchesKeyProjection(t *testing.T) {
	r := httptest.NewRequest("GET", "http://example.com/app/search?q=x&page=2", nil)
	if got, want := RequestRouteKey(r), "example.com/app/search"; got != want {
		t.Fatalf("RequestRouteKey = %q, want %q", got, want)
	}
	if RequestRouteKey(r) != RouteKey("example.com/app/search?g:q=x") {
		t.Fatal("request projection and key projection disagree")
	}
}

func TestReplicas(t *testing.T) {
	m := NewMap(8, nodes("n1", "n2"))
	slot := 0
	primary := m.Slots[slot].Primary
	other := "n1"
	if primary == "n1" {
		other = "n2"
	}
	if !m.AddReplica(slot, other) {
		t.Fatal("AddReplica refused a valid replica")
	}
	if m.AddReplica(slot, other) {
		t.Fatal("AddReplica accepted a duplicate")
	}
	if m.AddReplica(slot, primary) {
		t.Fatal("AddReplica accepted the primary")
	}
	if m.AddReplica(slot, "ghost") {
		t.Fatal("AddReplica accepted an unknown node")
	}
	owners := m.Owners(slot)
	if len(owners) != 2 || owners[0].ID != primary || owners[1].ID != other {
		t.Fatalf("Owners = %v", owners)
	}
	if !m.IsOwner(slot, other) {
		t.Fatal("replica is not an owner")
	}
	if m.ReplicaCount() != 1 {
		t.Fatalf("ReplicaCount = %d", m.ReplicaCount())
	}
	if !m.RemoveReplica(slot, other) {
		t.Fatal("RemoveReplica refused")
	}
	if m.RemoveReplica(slot, primary) {
		t.Fatal("RemoveReplica dropped the primary")
	}
}

func TestViewVersionGate(t *testing.T) {
	v1 := NewMap(8, nodes("n1"))
	view := NewView(v1)
	v2 := v1.Clone()
	v2.Version = 2
	if !view.Install(v2) {
		t.Fatal("newer map rejected")
	}
	stale := v1.Clone() // version 1 again
	if view.Install(stale) {
		t.Fatal("stale map installed")
	}
	if view.Map().Version != 2 {
		t.Fatalf("view at version %d, want 2", view.Map().Version)
	}
	if view.Install(nil) {
		t.Fatal("nil map installed")
	}
}

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("n2=http://b:2/, n1=http://a:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeInfo{{ID: "n1", URL: "http://a:1"}, {ID: "n2", URL: "http://b:2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePeers = %v, want %v", got, want)
	}
	if _, err := ParsePeers("n1=http://a,n1=http://b"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := ParsePeers("nonsense"); err == nil {
		t.Fatal("bad entry accepted")
	}
	if got, err := ParsePeers("  "); err != nil || got != nil {
		t.Fatalf("empty peers = %v, %v", got, err)
	}
}
