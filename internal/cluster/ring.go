// Package cluster holds the shared state of the distributed web-cache
// tier: a slot-based consistent-hash map that places cache keys on nodes,
// a version-gated view every component reads the current map through, and
// the key projection that makes the placement agree across layers — the
// balancer routing a request, a cache node deciding whether to serve or
// forward, and the invalidator routing an eject must all land on the same
// node for the same page.
//
// Placement is per URL path (host+path), not per full cache key: the
// origin's canonical keys, the proxy's request-derived keys, and the
// fragment/template keys of one page all differ after the '?' (KeySpec
// projection, cookie suffixes, fragment markers), so any finer projection
// would route an eject to a different node than stored the entry. Cutting
// the key at the first '?', '#' or '!' makes every spelling of one page —
// and all of its fragments — collapse to the same slot, which also means a
// fragment skeleton probe lands on the node holding the template.
//
// Per-slot primaries are chosen by rendezvous (highest-random-weight)
// hashing, so membership changes move only the slots whose winner changed:
// adding or removing one node relocates ~1/n of the slots and leaves the
// rest untouched — the bounded key movement the shard manager relies on
// when it grows or shrinks a slot's replica set at runtime.
package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// DefaultSlots is the hash-ring slot count when a Map is built with a
// non-positive slot count. Slots bound rebalancing granularity: more slots
// spread load finer but make the map (and /debug/cluster payloads) larger.
const DefaultSlots = 64

// NodeInfo names one cache node: a stable identity and its base URL.
type NodeInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Assignment is one slot's owner set: the primary serves and stores the
// slot's keys; replicas are extra owners the shard manager added because
// the slot ran hot. Every owner both serves the slot and receives its
// ejects.
type Assignment struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// Map is one immutable version of the cluster's placement: which nodes
// exist and which owns each slot. Treat a published *Map as read-only —
// derive changed maps with Clone, then Install them into a View.
type Map struct {
	Version int64        `json:"version"`
	Slots   []Assignment `json:"slots"`
	Nodes   []NodeInfo   `json:"nodes"`
}

// NewMap builds version 1 of a placement over the given nodes: slots
// primaries by rendezvous hash, no replicas. A non-positive slot count
// means DefaultSlots; an empty node list yields a map that routes nothing
// (every Owners call returns nil).
func NewMap(slots int, nodes []NodeInfo) *Map {
	if slots <= 0 {
		slots = DefaultSlots
	}
	m := &Map{Version: 1, Slots: make([]Assignment, slots), Nodes: append([]NodeInfo(nil), nodes...)}
	for s := range m.Slots {
		m.Slots[s].Primary = rendezvous(s, m.Nodes)
	}
	return m
}

// rendezvous picks the highest-random-weight node for a slot. Ties (hash
// collisions) break by ID order so the choice is deterministic everywhere.
// The FNV score is run through a finalizer: FNV's last multiply leaves the
// high bits correlated with the input prefix (the node ID), which would
// skew the magnitude comparison and starve some nodes of slots.
func rendezvous(slot int, nodes []NodeInfo) string {
	var best string
	var bestScore uint64
	for _, n := range nodes {
		score := mix64(fnv64(n.ID + "\x00" + fmt.Sprint(slot)))
		if best == "" || score > bestScore || (score == bestScore && n.ID < best) {
			best, bestScore = n.ID, score
		}
	}
	return best
}

// mix64 is a 64-bit avalanche finalizer (splitmix64's): every input bit
// flips about half the output bits, making hash magnitudes comparable.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fnv64 is FNV-1a over s — the one hash both slot projection and
// rendezvous scoring use, inlined so the hot path allocates nothing.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// NumSlots returns the slot count.
func (m *Map) NumSlots() int { return len(m.Slots) }

// Slot maps a route key (RouteKey/RequestRouteKey) to its slot.
func (m *Map) Slot(routeKey string) int {
	if len(m.Slots) == 0 {
		return 0
	}
	return int(fnv64(routeKey) % uint64(len(m.Slots)))
}

// Owners returns the slot's owner nodes, primary first. Unknown IDs
// (a replica whose node left) are skipped.
func (m *Map) Owners(slot int) []NodeInfo {
	if slot < 0 || slot >= len(m.Slots) {
		return nil
	}
	a := m.Slots[slot]
	out := make([]NodeInfo, 0, 1+len(a.Replicas))
	if n, ok := m.Node(a.Primary); ok {
		out = append(out, n)
	}
	for _, id := range a.Replicas {
		if n, ok := m.Node(id); ok {
			out = append(out, n)
		}
	}
	return out
}

// IsOwner reports whether the node serves the slot (primary or replica).
func (m *Map) IsOwner(slot int, nodeID string) bool {
	if slot < 0 || slot >= len(m.Slots) {
		return false
	}
	a := m.Slots[slot]
	if a.Primary == nodeID {
		return true
	}
	for _, id := range a.Replicas {
		if id == nodeID {
			return true
		}
	}
	return false
}

// Node resolves a node ID.
func (m *Map) Node(id string) (NodeInfo, bool) {
	for _, n := range m.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return NodeInfo{}, false
}

// Clone deep-copies the map so a manager can derive the next version
// without mutating the published one.
func (m *Map) Clone() *Map {
	out := &Map{Version: m.Version, Slots: make([]Assignment, len(m.Slots)), Nodes: append([]NodeInfo(nil), m.Nodes...)}
	for i, a := range m.Slots {
		out.Slots[i] = Assignment{Primary: a.Primary, Replicas: append([]string(nil), a.Replicas...)}
	}
	return out
}

// AddReplica adds nodeID to the slot's replica set; false when it is
// already an owner or unknown.
func (m *Map) AddReplica(slot int, nodeID string) bool {
	if slot < 0 || slot >= len(m.Slots) || m.IsOwner(slot, nodeID) {
		return false
	}
	if _, ok := m.Node(nodeID); !ok {
		return false
	}
	m.Slots[slot].Replicas = append(m.Slots[slot].Replicas, nodeID)
	return true
}

// RemoveReplica drops nodeID from the slot's replica set (never the
// primary); false when it was not a replica.
func (m *Map) RemoveReplica(slot int, nodeID string) bool {
	if slot < 0 || slot >= len(m.Slots) {
		return false
	}
	reps := m.Slots[slot].Replicas
	for i, id := range reps {
		if id == nodeID {
			m.Slots[slot].Replicas = append(reps[:i:i], reps[i+1:]...)
			return true
		}
	}
	return false
}

// WithNodes derives the next map version for a changed membership:
// primaries are re-chosen by rendezvous (so only slots whose winner
// changed move), replicas belonging to departed nodes are dropped, and the
// version is bumped.
func (m *Map) WithNodes(nodes []NodeInfo) *Map {
	out := NewMap(len(m.Slots), nodes)
	out.Version = m.Version + 1
	for s := range m.Slots {
		for _, id := range m.Slots[s].Replicas {
			if _, ok := out.Node(id); ok && !out.IsOwner(s, id) {
				out.Slots[s].Replicas = append(out.Slots[s].Replicas, id)
			}
		}
	}
	return out
}

// MovedSlots counts slots whose primary differs between two maps — the
// bounded-movement measure rebalancing is judged by.
func MovedSlots(a, b *Map) int {
	n := len(a.Slots)
	if len(b.Slots) < n {
		n = len(b.Slots)
	}
	moved := 0
	for i := 0; i < n; i++ {
		if a.Slots[i].Primary != b.Slots[i].Primary {
			moved++
		}
	}
	return moved
}

// ReplicaCount sums replica assignments across all slots.
func (m *Map) ReplicaCount() int {
	n := 0
	for _, a := range m.Slots {
		n += len(a.Replicas)
	}
	return n
}

// RouteKey projects a cache key — canonical, request-derived, fragment, or
// template — to its placement key: everything before the first '?', '#' or
// '!' (host+path). All spellings of one page project identically, so
// request routing and eject routing agree.
func RouteKey(key string) string {
	if i := strings.IndexAny(key, "?#!"); i >= 0 {
		return key[:i]
	}
	return key
}

// RequestRouteKey is RouteKey computed straight from an incoming request.
func RequestRouteKey(r *http.Request) string {
	return r.Host + r.URL.Path
}

// View is the version-gated holder of the current map, shared by every
// component in one process (proxy, balancer, ejector router). Reads are a
// pointer load under RLock; installs only ever move the version forward,
// so a stale manager publish cannot roll the cluster back.
type View struct {
	mu sync.RWMutex
	m  *Map
}

// NewView wraps an initial map.
func NewView(m *Map) *View { return &View{m: m} }

// Map returns the current map. Callers must treat it as immutable.
func (v *View) Map() *Map {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m
}

// Install publishes m when it is strictly newer than the current version;
// it reports whether the install happened.
func (v *View) Install(m *Map) bool {
	if m == nil {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m != nil && m.Version <= v.m.Version {
		return false
	}
	v.m = m
	return true
}

// ParsePeers parses a -peers flag value of the form "id=url,id=url" into
// a node list, sorted by ID so every daemon derives the same map no matter
// how its flag happened to order the peers.
func ParsePeers(s string) ([]NodeInfo, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []NodeInfo
	seen := make(map[string]bool)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		id, url, ok := strings.Cut(item, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer entry %q (want id=url)", item)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		out = append(out, NodeInfo{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
