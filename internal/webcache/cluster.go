package webcache

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ForwardedHeader marks a request a peer cache node already routed: the
// receiving node serves it locally, never forwards again — the one-hop
// guarantee that makes a stale map degrade into an extra hop, not a loop.
const ForwardedHeader = "X-Cacheportal-Forwarded"

// StreamApplier returns the cluster.Consumer Apply hook for a cache: it
// invalidates an eject-stream record's keys and, with a tracer, closes each
// trace the record names with a terminal webcache.eject span — the last
// hop of the commit-to-eject chain, in the cache's own tracer.
func StreamApplier(c *Cache, tr *trace.Tracer) func(keys []string, traces string) {
	return func(keys []string, traces string) {
		start := time.Now()
		removed := c.InvalidateMany(keys)
		if tr == nil || traces == "" {
			return
		}
		end := time.Now()
		for _, ctx := range trace.ParseContexts(traces) {
			tr.RecordTerminal(ctx, "webcache.eject", start, end,
				trace.Attr{K: "removed", V: strconv.Itoa(removed)})
		}
	}
}

// ClusterNode is a proxy's cluster identity: which node this cache is,
// the shared placement view, and the per-slot request counters the shard
// manager reads. A Proxy with a nil Cluster behaves exactly as before —
// single-node operation is byte-identical.
type ClusterNode struct {
	// ID is this node's identity in the map.
	ID string
	// View is the placement map, shared (in-process) or installed over
	// /debug/cluster (across processes).
	View *cluster.View
	// Cache is the node's local store; on installing a map that takes
	// slots away from this node, their entries are dropped so a node that
	// stops receiving a slot's ejects cannot keep serving it stale.
	Cache *Cache
	// Client performs peer forwards; httpx.Default when nil.
	Client *http.Client

	load []atomic.Int64

	forwards     atomic.Int64
	forwardFails atomic.Int64
	installs     atomic.Int64
}

// NewClusterNode builds the node identity. The slot counters are sized to
// the initial map; installs never change the slot count (a map with a
// different slot count is rejected).
func NewClusterNode(id string, view *cluster.View, cache *Cache) *ClusterNode {
	n := &ClusterNode{ID: id, View: view, Cache: cache}
	if m := view.Map(); m != nil {
		n.load = make([]atomic.Int64, m.NumSlots())
	}
	return n
}

// Route decides where a request belongs: local when this node owns the
// request's slot, otherwise the owner to forward to. Owners rotate for
// forwarded traffic so a hot slot's replicas all warm up. It also counts
// the slot access — the load signal the shard manager rebalances on.
func (n *ClusterNode) Route(r *http.Request) (peerURL string, local bool) {
	m := n.View.Map()
	if m == nil || m.NumSlots() == 0 {
		return "", true
	}
	slot := m.Slot(cluster.RequestRouteKey(r))
	var seq int64
	if slot < len(n.load) {
		seq = n.load[slot].Add(1)
	}
	owners := m.Owners(slot)
	if len(owners) == 0 {
		return "", true
	}
	for _, o := range owners {
		if o.ID == n.ID {
			return "", true
		}
	}
	return owners[int(seq)%len(owners)].URL, false
}

// Report snapshots the node for the shard manager.
func (n *ClusterNode) Report() cluster.Report {
	rep := cluster.Report{Node: n.ID, SlotLoad: make([]int64, len(n.load))}
	if m := n.View.Map(); m != nil {
		rep.MapVersion = m.Version
	}
	for i := range n.load {
		rep.SlotLoad[i] = n.load[i].Load()
	}
	if n.Cache != nil {
		st := n.Cache.Stats()
		rep.Hits, rep.Misses = st.Hits, st.Misses
	}
	return rep
}

// ServeDebug handles /debug/cluster on the node's serving path: GET
// returns the membership view plus the load report (what HTTPProbe.Fetch
// reads), POST installs a newer map (what HTTPProbe.Install sends).
func (n *ClusterNode) ServeDebug(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(cluster.DebugState{Report: n.Report(), Map: n.View.Map()})
	case http.MethodPost:
		var m cluster.Map
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&m); err != nil {
			http.Error(w, "bad map: "+err.Error(), http.StatusBadRequest)
			return
		}
		old := n.View.Map()
		if old != nil && m.NumSlots() != old.NumSlots() {
			http.Error(w, "slot count mismatch", http.StatusBadRequest)
			return
		}
		if n.View.Install(&m) {
			n.installs.Add(1)
			n.dropUnowned(&m)
			fmt.Fprintf(w, "installed version %d\n", m.Version)
			return
		}
		fmt.Fprintf(w, "ignored (have version %d)\n", n.View.Map().Version)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// dropUnowned evicts entries of slots this node no longer owns under the
// new map. A de-replicated node stops receiving routed ejects for those
// slots, so keeping the entries would risk serving them stale if traffic
// ever lands here again; dropping them also returns the memory.
func (n *ClusterNode) dropUnowned(m *cluster.Map) {
	if n.Cache == nil {
		return
	}
	var doomed []string
	for _, key := range n.Cache.Keys() {
		if !m.IsOwner(m.Slot(cluster.RouteKey(key)), n.ID) {
			doomed = append(doomed, key)
		}
	}
	if len(doomed) > 0 {
		n.Cache.InvalidateMany(doomed)
	}
}

// Instrument registers the node's forwarding counters.
func (n *ClusterNode) Instrument(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+".forwards_total", n.forwards.Load)
	reg.GaugeFunc(prefix+".forward_failures_total", n.forwardFails.Load)
	reg.GaugeFunc(prefix+".map_installs_total", n.installs.Load)
	reg.GaugeFunc(prefix+".map_version", func() int64 {
		if m := n.View.Map(); m != nil {
			return m.Version
		}
		return 0
	})
}

// forwardPeer proxies the request one hop to the owning node, marking it
// forwarded so the peer serves it locally. It reports whether a response
// was relayed; on transport failure the caller falls back to serving from
// the origin itself.
func (p *Proxy) forwardPeer(w http.ResponseWriter, r *http.Request, peerURL string) bool {
	n := p.Cluster
	url := peerURL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(r.Method, url, nil)
	if err != nil {
		n.forwardFails.Add(1)
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(ForwardedHeader, n.ID)
	req.Host = r.Host
	resp, err := httpx.Client(n.Client).Do(req)
	if err != nil {
		n.forwardFails.Add(1)
		return false
	}
	defer resp.Body.Close()
	n.forwards.Add(1)
	for name, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := forwardBufs.Get().(*[32 << 10]byte)
	io.CopyBuffer(w, resp.Body, buf[:])
	forwardBufs.Put(buf)
	return true
}

// forwardBufs holds forwardPeer's copy buffers: neither the peer's
// response body nor httpx.Server's buffering ResponseWriter offers
// io.CopyBuffer a shortcut, so without one it allocates 32 KB per forward.
var forwardBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}
