package cacheportal

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/demoapp"
)

// clusterDemoSite is demoSite over a consistent-hash cache cluster of n
// nodes (eject-stream invalidation, no shard manager — the deterministic
// topology the equivalence test wants).
func clusterDemoSite(t testing.TB, n int) *Site {
	t.Helper()
	defs := append(demoapp.Servlets("db"), demoapp.PersonalizedServlets("db")...)
	servlets := make([]ServletDef, 0, len(defs))
	for _, d := range defs {
		servlets = append(servlets, ServletDef{Meta: d.Meta, Handler: d.Handler})
	}
	site, err := NewSite(SiteConfig{
		Schema:   demoapp.SchemaSQL(100, 400, 1),
		Servlets: servlets,
		Interval: 50 * time.Millisecond,
		Cluster:  ClusterConfig{CacheNodes: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// carClusterSite is carSite over a cache cluster with the given topology.
func carClusterSite(t testing.TB, cc ClusterConfig) *Site {
	t.Helper()
	site, err := NewSite(SiteConfig{
		Schema: `
			CREATE TABLE Car (maker TEXT, model TEXT, price FLOAT);
			CREATE TABLE Mileage (model TEXT, EPA INT);
			INSERT INTO Car VALUES ('Toyota', 'Corolla', 15000), ('Honda', 'Civic', 16000), ('BMW', 'M3', 70000);
			INSERT INTO Mileage VALUES ('Corolla', 33), ('Civic', 31), ('M3', 19), ('Avalon', 26);
		`,
		Servlets: []ServletDef{
			{
				Meta: Meta{Name: "under", Keys: KeySpec{Get: []string{"price"}}},
				Handler: func(ctx *Context) (*Page, error) {
					lease, err := ctx.Lease("db")
					if err != nil {
						return nil, err
					}
					defer lease.Release()
					res, err := lease.Query(
						"SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage " +
							"WHERE Car.model = Mileage.model AND Car.price < " + ctx.Param("price"))
					if err != nil {
						return nil, err
					}
					var b strings.Builder
					for _, r := range res.Rows {
						fmt.Fprintf(&b, "%s %s %s %s\n", r[0], r[1], r[2], r[3])
					}
					return &Page{Body: []byte(b.String())}, nil
				},
			},
		},
		Interval: time.Hour, // cycles driven by hand
		Cluster:  cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// ownerIndex resolves which cache node (by Caches index) owns a canonical
// cache key under the site's current map.
func ownerIndex(t *testing.T, site *Site, key string) int {
	t.Helper()
	m := site.ClusterView.Map()
	owners := m.Owners(m.Slot(cluster.RouteKey(key)))
	if len(owners) == 0 {
		t.Fatalf("no owner for key %q", key)
	}
	i, err := strconv.Atoi(strings.TrimPrefix(owners[0].ID, "node"))
	if err != nil {
		t.Fatalf("node id %q: %v", owners[0].ID, err)
	}
	return i
}

// TestClusterEquivalence is the distributed tier's core property: a 3-node
// consistent-hash cluster — hash-routed front balancer, per-node caches,
// eject-stream invalidation — serves byte-identical responses to the
// single-cache site, across servlets, users, update rounds, and
// concurrency levels.
func TestClusterEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clustered := clusterDemoSite(t, 3)
			single := demoSite(t, false)
			rng := rand.New(rand.NewSource(int64(workers)))
			nextStmt := demoapp.UpdateStatement()

			rounds := 3
			perWorker := 12
			if testing.Short() {
				rounds, perWorker = 2, 6
			}
			for round := 0; round < rounds; round++ {
				if round > 0 {
					// Identical backend updates on both sites, one
					// synchronous cycle each, and — on the cluster — wait
					// for every node's stream consumer to apply the ejects
					// before requests resume.
					for i := 0; i < 3; i++ {
						stmt := nextStmt(rng)
						if err := clustered.Exec(stmt); err != nil {
							t.Fatal(err)
						}
						if err := single.Exec(stmt); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := clustered.Portal.Cycle(); err != nil {
						t.Fatal(err)
					}
					if _, err := single.Portal.Cycle(); err != nil {
						t.Fatal(err)
					}
					if !clustered.WaitEjectStream(5 * time.Second) {
						t.Fatal("eject stream did not quiesce")
					}
				}
				var wg sync.WaitGroup
				errs := make(chan string, workers)
				for w := 0; w < workers; w++ {
					seed := int64(round*100 + w)
					wg.Add(1)
					go func() {
						defer wg.Done()
						wrng := rand.New(rand.NewSource(seed))
						for i := 0; i < perWorker; i++ {
							servlet := []string{"light", "medium", "heavy", "home"}[wrng.Intn(4)]
							cat := wrng.Intn(demoapp.JoinValues)
							user := ""
							if servlet == "home" {
								user = fmt.Sprintf("u%d", wrng.Intn(3))
							}
							path := fmt.Sprintf("/%s?cat=%d", servlet, cat)
							want, _ := fetchAs(t, single.CacheURL+path, user)
							got, _ := fetchAs(t, clustered.CacheURL+path, user)
							if got != want {
								errs <- fmt.Sprintf("%s user=%q: cluster served %q, single %q", path, user, got, want)
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for e := range errs {
					t.Fatal(e)
				}
			}
		})
	}
}

// TestClusterEntriesLandOnOwners: the hash-routing front balancer and the
// per-node placement agree — after a spread of requests, every cached
// entry lives on a node that owns its slot.
func TestClusterEntriesLandOnOwners(t *testing.T) {
	site := clusterDemoSite(t, 3)
	for cat := 0; cat < 8; cat++ {
		fetchAs(t, site.CacheURL+fmt.Sprintf("/light?cat=%d", cat), "")
		fetchAs(t, site.CacheURL+fmt.Sprintf("/medium?cat=%d", cat), "")
	}
	m := site.ClusterView.Map()
	for i, cache := range site.Caches {
		id := fmt.Sprintf("node%d", i)
		for _, key := range cache.Keys() {
			if !m.IsOwner(m.Slot(cluster.RouteKey(key)), id) {
				t.Fatalf("entry %q cached on %s which does not own its slot", key, id)
			}
		}
	}
}

// TestClusterNodeDropRejoinCatchesUp is the chaos case: one cache node's
// eject-stream consumer dies mid-burst. While it is down the node serves
// stale (bounded by its outage); on rejoin the consumer resumes from its
// cursor, applies every missed eject, and no staleness survives.
func TestClusterNodeDropRejoinCatchesUp(t *testing.T) {
	site := carClusterSite(t, ClusterConfig{CacheNodes: 3})
	url := site.CacheURL + "/under?price=20000"

	body, _, key := fetch(t, url)
	if !strings.Contains(body, "Corolla") {
		t.Fatalf("seed body %q", body)
	}
	idx := ownerIndex(t, site, key)
	if _, present := site.Caches[idx].Peek(key); !present {
		t.Fatalf("warm entry not on its owner node%d", idx)
	}
	cursorBefore := site.EjectConsumerCursor(idx)

	// The owner drops off the invalidation feed mid-burst.
	site.StopEjectConsumer(idx)
	if err := site.Exec("INSERT INTO Car VALUES ('Toyota', 'Avalon', 18000)"); err != nil {
		t.Fatal(err)
	}
	// More of the burst: unrelated updates that also produce cycles.
	if err := site.Exec("INSERT INTO Car VALUES ('Porsche', '911', 120000)"); err != nil {
		t.Fatal(err)
	}
	head := site.EjectLog.NextSeq()
	deadline := time.Now().Add(5 * time.Second)
	for site.EjectLog.NextSeq() == head {
		if time.Now().After(deadline) {
			t.Fatal("update produced no eject record")
		}
		if _, err := site.Portal.Cycle(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !site.WaitEjectStream(5 * time.Second) {
		t.Fatal("running consumers did not quiesce")
	}
	// The downed node missed the eject: its copy is stale — the bounded
	// window the stream's cursor resume is about to close.
	if _, present := site.Caches[idx].Peek(key); !present {
		t.Fatal("entry vanished from the downed node before it rejoined")
	}

	// Rejoin: the consumer resumes from its saved cursor and catches up.
	site.ResumeEjectConsumer(idx)
	if !site.WaitEjectStream(5 * time.Second) {
		t.Fatal("rejoined consumer did not catch up")
	}
	if _, present := site.Caches[idx].Peek(key); present {
		t.Fatal("stale entry survived the rejoin — cursor resume lost the eject")
	}
	if site.EjectConsumerCursor(idx) <= cursorBefore {
		t.Fatalf("cursor did not advance across the outage (%d -> %d)",
			cursorBefore, site.EjectConsumerCursor(idx))
	}

	// The refetched page is fresh.
	body, _, _ = fetch(t, url)
	if !strings.Contains(body, "Avalon") {
		t.Fatalf("permanently stale after rejoin: %q", body)
	}
}

// TestClusterTruncationClearsRejoiningNode: a node that lags past the
// eject log's retention cannot catch up precisely — the stream signals
// truncation in-band and the rejoining consumer clears its whole cache,
// trading hit ratio for guaranteed freshness.
func TestClusterTruncationClearsRejoiningNode(t *testing.T) {
	site := carClusterSite(t, ClusterConfig{CacheNodes: 3, EjectRetain: 4})
	url := site.CacheURL + "/under?price=20000"
	_, _, key := fetch(t, url)
	idx := ownerIndex(t, site, key)

	site.StopEjectConsumer(idx)
	// While the node is down the stream turns over more records than it
	// retains: the node's cursor falls off the log.
	for i := 0; i < 10; i++ {
		site.EjectLog.Append([]string{fmt.Sprintf("burst/other-page?id=%d", i)})
	}
	if !site.WaitEjectStream(5 * time.Second) {
		t.Fatal("running consumers did not drain the burst")
	}

	site.ResumeEjectConsumer(idx)
	if !site.WaitEjectStream(5 * time.Second) {
		t.Fatal("rejoined consumer did not recover")
	}
	if site.consumers[idx].c.Cleared() == 0 {
		t.Fatal("truncated consumer never cleared its cache")
	}
	if _, present := site.Caches[idx].Peek(key); present {
		t.Fatal("entry survived a truncation clear")
	}
	// The node is cold but correct: the next fetch repopulates it.
	body, _, _ := fetch(t, url)
	if !strings.Contains(body, "Corolla") {
		t.Fatalf("post-clear body %q", body)
	}
}

// TestClusterManagerReplicatesUnderFlashCrowd: a traffic spike on one page
// makes the shard manager grow that slot's replica set; the new map
// reaches every node through /debug/cluster and the version only moves
// forward.
func TestClusterManagerReplicatesUnderFlashCrowd(t *testing.T) {
	site := carClusterSite(t, ClusterConfig{
		CacheNodes:      3,
		Manager:         true,
		ManagerInterval: 20 * time.Millisecond,
		MinLoad:         8,
	})
	url := site.CacheURL + "/under?price=20000"

	// The flash crowd: one page takes all the traffic.
	for i := 0; i < 200; i++ {
		fetch(t, url)
	}
	deadline := time.Now().Add(5 * time.Second)
	for site.ClusterView.Map().ReplicaCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("manager never replicated the hot slot")
		}
		fetch(t, url)
	}
	m := site.ClusterView.Map()
	if m.Version < 2 {
		t.Fatalf("map version %d after a replica move", m.Version)
	}
	// The install propagated to the nodes themselves.
	deadline = time.Now().Add(5 * time.Second)
	for {
		allCurrent := true
		for _, p := range site.Proxies {
			if v := p.Cluster.View.Map().Version; v < m.Version {
				allCurrent = false
			}
		}
		if allCurrent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new map never reached every node")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Traffic keeps being answered correctly on the replicated topology.
	body, _, _ := fetch(t, url)
	if !strings.Contains(body, "Corolla") {
		t.Fatalf("post-replication body %q", body)
	}
}
