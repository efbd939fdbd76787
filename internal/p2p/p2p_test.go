package p2p

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"baton/internal/core"
	"baton/internal/keyspace"
)

// liveCluster builds a simulated binary network, loads it with data, and
// animates it into a live cluster. It returns the cluster and the inserted
// keys.
func liveCluster(t testing.TB, peers, items int, seed int64) (*Cluster, []keyspace.Key) {
	t.Helper()
	return liveClusterFanout(t, peers, items, seed, 2)
}

// loadedNetwork grows a simulated network of the given fanout to peers
// members by random joins and inserts items uniform keys, each valued with
// its decimal form. It returns the network and the inserted keys.
func loadedNetwork(t testing.TB, peers, items int, seed int64, fanout int) (*core.Network, []keyspace.Key) {
	t.Helper()
	nw := core.NewNetwork(core.Config{Seed: seed, Fanout: fanout})
	rng := rand.New(rand.NewSource(seed))
	for nw.Size() < peers {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]keyspace.Key, 0, items)
	for i := 0; i < items; i++ {
		k := keyspace.DomainMin + keyspace.Key(rng.Int63n(int64(keyspace.DomainMax-keyspace.DomainMin)))
		keys = append(keys, k)
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	return nw, keys
}

func TestClusterGetPut(t *testing.T) {
	c, keys := liveCluster(t, 80, 400, 1)
	if c.Size() != 80 {
		t.Fatalf("cluster size = %d", c.Size())
	}
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(2))
	for _, k := range keys {
		via := ids[rng.Intn(len(ids))]
		v, found, hops, err := c.Get(via, k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !found || string(v) != fmt.Sprint(k) {
			t.Fatalf("get %d: found=%v value=%q", k, found, v)
		}
		if hops > 40 {
			t.Fatalf("get %d took %d hops", k, hops)
		}
	}
	// Put a fresh key and read it back through a different peer.
	if _, err := c.Put(ids[0], 123_456, []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, found, _, err := c.Get(ids[len(ids)-1], 123_456)
	if err != nil || !found || string(v) != "x" {
		t.Fatalf("round trip failed: %q %v %v", v, found, err)
	}
	// Delete it again.
	existed, _, err := c.Delete(ids[1], 123_456)
	if err != nil || !existed {
		t.Fatalf("delete failed: %v %v", existed, err)
	}
	_, found, _, _ = c.Get(ids[2], 123_456)
	if found {
		t.Fatal("key still present after delete")
	}
	if c.Messages() == 0 {
		t.Fatal("no messages counted")
	}
}

func TestClusterRange(t *testing.T) {
	c, keys := liveCluster(t, 60, 800, 3)
	ids := c.PeerIDs()
	r := keyspace.NewRange(200_000_000, 500_000_000)
	items, hops, err := c.Query(ids[0], parallelQuery(r))
	if err != nil {
		t.Fatal(err)
	}
	want := map[keyspace.Key]bool{}
	for _, k := range keys {
		if r.Contains(k) {
			want[k] = true
		}
	}
	got := map[keyspace.Key]bool{}
	for _, it := range items {
		if !r.Contains(it.Key) {
			t.Fatalf("item %d outside query range", it.Key)
		}
		got[it.Key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("range query returned %d distinct keys, want %d", len(got), len(want))
	}
	if hops == 0 {
		t.Fatal("range query should take hops")
	}
}

func TestClusterConcurrentTraffic(t *testing.T) {
	c, keys := liveCluster(t, 100, 1000, 5)
	ids := c.PeerIDs()
	const workers = 16
	const perWorker = 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				via := ids[rng.Intn(len(ids))]
				switch i % 3 {
				case 0:
					k := keys[rng.Intn(len(keys))]
					if _, found, _, err := c.Get(via, k); err != nil || !found {
						errs <- fmt.Errorf("worker %d get %d: found=%v err=%v", w, k, found, err)
						return
					}
				case 1:
					k := keyspace.Key(1 + rng.Int63n(999_999_998))
					if _, err := c.Put(via, k, []byte("w")); err != nil {
						errs <- fmt.Errorf("worker %d put: %v", w, err)
						return
					}
				case 2:
					lo := keyspace.Key(1 + rng.Int63n(900_000_000))
					if _, _, err := c.Query(via, parallelQuery(keyspace.NewRange(lo, lo+1_000_000))); err != nil {
						errs <- fmt.Errorf("worker %d range: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClusterRoutesAroundKilledPeers(t *testing.T) {
	c, keys := liveCluster(t, 120, 1200, 7)
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(11))

	// Kill 12 peers and remember which keys they owned (those become
	// unavailable; everything else must still be reachable).
	killed := map[core.PeerID]bool{}
	for len(killed) < 12 {
		id := ids[rng.Intn(len(ids))]
		if killed[id] {
			continue
		}
		if err := c.Kill(id); err != nil {
			t.Fatal(err)
		}
		killed[id] = true
	}
	if c.Alive(ids[0]) == killed[ids[0]] {
		t.Fatal("Alive disagrees with Kill")
	}

	deadRanges := []keyspace.Range{}
	for id := range killed {
		deadRanges = append(deadRanges, c.peerByID(id).rng)
	}
	onDeadPeer := func(k keyspace.Key) bool {
		for _, r := range deadRanges {
			if r.Contains(k) {
				return true
			}
		}
		return false
	}

	liveVia := func() core.PeerID {
		for {
			id := ids[rng.Intn(len(ids))]
			if !killed[id] {
				return id
			}
		}
	}
	// Failures can partition the alive link graph (e.g. a leaf whose parent,
	// adjacents and routing entries all died is fully cut off), and no
	// routing protocol can cross a partition. The property the overlay does
	// guarantee — and the one this test asserts — is that every query whose
	// via and owner sit in the same alive component succeeds; across a
	// partition it must fail fast with an error rather than hang.
	component := aliveComponent(c, killed)
	checked := 0
	for _, k := range keys {
		if onDeadPeer(k) {
			continue
		}
		via := liveVia()
		owner := c.ownerOf(k)
		_, found, _, err := c.Get(via, k)
		if component[via] != component[owner.id] {
			if err == nil {
				t.Fatalf("get %d crossed a partition (via %d, owner %d)", k, via, owner.id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("get %d with failures (via %d and owner %d connected): %v", k, via, owner.id, err)
		}
		if !found {
			t.Fatalf("key %d on a live peer not found while routing around failures", k)
		}
		checked++
		if checked >= 300 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("test vacuous: all sampled keys were on killed peers")
	}

	// Requests issued via a killed peer fail fast.
	for id := range killed {
		if _, _, _, err := c.Get(id, keys[0]); err == nil {
			t.Fatal("request via a killed peer should fail")
		}
		break
	}
}

func TestClusterStop(t *testing.T) {
	c, _ := liveCluster(t, 20, 50, 13)
	c.Stop()
	if _, _, _, err := c.Get(c.PeerIDs()[0], 1); err != ErrStopped {
		t.Fatalf("expected ErrStopped, got %v", err)
	}
	// Stopping twice is harmless.
	c.Stop()
}

func TestClusterUnknownPeer(t *testing.T) {
	c, _ := liveCluster(t, 10, 20, 17)
	if _, _, _, err := c.Get(core.PeerID(9999), 1); err == nil {
		t.Fatal("unknown peer should error")
	}
	if err := c.Kill(core.PeerID(9999)); err == nil {
		t.Fatal("killing an unknown peer should error")
	}
}

// aliveComponent labels each alive peer with its connected component in the
// link graph restricted to alive peers (union of parent, child, adjacent and
// routing-table links, which are symmetric in BATON).
func aliveComponent(c *Cluster, killed map[core.PeerID]bool) map[core.PeerID]int {
	comp := map[core.PeerID]int{}
	next := 0
	for id := range c.topo.Load().peers {
		if killed[id] {
			continue
		}
		if _, seen := comp[id]; seen {
			continue
		}
		next++
		queue := []core.PeerID{id}
		comp[id] = next
		for len(queue) > 0 {
			p := c.peerByID(queue[0])
			queue = queue[1:]
			v := &p.view
			links := append([]*core.Link{v.Parent, v.Adj[core.Left], v.Adj[core.Right]}, v.Children...)
			links = append(links, v.RT[core.Left]...)
			links = append(links, v.RT[core.Right]...)
			for _, l := range links {
				if l == nil || killed[l.ID] {
					continue
				}
				if _, seen := comp[l.ID]; !seen {
					comp[l.ID] = next
					queue = append(queue, l.ID)
				}
			}
		}
	}
	return comp
}
