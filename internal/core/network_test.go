package core

import (
	"math/rand"
	"testing"

	"baton/internal/keyspace"
	"baton/internal/stats"
)

// buildNetwork grows a network to n peers by joining each new peer through a
// uniformly random existing peer, as in the paper's simulator.
func buildNetwork(t testing.TB, n int, seed int64) *Network {
	t.Helper()
	nw := NewNetwork(Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	for nw.Size() < n {
		ids := nw.PeerIDs()
		via := ids[rng.Intn(len(ids))]
		if _, _, err := nw.Join(via); err != nil {
			t.Fatalf("join %d: %v", nw.Size(), err)
		}
	}
	return nw
}

func TestNewNetwork(t *testing.T) {
	nw := NewNetwork(Config{})
	if nw.Size() != 1 {
		t.Fatalf("new network size = %d", nw.Size())
	}
	if nw.Domain() != keyspace.FullDomain() {
		t.Fatalf("default domain = %v", nw.Domain())
	}
	root := nw.Root()
	if root.Position != RootPosition || root.Range != keyspace.FullDomain() {
		t.Fatalf("root = %+v", root)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Height() != 1 {
		t.Fatalf("height of single peer network = %d", nw.Height())
	}
}

func TestJoinGrowsBalancedTree(t *testing.T) {
	for _, size := range []int{2, 3, 7, 16, 33, 100, 200} {
		nw := buildNetwork(t, size, int64(size))
		if nw.Size() != size {
			t.Fatalf("size = %d, want %d", nw.Size(), size)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		// Height must be within the balanced-tree bound of 1.44 log2 N (+1
		// for rounding).
		maxHeight := int(1.45*log2(float64(size))) + 2
		if nw.Height() > maxHeight {
			t.Fatalf("size %d: height %d exceeds balanced bound %d", size, nw.Height(), maxHeight)
		}
	}
}

func log2(x float64) float64 {
	if x <= 1 {
		return 1
	}
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

func TestJoinCostIsLogarithmic(t *testing.T) {
	nw := buildNetwork(t, 300, 7)
	rng := rand.New(rand.NewSource(7))
	var locate stats.Accumulator
	for i := 0; i < 50; i++ {
		ids := nw.PeerIDs()
		via := ids[rng.Intn(len(ids))]
		_, cost, err := nw.Join(via)
		if err != nil {
			t.Fatal(err)
		}
		locate.AddInt(cost.LocateMessages)
		if cost.Messages == 0 {
			t.Fatal("join should cost at least one message")
		}
	}
	// The locate phase must stay well below the tree height bound times a
	// small constant (the paper reports it is much smaller than log N).
	if locate.Mean() > 3*float64(nw.Height()) {
		t.Fatalf("average locate cost %.1f too high for height %d", locate.Mean(), nw.Height())
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinUnknownPeer(t *testing.T) {
	nw := NewNetwork(Config{})
	if _, _, err := nw.Join(PeerID(999)); err == nil {
		t.Fatal("join via unknown peer should fail")
	}
}

func TestLeaveReducesSizeAndKeepsInvariants(t *testing.T) {
	nw := buildNetwork(t, 64, 3)
	rng := rand.New(rand.NewSource(3))
	for nw.Size() > 1 {
		ids := nw.PeerIDs()
		id := ids[rng.Intn(len(ids))]
		before := nw.Size()
		if _, err := nw.Leave(id); err != nil {
			t.Fatalf("leave with %d peers: %v", before, err)
		}
		if nw.Size() != before-1 {
			t.Fatalf("size after leave = %d, want %d", nw.Size(), before-1)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("after leaving peer %d (size %d): %v", id, nw.Size(), err)
		}
	}
}

func TestLeaveLastPeerFails(t *testing.T) {
	nw := NewNetwork(Config{})
	if _, err := nw.Leave(nw.Root().ID); err != ErrLastPeer {
		t.Fatalf("leaving the last peer should fail with ErrLastPeer, got %v", err)
	}
}

func TestLeavePreservesData(t *testing.T) {
	nw := buildNetwork(t, 50, 11)
	rng := rand.New(rand.NewSource(11))
	keys := make([]keyspace.Key, 0, 500)
	for i := 0; i < 500; i++ {
		k := keyspace.Key(rng.Int63n(int64(keyspace.DomainMax)))
		keys = append(keys, k)
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Remove half the peers; all data must remain reachable.
	for i := 0; i < 25; i++ {
		ids := nw.PeerIDs()
		if _, err := nw.Leave(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		_, found, _, err := nw.SearchExact(nw.RandomPeer(), k)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("key %d lost after peers left", k)
		}
	}
	if nw.TotalItems() == 0 {
		t.Fatal("all items vanished")
	}
}

func TestChurnJoinLeaveMix(t *testing.T) {
	nw := buildNetwork(t, 40, 17)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 300; step++ {
		if rng.Float64() < 0.5 && nw.Size() > 2 {
			ids := nw.PeerIDs()
			if _, err := nw.Leave(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatalf("step %d leave: %v", step, err)
			}
		} else {
			if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestPeerAccessors(t *testing.T) {
	nw := buildNetwork(t, 20, 23)
	ids := nw.PeerIDs()
	if len(ids) != 20 {
		t.Fatalf("PeerIDs returned %d ids", len(ids))
	}
	info, err := nw.Peer(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != ids[3] {
		t.Fatalf("Peer returned wrong snapshot: %+v", info)
	}
	if _, err := nw.Peer(PeerID(10_000)); err == nil {
		t.Fatal("unknown peer should error")
	}
	peers := nw.Peers()
	if len(peers) != 20 {
		t.Fatalf("Peers returned %d snapshots", len(peers))
	}
	// Peers are returned in key order.
	for i := 1; i < len(peers); i++ {
		if peers[i-1].Range.Lower > peers[i].Range.Lower {
			t.Fatal("Peers not sorted by range")
		}
	}
	if got := nw.PeerAtLevel(0); len(got) != 1 {
		t.Fatalf("PeerAtLevel(0) = %v", got)
	}
	if nw.RandomPeer() == NoPeer {
		t.Fatal("RandomPeer returned NoPeer on a populated network")
	}
}

func TestRoutingTableFullPredicate(t *testing.T) {
	nw := buildNetwork(t, 7, 31) // complete tree of 7 nodes
	// In a complete 7-node tree every peer has full routing tables.
	var vb viewBuf
	for _, n := range nw.nodes {
		if !vb.fill(n).RoutingTablesFull(n.pos) {
			t.Fatalf("peer at %v should have full routing tables in a complete tree", n.pos)
		}
	}
	// Add one more peer; its sibling position is empty so it must have a
	// non-full table... unless it filled level 3 entirely (not with 8 peers).
	nw = buildNetwork(t, 8, 31)
	nonFull := 0
	for _, n := range nw.nodes {
		if !vb.fill(n).RoutingTablesFull(n.pos) {
			nonFull++
		}
	}
	if nonFull == 0 {
		t.Fatal("an 8-peer network must contain peers with incomplete routing tables")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	nw := buildNetwork(t, 32, 41)
	if nw.Metrics().TotalMessages() == 0 {
		t.Fatal("joins should have produced messages")
	}
	if nw.Metrics().OpCount(stats.OpJoin) != 31 {
		t.Fatalf("expected 31 join ops, got %d", nw.Metrics().OpCount(stats.OpJoin))
	}
}
