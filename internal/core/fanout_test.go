package core

import (
	"math/rand"
	"sort"
	"testing"

	"baton/internal/keyspace"
)

// buildNetworkFanout grows an m-ary network to n peers the way buildNetwork
// does for the binary tree.
func buildNetworkFanout(t testing.TB, fanout, n int, seed int64) *Network {
	t.Helper()
	nw := NewNetwork(Config{Seed: seed, Fanout: fanout})
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

// TestFanoutPositionAlgebra pins the m-ary position arithmetic against the
// binary methods at m=2 and against hand-computed values at m=4.
func TestFanoutPositionAlgebra(t *testing.T) {
	// m=2 must agree with the binary methods everywhere.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		level := rng.Intn(20)
		num := int64(rng.Intn(1<<uint(level))) + 1
		p := Position{Level: level, Number: num}
		if p.ValidIn(2) != p.Valid() {
			t.Fatalf("ValidIn(2) disagrees with Valid at %v", p)
		}
		if !p.IsRoot() {
			if p.ParentIn(2) != p.Parent() {
				t.Fatalf("ParentIn(2) disagrees with Parent at %v", p)
			}
			if p.SlotIn(2) == 0 != p.IsLeftChild() {
				t.Fatalf("SlotIn(2) disagrees with IsLeftChild at %v", p)
			}
		}
		if p.ChildIn(2, 0) != p.LeftChild() || p.ChildIn(2, 1) != p.RightChild() {
			t.Fatalf("ChildIn(2) disagrees with LeftChild/RightChild at %v", p)
		}
		q := Position{Level: rng.Intn(20)}
		q.Number = int64(rng.Intn(1<<uint(q.Level))) + 1
		if p.InOrderBeforeIn(2, q) != p.InOrderBefore(q) {
			t.Fatalf("InOrderBeforeIn(2) disagrees with InOrderBefore at %v vs %v", p, q)
		}
		if p.CompareIn(2, q) != p.Compare(q) {
			t.Fatalf("CompareIn(2) disagrees with Compare at %v vs %v", p, q)
		}
	}

	// RT layout: distances strictly increasing, 2^k at m=2, j*m^i at m=4.
	for k := 0; k < 10; k++ {
		if RTDistance(2, k) != int64(1)<<uint(k) {
			t.Fatalf("RTDistance(2, %d) = %d, want %d", k, RTDistance(2, k), int64(1)<<uint(k))
		}
	}
	want4 := []int64{1, 2, 3, 4, 8, 12, 16, 32, 48}
	for k, w := range want4 {
		if RTDistance(4, k) != w {
			t.Fatalf("RTDistance(4, %d) = %d, want %d", k, RTDistance(4, k), w)
		}
	}
	for _, m := range []int{2, 3, 4, 8, 16} {
		for k := 1; k < 4*(m-1); k++ {
			if RTDistance(m, k) <= RTDistance(m, k-1) {
				t.Fatalf("RTDistance(%d) not strictly increasing at entry %d", m, k)
			}
		}
		if RoutingTableSizeIn(m, 3) != 3*(m-1) {
			t.Fatalf("RoutingTableSizeIn(%d, 3) = %d", m, RoutingTableSizeIn(m, 3))
		}
	}

	// In-order ordering at m=4: the root's children 0..2 precede it, child 3
	// follows, and the full level-2 order interleaves as the traversal
	// prescribes.
	root := RootPosition
	for s := 0; s < 3; s++ {
		if !root.ChildIn(4, s).InOrderBeforeIn(4, root) {
			t.Fatalf("child %d of root should precede it at m=4", s)
		}
	}
	if !root.InOrderBeforeIn(4, root.ChildIn(4, 3)) {
		t.Fatalf("root should precede its last child at m=4")
	}
	// Children are ordered among themselves.
	for s := 0; s < 3; s++ {
		if !root.ChildIn(4, s).InOrderBeforeIn(4, root.ChildIn(4, s+1)) {
			t.Fatalf("children %d and %d of root out of order at m=4", s, s+1)
		}
	}

	// MaxLevelFor: binary unchanged, deeper fanouts shallower.
	if MaxLevelFor(2) != MaxLevel {
		t.Fatalf("MaxLevelFor(2) = %d, want %d", MaxLevelFor(2), MaxLevel)
	}
	for _, m := range []int{4, 8, 16, 64} {
		lvl := MaxLevelFor(m)
		if ipow(m, lvl+1) > uint64(1)<<62 {
			t.Fatalf("MaxLevelFor(%d) = %d overflows the comparison bound", m, lvl)
		}
	}
}

// TestFanoutChurnInvariants grows m-ary networks by random joins, interleaves
// random leaves, and checks the full invariant suite after every operation —
// the m-ary twin of the binary churn property test.
func TestFanoutChurnInvariants(t *testing.T) {
	for _, m := range []int{3, 4, 8} {
		m := m
		t.Run(map[int]string{3: "m3", 4: "m4", 8: "m8"}[m], func(t *testing.T) {
			nw := NewNetwork(Config{Seed: int64(m), Fanout: m})
			rng := rand.New(rand.NewSource(int64(m)))
			// Growth phase with per-join audit.
			for nw.Size() < 40 {
				ids := nw.PeerIDs()
				if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatalf("join at size %d: %v", nw.Size(), err)
				}
				if err := nw.CheckInvariants(); err != nil {
					t.Fatalf("after join at size %d: %v", nw.Size(), err)
				}
			}
			// Churn phase: mixed joins and leaves.
			for step := 0; step < 120; step++ {
				ids := nw.PeerIDs()
				if rng.Float64() < 0.5 && nw.Size() > 8 {
					id := ids[rng.Intn(len(ids))]
					if _, err := nw.Leave(id); err != nil {
						t.Fatalf("step %d: leave %d: %v", step, id, err)
					}
				} else {
					if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
						t.Fatalf("step %d: join: %v", step, err)
					}
				}
				if err := nw.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestFanoutSearchAndRange verifies exact and range search at m=4 and m=8
// over a populated network, including searches issued from every peer.
func TestFanoutSearchAndRange(t *testing.T) {
	for _, m := range []int{4, 8} {
		nw := buildNetworkFanout(t, m, 50, int64(m))
		rng := rand.New(rand.NewSource(int64(m) + 100))
		keys := make([]keyspace.Key, 0, 400)
		for i := 0; i < 400; i++ {
			k := keyspace.Key(rng.Int63n(1_000_000_000) + 1)
			via := nw.RandomPeer()
			if _, err := nw.Insert(via, k, []byte{byte(i)}); err != nil {
				t.Fatalf("m=%d: insert: %v", m, err)
			}
			keys = append(keys, k)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for _, k := range keys {
			_, found, _, err := nw.SearchExact(nw.RandomPeer(), k)
			if err != nil {
				t.Fatalf("m=%d: search %d: %v", m, k, err)
			}
			if !found {
				t.Fatalf("m=%d: key %d not found", m, k)
			}
		}
		res, _, err := nw.SearchRange(nw.RandomPeer(), keyspace.NewRange(1, 1_000_000_001))
		if err != nil {
			t.Fatalf("m=%d: range: %v", m, err)
		}
		if len(res.Items) != nw.TotalItems() {
			t.Fatalf("m=%d: full-domain range returned %d items, stored %d", m, len(res.Items), nw.TotalItems())
		}
	}
}

// TestFanoutCutsExactSearchMessages pins the payoff of BATON*: on 64 peers
// (seed 1) the median number of messages a SearchExact exchanges at fanout 8
// is strictly below the binary tree's. Everything is seeded, so the counts
// are deterministic — this is the count-based form of the "m=8 hops_p50
// below binary" gate CI used to take from one timed bench run.
func TestFanoutCutsExactSearchMessages(t *testing.T) {
	median := func(m int) int {
		nw := buildNetworkFanout(t, m, 64, 1)
		rng := rand.New(rand.NewSource(1))
		keys := make([]keyspace.Key, 400)
		for i := range keys {
			keys[i] = keyspace.Key(rng.Int63n(1_000_000_000) + 1)
			if _, err := nw.Insert(nw.RandomPeer(), keys[i], []byte{1}); err != nil {
				t.Fatalf("m=%d: insert: %v", m, err)
			}
		}
		msgs := make([]int, len(keys))
		for i, k := range keys {
			_, found, cost, err := nw.SearchExact(nw.RandomPeer(), k)
			if err != nil || !found {
				t.Fatalf("m=%d: search %d: found=%v err=%v", m, k, found, err)
			}
			msgs[i] = cost.Messages
		}
		sort.Ints(msgs)
		return msgs[len(msgs)/2]
	}
	binary, wide := median(2), median(8)
	t.Logf("median SearchExact messages at 64 peers: fanout 2 = %d, fanout 8 = %d", binary, wide)
	if wide >= binary {
		t.Fatalf("fanout 8 median %d messages not below fanout 2 median %d", wide, binary)
	}
}

// TestFanoutSnapshotRoundTrip checks that Snapshot/FromSnapshot preserve the
// fanout and the full link state at m=4, and that VerifySnapshot audits it.
func TestFanoutSnapshotRoundTrip(t *testing.T) {
	nw := buildNetworkFanout(t, 4, 40, 7)
	snaps := Snapshot(nw)
	for _, ps := range snaps {
		if ps.Fanout() != 4 {
			t.Fatalf("snapshot fanout = %d, want 4", ps.Fanout())
		}
		if len(ps.MidChildren) != 2 {
			t.Fatalf("MidChildren = %d entries, want 2", len(ps.MidChildren))
		}
	}
	if err := VerifySnapshot(nw.Domain(), snaps); err != nil {
		t.Fatalf("verify: %v", err)
	}
	back, err := FromSnapshot(nw.Domain(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fanout() != 4 {
		t.Fatalf("restored fanout = %d, want 4", back.Fanout())
	}
	if back.Size() != nw.Size() {
		t.Fatalf("restored size = %d, want %d", back.Size(), nw.Size())
	}
}

// TestFanoutForcedRejoin drives the load-balancing primitives at m=4: shift
// a boundary, then force a light leaf to rejoin under a hot peer, auditing
// invariants throughout.
func TestFanoutForcedRejoin(t *testing.T) {
	nw := buildNetworkFanout(t, 4, 30, 11)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		k := keyspace.Key(rng.Int63n(1_000_000_000) + 1)
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	// Pick a hot peer (most items) and a light leaf far from it.
	var hot, light *Node
	for _, n := range nw.inOrderNodes() {
		if hot == nil || n.data.Len() > hot.data.Len() {
			hot = n
		}
	}
	for _, n := range nw.inOrderNodes() {
		if n == hot || !n.IsLeaf() || n.pos.IsRoot() {
			continue
		}
		if n.leftAdj == hot || n.rightAdj == hot {
			continue
		}
		heir := n.rightAdj
		if heir == nil {
			heir = n.leftAdj
		}
		if heir == hot {
			continue
		}
		if light == nil || n.data.Len() < light.data.Len() {
			light = n
		}
	}
	if light == nil {
		t.Skip("no recruitable light leaf in this configuration")
	}
	boundary := hot.nodeRange.Lower + (hot.nodeRange.Upper-hot.nodeRange.Lower)/2
	if _, err := nw.ForcedRejoin(light.id, hot.id, boundary); err != nil {
		t.Fatalf("forced rejoin: %v", err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("after forced rejoin: %v", err)
	}
}

// TestFanoutCrashRepair fails peers at m=4 and repairs them, auditing the
// structure after every repair.
func TestFanoutCrashRepair(t *testing.T) {
	nw := buildNetworkFanout(t, 4, 40, 13)
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 6; round++ {
		ids := nw.PeerIDs()
		id := ids[rng.Intn(len(ids))]
		if err := nw.Fail(id); err != nil {
			t.Fatalf("round %d: fail %d: %v", round, id, err)
		}
		if _, err := nw.RepairFailure(id); err != nil {
			t.Fatalf("round %d: repair %d: %v", round, id, err)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestInvalidFanoutPanics pins the constructor's validation.
func TestInvalidFanoutPanics(t *testing.T) {
	for _, bad := range []int{1, -3, MaxFanout + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNetwork(Fanout: %d) did not panic", bad)
				}
			}()
			NewNetwork(Config{Fanout: bad})
		}()
	}
}
