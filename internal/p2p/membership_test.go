package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
)

// verifyCluster quiesces the cluster, snapshots it and round-trips the
// snapshot through the simulator's structural invariant suite.
func verifyCluster(t *testing.T, c *Cluster) []core.PeerSnapshot {
	t.Helper()
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := core.VerifySnapshot(c.Domain(), snaps); err != nil {
		t.Fatalf("post-quiesce invariants: %v", err)
	}
	return snaps
}

// TestClusterJoinGrowsAndServes: online joins grow the cluster, migrate the
// split-off data, keep every pre-loaded key readable, and the resulting
// structure passes the simulator's invariants.
func TestClusterJoinGrowsAndServes(t *testing.T) {
	c, keys := liveCluster(t, 20, 500, 101)
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(102))

	var joined []core.PeerID
	for i := 0; i < 15; i++ {
		id, err := c.Join(ids[rng.Intn(len(ids))])
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		joined = append(joined, id)
	}
	if got := c.Size(); got != 35 {
		t.Fatalf("cluster size after joins = %d, want 35", got)
	}
	verifyCluster(t, c)

	// Every pre-loaded key is still readable, including via brand-new peers.
	all := append(append([]core.PeerID{}, c.PeerIDs()...), joined...)
	for i, k := range keys {
		via := all[i%len(all)]
		v, found, _, err := c.Get(via, k)
		if err != nil || !found {
			t.Fatalf("get %d via %d after joins: found=%v err=%v", k, via, found, err)
		}
		if string(v) != fmt.Sprint(k) {
			t.Fatalf("get %d returned %q", k, v)
		}
	}
	// New peers own real ranges and answer writes.
	for _, id := range joined {
		p := c.peerByID(id)
		if p == nil {
			t.Fatalf("joined peer %d missing from topology", id)
		}
		if _, err := c.Put(id, p.rng.Lower, []byte("x")); err != nil {
			t.Fatalf("put via joined peer %d: %v", id, err)
		}
	}
}

// TestClusterDepartMigratesData: graceful departures — safe leaves and
// non-leaf peers needing a replacement — hand every stored item off, so all
// acknowledged data stays readable and the shrunken structure stays valid.
func TestClusterDepartMigratesData(t *testing.T) {
	c, keys := liveCluster(t, 40, 800, 103)
	rng := rand.New(rand.NewSource(104))

	// Depart 25 peers chosen at random: over that many removals from a
	// 40-peer tree both the safe-leaf and the replacement path run.
	for i := 0; i < 25; i++ {
		ids := c.PeerIDs()
		id := ids[rng.Intn(len(ids))]
		if err := c.Depart(id); err != nil {
			t.Fatalf("depart %d (#%d): %v", id, i, err)
		}
		// Departed peers are no longer members but still answer as
		// forwarding tombstones.
		if _, found, _, err := c.Get(id, keys[0]); err != nil || !found {
			t.Fatalf("get via departed peer %d: found=%v err=%v", id, found, err)
		}
	}
	if got := c.Size(); got != 15 {
		t.Fatalf("cluster size after departures = %d, want 15", got)
	}
	snaps := verifyCluster(t, c)
	total := 0
	for _, ps := range snaps {
		total += len(ps.Items)
	}
	if total != len(keys) {
		t.Fatalf("items after departures = %d, want %d (no write may be lost)", total, len(keys))
	}
	for _, k := range keys {
		if _, found, _, err := c.Get(c.PeerIDs()[0], k); err != nil || !found {
			t.Fatalf("get %d after departures: found=%v err=%v", k, found, err)
		}
	}
}

// TestClusterDepartLastPeerRefused: the final peer cannot leave.
func TestClusterDepartLastPeerRefused(t *testing.T) {
	c, _ := liveCluster(t, 2, 10, 105)
	ids := c.PeerIDs()
	if err := c.Depart(ids[0]); err != nil {
		t.Fatalf("departing one of two peers: %v", err)
	}
	last := c.PeerIDs()[0]
	if err := c.Depart(last); !errors.Is(err, core.ErrLastPeer) {
		t.Fatalf("departing the last peer: %v, want ErrLastPeer", err)
	}
	if err := c.Depart(ids[0]); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("departing an already-departed peer: %v, want ErrUnknownPeer", err)
	}
}

// TestClusterDepartKilledPeerRefused: a killed peer cannot leave gracefully
// (its data is gone; graceful departure would pretend to hand it off).
func TestClusterDepartKilledPeerRefused(t *testing.T) {
	c, _ := liveCluster(t, 10, 50, 106)
	id := c.PeerIDs()[3]
	if err := c.Kill(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Depart(id); !errors.Is(err, ErrOwnerDown) {
		t.Fatalf("departing a killed peer: %v, want ErrOwnerDown", err)
	}
}

// TestDepartReportsRefusedHandoff: a handoff its destination refuses must
// come back as the structural call's error — after the operation has run to
// the end and published — and be journalled. In a two-peer cluster the
// child's range goes to its parent on departure; the parent is made to
// refuse the handoff by marking it a tombstone whose successor does not
// exist, so it forwards the items nowhere and answers with ErrOwnerDown.
func TestDepartReportsRefusedHandoff(t *testing.T) {
	c, _ := liveCluster(t, 2, 50, 31)
	var leaver, absorber *peer
	for _, id := range c.PeerIDs() {
		if parent := c.states[id].Parent; parent != core.NoPeer {
			leaver, absorber = c.peerByID(id), c.peerByID(parent)
		}
	}
	absorber.run.Lock()
	absorber.departed, absorber.departTo = true, 424242
	absorber.run.Unlock()

	err := c.Depart(leaver.id)
	if !errors.Is(err, ErrOwnerDown) {
		t.Fatalf("Depart with a refused handoff returned %v, want ErrOwnerDown", err)
	}
	if got := c.PeerIDs(); len(got) != 1 || got[0] != absorber.id {
		t.Fatalf("members after the refused handoff = %v, want [%d]: the change must still publish", got, absorber.id)
	}
	evs := c.Events()
	if ev := evs[len(evs)-1]; ev.Op != "depart" || ev.Outcome != "error" || ev.Err != err.Error() {
		t.Fatalf("journal entry %+v, want the depart recorded with error %q", ev, err)
	}
}

// TestClusterLoadBalance: the adjacent-peer shuffle of Section V moves
// about half the imbalance to the lighter neighbour while every key stays
// readable and the structure stays valid.
func TestClusterLoadBalance(t *testing.T) {
	c, _ := liveCluster(t, 16, 0, 107)
	// Skew: load one peer with a burst of keys inside its own range.
	snaps := verifyCluster(t, c)
	victim := snaps[len(snaps)/2]
	span := victim.Range.Size()
	if span < 200 {
		t.Fatalf("victim range too narrow for the test: %v", victim.Range)
	}
	var keys []keyspace.Key
	for i := int64(0); i < 200; i++ {
		k := victim.Range.Lower + keyspace.Key(i*(span/200))
		keys = append(keys, k)
		if _, err := c.Put(victim.ID, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.peerCount(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := c.LoadBalance(victim.ID)
	if err != nil {
		t.Fatalf("load balance: %v", err)
	}
	if moved == 0 {
		t.Fatal("load balance moved no items off a peer with 200 vs ~0 items")
	}
	after, err := c.peerCount(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after != before-moved {
		t.Fatalf("victim count %d after moving %d of %d", after, moved, before)
	}
	if after < before/4 || after > 3*before/4 {
		t.Fatalf("shuffle should move about half the imbalance: %d -> %d", before, after)
	}
	verifyCluster(t, c)
	for _, k := range keys {
		if _, found, _, err := c.Get(victim.ID, k); err != nil || !found {
			t.Fatalf("get %d after load balance: found=%v err=%v", k, found, err)
		}
	}
}

// TestSnapshotInvariantsAfterRandomChurn: random interleavings of Join,
// Depart and Kill leave a structure that always satisfies the simulator's
// full invariant suite (balanced shape, contiguous gap-free ranges,
// symmetric link and routing-table state).
func TestSnapshotInvariantsAfterRandomChurn(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c, _ := liveCluster(t, 24, 200, 200+seed)
		rng := rand.New(rand.NewSource(300 + seed))
		kills := 0
		for i := 0; i < 60; i++ {
			ids := c.PeerIDs()
			id := ids[rng.Intn(len(ids))]
			switch rng.Intn(3) {
			case 0:
				if c.Alive(id) {
					if _, err := c.Join(id); err != nil {
						t.Fatalf("seed %d join via %d: %v", seed, id, err)
					}
				}
			case 1:
				if c.Alive(id) && c.Size() > 2 {
					if err := c.Depart(id); err != nil {
						t.Fatalf("seed %d depart %d: %v", seed, id, err)
					}
				}
			case 2:
				// Keep kills rare: every kill permanently removes routing
				// capacity (the live cluster does not repair failures).
				if kills < 3 && c.Alive(id) {
					if err := c.Kill(id); err != nil {
						t.Fatal(err)
					}
					kills++
				}
			}
		}
		verifyCluster(t, c)
		c.Stop()
	}
}

// TestNoLostWritesUnderChurn is the headline guarantee: while concurrent
// clients Put/Get/Range and the membership churns with Join, Depart and
// Kill, every acknowledged Put remains readable afterwards unless the peer
// currently owning its key was killed (an abrupt failure loses its data by
// design — the paper does not replicate). Run with -race.
func TestNoLostWritesUnderChurn(t *testing.T) {
	c, _ := liveCluster(t, 32, 200, 401)
	domain := keyspace.FullDomain()

	var (
		stop    atomic.Bool
		ackedMu sync.Mutex
		acked   = map[keyspace.Key][]byte{}
	)
	const clients = 8
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(500 + int64(cl)))
			var mine []keyspace.Key
			for !stop.Load() {
				ids := c.PeerIDs()
				via := ids[rng.Intn(len(ids))]
				switch rng.Intn(4) {
				case 0, 1:
					k := domain.Lower + keyspace.Key(rng.Int63n(domain.Size()))
					v := []byte(fmt.Sprintf("c%d-%d", cl, k))
					if _, err := c.Put(via, k, v); err == nil {
						ackedMu.Lock()
						acked[k] = v
						ackedMu.Unlock()
						mine = append(mine, k)
					}
				case 2:
					if len(mine) > 0 {
						c.Get(via, mine[rng.Intn(len(mine))])
					}
				default:
					lo := domain.Lower + keyspace.Key(rng.Int63n(domain.Size()-1_000_000))
					c.Query(via, parallelQuery(keyspace.NewRange(lo, lo+1_000_000)))
				}
			}
		}(cl)
	}

	// Churn driver: joins, departures and a few kills, interleaved.
	churnRng := rand.New(rand.NewSource(600))
	kills := 0
	for i := 0; i < 40; i++ {
		ids := c.PeerIDs()
		id := ids[churnRng.Intn(len(ids))]
		switch churnRng.Intn(5) {
		case 0, 1:
			if c.Alive(id) {
				if _, err := c.Join(id); err != nil {
					t.Errorf("join via %d: %v", id, err)
				}
			}
		case 2, 3:
			if c.Alive(id) && c.Size() > 2 {
				if err := c.Depart(id); err != nil {
					t.Errorf("depart %d: %v", id, err)
				}
			}
		default:
			if kills < 4 && c.Alive(id) {
				c.Kill(id)
				kills++
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	snaps := verifyCluster(t, c)
	ownerOf := func(k keyspace.Key) core.PeerID {
		for _, ps := range snaps {
			if ps.Range.Contains(k) {
				return ps.ID
			}
		}
		// Outside the domain: the extreme peers own it.
		if k < snaps[0].Range.Lower {
			return snaps[0].ID
		}
		return snaps[len(snaps)-1].ID
	}
	via := c.PeerIDs()[0]
	lost := 0
	for k, want := range acked {
		v, found, _, err := c.Get(via, k)
		if found && string(v) == string(want) {
			continue
		}
		owner := ownerOf(k)
		if !c.Alive(owner) {
			continue // its current owner was killed: data loss is by design
		}
		lost++
		if lost < 5 {
			t.Errorf("acknowledged write %d lost (owner %d alive): found=%v err=%v", k, owner, found, err)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged writes lost with alive owners", lost, len(acked))
	}
}

// TestLinkRangesRefreshedAfterJoin is the regression test for stale cached
// link bounds: after a join splits a peer's range, every peer linking to it
// must learn the new bounds. Otherwise killing the split peer later makes
// forward()'s dead-owner rule blame it for keys that migrated to the new
// peer, and reachable data answers ErrOwnerDown.
func TestLinkRangesRefreshedAfterJoin(t *testing.T) {
	c, _ := liveCluster(t, 16, 0, 801)
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prevRange := map[core.PeerID]keyspace.Range{}
	for _, ps := range before {
		prevRange[ps.ID] = ps.Range
	}
	newID, err := c.Join(c.PeerIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Find the peer whose range the join split, and the half that moved.
	var split core.PeerID
	for _, ps := range after {
		if ps.ID == newID {
			continue
		}
		if r, ok := prevRange[ps.ID]; ok && r != ps.Range {
			split = ps.ID
		}
	}
	if split == core.NoPeer {
		t.Fatal("join split no range")
	}
	moved := prevRange[split]
	// Load a key into the migrated half, then kill the split peer: the key
	// lives on the new peer and must stay readable from every via.
	var movedKey keyspace.Key
	for _, ps := range after {
		if ps.ID == newID {
			movedKey = ps.Range.Lower
		}
	}
	if !moved.Contains(movedKey) {
		t.Fatalf("new peer's range %v not carved from %v", movedKey, moved)
	}
	if _, err := c.Put(c.PeerIDs()[0], movedKey, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(split); err != nil {
		t.Fatal(err)
	}
	for _, via := range c.PeerIDs() {
		if !c.Alive(via) {
			continue
		}
		if _, found, _, err := c.Get(via, movedKey); err != nil || !found {
			t.Fatalf("get %d via %d after killing the split peer: found=%v err=%v (stale link bounds?)", movedKey, via, found, err)
		}
	}
}

// TestTombstonesAreReaped: departed peers' forwarder goroutines are retired
// after later structural operations instead of accumulating forever.
func TestTombstonesAreReaped(t *testing.T) {
	c, _ := liveCluster(t, 12, 100, 802)
	id := c.PeerIDs()[4]
	if err := c.Depart(id); err != nil {
		t.Fatal(err)
	}
	if c.peerByID(id) == nil {
		t.Fatal("fresh tombstone must stay addressable for stale senders")
	}
	// Two further structural operations pass: stage 1 (stop deliveries),
	// then stage 2 (drain and drop).
	for i := 0; i < 2; i++ {
		nid, err := c.Join(c.PeerIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Depart(nid); err != nil {
			t.Fatal(err)
		}
	}
	if c.peerByID(id) != nil {
		t.Fatalf("tombstone %d still in the delivery map after later operations", id)
	}
	// Requests addressed to the reaped peer fail over like a dead peer's.
	if _, _, _, err := c.Get(id, 1); err == nil {
		t.Fatal("request via a reaped peer should error, not hang")
	}
	verifyCluster(t, c)
}

// TestSnapshotRoundTripsThroughCore: a quiesced snapshot rebuilds into a
// working core.Network whose queries agree with the live cluster.
func TestSnapshotRoundTripsThroughCore(t *testing.T) {
	c, keys := liveCluster(t, 25, 300, 701)
	ids := c.PeerIDs()
	if _, err := c.Join(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Depart(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := core.FromSnapshot(c.Domain(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:50] {
		_, found, _, err := nw.SearchExact(nw.RandomPeer(), k)
		if err != nil || !found {
			t.Fatalf("rebuilt network: search %d: found=%v err=%v", k, found, err)
		}
	}
}
