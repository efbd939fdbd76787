package p2p

import (
	"fmt"
	"math/rand"
	"testing"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
)

// liveClusterFanout is liveCluster with an explicit overlay fanout: the
// mirror network is grown m-ary (BATON* for m > 2) before the live cluster
// is spun up on it.
func liveClusterFanout(t testing.TB, peers, items int, seed int64, fanout int) (*Cluster, []keyspace.Key) {
	t.Helper()
	nw, keys := loadedNetwork(t, peers, items, seed, fanout)
	c := NewCluster(nw)
	t.Cleanup(c.Stop)
	return c, keys
}

// TestTraceOverlayMatchesExpectedRouteFanout extends the flight recorder's
// ground-truth test to the m-ary overlay: at fanout 4 and 8, every traced
// overlay Get must match the structural mirror's predicted route hop for
// hop, so the live BATON* forwarding and core.RoutePath are the same
// algorithm at every fanout, not just at 2.
func TestTraceOverlayMatchesExpectedRouteFanout(t *testing.T) {
	for _, m := range []int{4, 8} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			checkTracedRoutes(t, m)
		})
	}
}

// TestTraceDirectGetOneHopFanout pins the fast path at every fanout: a
// direct-routed Get on a quiesced m-ary cluster is exactly one hop, at the
// key's owner — the route cache must not care about the tree's shape.
func TestTraceDirectGetOneHopFanout(t *testing.T) {
	for _, m := range []int{4, 8} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			c, keys := liveClusterFanout(t, 32, 100, 439, m)
			c.SetRouteMode(RouteDirect)
			c.SetTraceSampling(1)
			for _, key := range keys[:20] {
				owner := c.ownerOf(key)
				if _, found, _, err := c.Get(c.PeerIDs()[0], key); err != nil || !found {
					t.Fatalf("direct get %d: found=%v err=%v", key, found, err)
				}
				traces := c.Traces()
				last := traces[len(traces)-1]
				if len(last) != 1 {
					t.Fatalf("direct get %d traced %d hops, want exactly 1: %v", key, len(last), last)
				}
				if core.PeerID(last[0].Peer) != owner.id {
					t.Fatalf("direct get %d traced at peer %d, owner is %d", key, last[0].Peer, owner.id)
				}
			}
		})
	}
}

// TestTraceStaleEpochTwoHopsFanout pins the re-aim path at every fanout: a
// direct request tagged with a stale epoch and delivered to the wrong peer
// is exactly two hops — the mistaken peer, then the true owner.
func TestTraceStaleEpochTwoHopsFanout(t *testing.T) {
	for _, m := range []int{4, 8} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			c, keys := liveClusterFanout(t, 48, 200, 443, m)
			if _, err := c.Join(c.PeerIDs()[0]); err != nil {
				t.Fatal(err)
			}
			key := keys[0]
			owner := c.ownerOf(key)
			var wrong *peer
			for _, e := range c.topo.Load().ring {
				if e.p != owner {
					wrong = e.p
					break
				}
			}
			req := request{kind: kindGet, key: key, epoch: 1, reply: make(chan response, 1), trace: obs.NewTrace()}
			if !c.deliverTo(wrong, req, false) {
				t.Fatal("delivery to the wrong peer refused")
			}
			resp := <-req.reply
			if resp.err != nil || !resp.found {
				t.Fatalf("stale-tagged get: found=%v err=%v", resp.found, resp.err)
			}
			got := tracePeers(req.trace.Hops())
			if len(got) != 2 || got[0] != wrong.id || got[1] != owner.id {
				t.Fatalf("stale-tagged get traced %v, want [%d %d] (miss then re-aim)", got, wrong.id, owner.id)
			}
		})
	}
}

// TestClusterChurnFaultBalanceFanout is the live m-ary soak: at fanout 4 and
// 8, the cluster survives online joins, graceful departures, crashes with
// repair, and a balancer convergence pass, and the quiesced result passes
// the full structural and replication audits, sequentially where
// TestScenarios runs the same events under concurrent traffic.
func TestClusterChurnFaultBalanceFanout(t *testing.T) {
	for _, m := range []int{4, 8} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			c, keys := liveClusterFanout(t, 40, 600, 467, m)
			rng := rand.New(rand.NewSource(479))

			// Churn: interleave joins and departs.
			for i := 0; i < 12; i++ {
				if i%2 == 0 {
					if _, err := c.Join(c.PeerIDs()[rng.Intn(c.Size())]); err != nil {
						t.Fatalf("join %d: %v", i, err)
					}
				} else {
					ids := c.PeerIDs()
					if err := c.Depart(ids[rng.Intn(len(ids))]); err != nil {
						t.Fatalf("depart %d: %v", i, err)
					}
				}
			}

			// Faults: crash and repair a few peers.
			for i := 0; i < 4; i++ {
				ids := c.PeerIDs()
				victim := ids[rng.Intn(len(ids))]
				if err := c.Kill(victim); err != nil {
					t.Fatalf("kill %d: %v", victim, err)
				}
				if _, err := c.Recover(victim); err != nil {
					t.Fatalf("recover %d: %v", victim, err)
				}
			}

			// Balance: run the balancer to a fixed point.
			if _, err := c.BalanceUntilStable(AutoBalanceConfig{}, 8*c.Size()); err != nil {
				t.Fatalf("balance: %v", err)
			}

			// Every pre-loaded key must still be readable.
			ids := c.PeerIDs()
			for _, k := range keys {
				if _, found, _, err := c.Get(ids[rng.Intn(len(ids))], k); err != nil || !found {
					t.Fatalf("get %d after churn: found=%v err=%v", k, found, err)
				}
			}

			// Full end-of-run audits, as TestScenarios runs them.
			snaps, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifySnapshot(c.Domain(), snaps); err != nil {
				t.Fatalf("structural invariants at m=%d: %v", m, err)
			}
			for _, ps := range snaps {
				if got := ps.Fanout(); got != m {
					t.Fatalf("peer %d snapshot fanout %d, want %d", ps.ID, got, m)
				}
			}
			if err := c.SyncReplicas(); err != nil {
				t.Fatal(err)
			}
			replicas, err := c.Replicas()
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyReplication(snaps, replicas); err != nil {
				t.Fatalf("replication invariants at m=%d: %v", m, err)
			}
		})
	}
}
