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
	"baton/internal/store"
)

// verifyReplication quiesces the cluster, closes the asynchronous
// write-path window with SyncReplicas, and audits the replica placement
// against core.VerifyReplication: every peer's items exactly mirrored at
// its holder.
func verifyReplication(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.SyncReplicas(); err != nil {
		t.Fatalf("sync replicas: %v", err)
	}
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	replicas, err := c.Replicas()
	if err != nil {
		t.Fatalf("replicas: %v", err)
	}
	if err := core.VerifyReplication(snaps, replicas); err != nil {
		t.Fatalf("replication invariant: %v", err)
	}
}

// aliveVia returns an alive member other than the given ones.
func aliveVia(t *testing.T, c *Cluster, not ...core.PeerID) core.PeerID {
	t.Helper()
	for _, id := range c.PeerIDs() {
		skip := !c.Alive(id)
		for _, n := range not {
			skip = skip || id == n
		}
		if !skip {
			return id
		}
	}
	t.Fatal("no alive peer available")
	return core.NoPeer
}

// victimWith returns a member peer matching the predicate over its
// snapshot, preferring peers with many items so the data-restoration path
// is really exercised.
func victimWith(t *testing.T, c *Cluster, pred func(core.PeerSnapshot) bool) core.PeerSnapshot {
	t.Helper()
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	best := -1
	for i, ps := range snaps {
		if !pred(ps) {
			continue
		}
		if best == -1 || len(ps.Items) > len(snaps[best].Items) {
			best = i
		}
	}
	if best == -1 {
		t.Fatal("no peer matches the victim predicate")
	}
	return snaps[best]
}

// TestKillRecoverRestoresData: after Kill of a non-empty leaf peer its
// range answers ErrOwnerDown; after Recover every key it owned is readable
// again with its pre-crash value, restored from the replica (the dead
// peer's own store was wiped at Kill). The repaired structure passes both
// the structural and the replication invariant suites.
func TestKillRecoverRestoresData(t *testing.T) {
	c, _ := liveCluster(t, 40, 1200, 211)
	ps := victimWith(t, c, func(ps core.PeerSnapshot) bool {
		return ps.LeftChild == core.NoPeer && ps.RightChild == core.NoPeer && len(ps.Items) > 0
	})
	if err := c.Kill(ps.ID); err != nil {
		t.Fatal(err)
	}
	// The wiped store is really gone: recovery cannot cheat by reading it.
	if n := c.peerByID(ps.ID).data.Len(); n != 0 {
		t.Fatalf("killed peer still stores %d items", n)
	}
	via := aliveVia(t, c, ps.ID)
	for _, it := range ps.Items[:3] {
		if _, _, _, err := c.Get(via, it.Key); !errors.Is(err, ErrOwnerDown) {
			t.Fatalf("get %d with owner down: err = %v, want ErrOwnerDown", it.Key, err)
		}
	}

	restored, err := c.Recover(ps.ID)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if restored != len(ps.Items) {
		t.Fatalf("recover restored %d items, the victim owned %d", restored, len(ps.Items))
	}
	if got := c.Size(); got != 39 {
		t.Fatalf("cluster size after recovery = %d, want 39 (crashed peer repaired out)", got)
	}
	for _, it := range ps.Items {
		v, found, _, err := c.Get(via, it.Key)
		if err != nil || !found {
			t.Fatalf("get %d after recovery: found=%v err=%v", it.Key, found, err)
		}
		if string(v) != string(it.Value) {
			t.Fatalf("get %d after recovery returned %q, want pre-crash %q", it.Key, v, it.Value)
		}
	}
	// Stale routing state addressing the dead peer is forwarded, not
	// refused: the tombstone makes ErrOwnerDown transient for old clients
	// too.
	if _, found, _, err := c.Get(ps.ID, ps.Items[0].Key); err != nil || !found {
		t.Fatalf("get via recovered peer's tombstone: found=%v err=%v", found, err)
	}
	verifyCluster(t, c)
	verifyReplication(t, c)
}

// TestRecoverNonLeafPeer: recovering a peer with children exercises the
// replacement-leaf path of the crash repair.
func TestRecoverNonLeafPeer(t *testing.T) {
	c, keys := liveCluster(t, 40, 1200, 223)
	ps := victimWith(t, c, func(ps core.PeerSnapshot) bool {
		return (ps.LeftChild != core.NoPeer || ps.RightChild != core.NoPeer) && len(ps.Items) > 0
	})
	if err := c.Kill(ps.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := c.Recover(ps.ID)
	if err != nil {
		t.Fatalf("recover non-leaf: %v", err)
	}
	if restored != len(ps.Items) {
		t.Fatalf("recover restored %d items, the victim owned %d", restored, len(ps.Items))
	}
	via := aliveVia(t, c)
	for _, k := range keys {
		v, found, _, err := c.Get(via, k)
		if err != nil || !found {
			t.Fatalf("get %d after non-leaf recovery: found=%v err=%v", k, found, err)
		}
		if string(v) != fmt.Sprint(k) {
			t.Fatalf("get %d returned %q", k, v)
		}
	}
	verifyCluster(t, c)
	verifyReplication(t, c)
}

// TestRecoverValidation: recovering an alive or unknown peer is refused.
func TestRecoverValidation(t *testing.T) {
	c, _ := liveCluster(t, 8, 50, 227)
	ids := c.PeerIDs()
	if _, err := c.Recover(ids[0]); err == nil {
		t.Fatal("recovering an alive peer must fail")
	}
	if _, err := c.Recover(core.PeerID(9999)); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("recovering an unknown peer: err = %v, want ErrUnknownPeer", err)
	}
}

// TestRecoverWithDeadHolderRepairsStructure: when the crashed peer's
// replica holder is dead too, the range is still repaired — it must come
// back up — but the data is gone and Recover says so with ErrReplicaLost.
func TestRecoverWithDeadHolderRepairsStructure(t *testing.T) {
	c, _ := liveCluster(t, 30, 600, 229)
	ps := victimWith(t, c, func(ps core.PeerSnapshot) bool {
		return len(ps.Items) > 0 && core.ReplicaHolderOf(ps) != core.NoPeer
	})
	holder := core.ReplicaHolderOf(ps)
	if err := c.Kill(holder); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(ps.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := c.Recover(ps.ID)
	if !errors.Is(err, ErrReplicaLost) {
		t.Fatalf("recover with dead holder: err = %v, want ErrReplicaLost", err)
	}
	if restored != 0 {
		t.Fatalf("recover with dead holder restored %d items from nowhere", restored)
	}
	// The range is served again (empty), and the other dead peer can now be
	// repaired normally — its own holder may have been the first victim, so
	// tolerate a lost replica, but the structure must heal.
	if _, err := c.Recover(holder); err != nil && !errors.Is(err, ErrReplicaLost) {
		t.Fatalf("recover holder: %v", err)
	}
	via := aliveVia(t, c)
	if _, _, _, err := c.Get(via, ps.Range.Lower); err != nil {
		t.Fatalf("get in repaired-but-lost range: %v", err)
	}
	verifyCluster(t, c)
	verifyReplication(t, c)
}

// TestAutoRecoverRepairsObservedCrashes: with the background repairer
// running, a killed peer's range heals without an explicit Recover call —
// plain traffic observing ErrOwnerDown is enough to trigger the repair.
func TestAutoRecoverRepairsObservedCrashes(t *testing.T) {
	c, _ := liveCluster(t, 30, 600, 233)
	c.StartAutoRecover()
	ps := victimWith(t, c, func(ps core.PeerSnapshot) bool { return len(ps.Items) > 0 })
	if err := c.Kill(ps.ID); err != nil {
		t.Fatal(err)
	}
	via := aliveVia(t, c, ps.ID)
	probe := ps.Items[0]
	deadline := time.Now().Add(15 * time.Second)
	for {
		v, found, _, err := c.Get(via, probe.Key)
		if err == nil && found && string(v) == string(probe.Value) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-recover did not heal the range: last found=%v err=%v", found, err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, it := range ps.Items {
		v, found, _, err := c.Get(via, it.Key)
		if err != nil || !found || string(v) != string(it.Value) {
			t.Fatalf("get %d after auto-recover: found=%v err=%v v=%q", it.Key, found, err, v)
		}
	}
	verifyCluster(t, c)
}

// TestBulkRetryViaDeadCoordinator is the regression test for the bulk
// retry path: a moved key used to be re-issued via the original batch
// coordinator, so when that coordinator was dead the retry failed with
// ErrOwnerDown even though the key's current owner was alive. The retry
// must route via an alive peer from the current topology instead.
func TestBulkRetryViaDeadCoordinator(t *testing.T) {
	c, keys := liveCluster(t, 20, 400, 239)
	// Pick a key and a coordinator that does NOT own it, then kill the
	// coordinator: exactly the state bulk() is in when a concurrent
	// membership change moved the key and the old batch peer has since
	// died.
	key := keys[0]
	owner := c.ownerOf(key)
	var dead core.PeerID
	for _, id := range c.PeerIDs() {
		if id != owner.id {
			dead = id
			break
		}
	}
	if err := c.Kill(dead); err != nil {
		t.Fatal(err)
	}
	res := c.bulkRetry(kindBulkGet, dead, store.Item{Key: key})
	if res.Err != nil {
		t.Fatalf("bulk retry via dead coordinator: %v (owner %d is alive)", res.Err, owner.id)
	}
	if !res.Found || string(res.Value) != fmt.Sprint(key) {
		t.Fatalf("bulk retry returned found=%v value=%q", res.Found, res.Value)
	}
	// And when the key's owner itself is dead, the retry reports an honest
	// ErrOwnerDown rather than hanging or succeeding.
	deadKey := keys[1]
	if c.ownerOf(deadKey).id == dead {
		t.Skip("second key owned by the killed coordinator; seed collision")
	}
	if err := c.Kill(c.ownerOf(deadKey).id); err != nil {
		t.Fatal(err)
	}
	res = c.bulkRetry(kindBulkGet, dead, store.Item{Key: deadKey})
	if !errors.Is(res.Err, ErrOwnerDown) {
		t.Fatalf("bulk retry for a dead owner: err = %v, want ErrOwnerDown", res.Err)
	}
}

// TestRangeScattersPastDeadAdjacent is the regression test for the scatter
// fan-out: a dead peer used to truncate the leading segment of the scatter
// at its own range even when everything past it was alive and reachable.
// With exactly one dead peer, a range query must return every item except
// the dead peer's own slice, whichever peer died.
func TestRangeScattersPastDeadAdjacent(t *testing.T) {
	for _, victimIdx := range []int{1, 2, 3, 7, 11} {
		c, keys := liveCluster(t, 16, 500, 241)
		ring := c.topo.Load().ring
		if victimIdx >= len(ring)-1 {
			continue
		}
		victim := ring[victimIdx].p
		if err := c.Kill(victim.id); err != nil {
			t.Fatal(err)
		}
		via := ring[0].id // owns the domain's lower bound, stays alive
		r := c.Domain()
		items, _, err := c.Query(via, parallelQuery(r))
		dead := 0
		for _, k := range keys {
			if victim.rng.Contains(k) {
				dead++
			}
		}
		if dead > 0 && !errors.Is(err, ErrOwnerDown) {
			t.Fatalf("victim #%d: err = %v, want ErrOwnerDown (victim owned %d keys)", victimIdx, err, dead)
		}
		got := make(map[keyspace.Key]bool, len(items))
		for _, it := range items {
			if victim.rng.Contains(it.Key) {
				t.Fatalf("victim #%d: item %d served from the dead peer's range", victimIdx, it.Key)
			}
			got[it.Key] = true
		}
		for _, k := range keys {
			if !victim.rng.Contains(k) && !got[k] {
				t.Fatalf("victim #%d: alive key %d missing — the scatter was truncated at the dead peer", victimIdx, k)
			}
		}
		// Repair and re-check: the full answer is back, error-free.
		if _, err := c.Recover(victim.id); err != nil {
			t.Fatalf("victim #%d: recover: %v", victimIdx, err)
		}
		items, _, err = c.Query(via, parallelQuery(r))
		if err != nil {
			t.Fatalf("victim #%d: range after recovery: %v", victimIdx, err)
		}
		if len(items) < len(got)+dead {
			t.Fatalf("victim #%d: range after recovery returned %d items, want at least %d", victimIdx, len(items), len(got)+dead)
		}
		c.Stop()
	}
}

// TestCrashStormNoReplicatedWriteLost is the -race stress test of the
// fault-tolerance layer: concurrent Get/Put/Range traffic runs while peers
// are killed and recovered, and the test asserts the replication
// guarantee — no acknowledged write that had been replicated (SyncReplicas
// is the barrier) is ever lost, across every crash — plus the structural
// and replication invariants on the quiesced, fully-recovered cluster.
func TestCrashStormNoReplicatedWriteLost(t *testing.T) {
	const (
		peers   = 20
		preload = 400
		writers = 4
		rounds  = 6
	)
	c, keys := liveCluster(t, peers, preload, 251)
	preloaded := make(map[keyspace.Key]bool, len(keys))
	var acked sync.Map // key -> value string, recorded only after the Put was acknowledged
	for _, k := range keys {
		preloaded[k] = true
		acked.Store(k, fmt.Sprint(k))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	liveVia := func(rng *rand.Rand) (core.PeerID, bool) {
		ids := c.PeerIDs()
		for tries := 0; tries < 16; tries++ {
			id := ids[rng.Intn(len(ids))]
			if c.Alive(id) {
				return id, true
			}
		}
		return 0, false
	}
	// Writers: unique fresh keys, recorded as acked only on success. Under
	// a crash a Put may fail with ErrOwnerDown — that is the transient
	// window the storm is about — and failed writes are simply not claimed.
	// The light pacing keeps the acknowledged set small enough that the
	// per-round verification stays proportional to the run, not quadratic.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; !stop.Load(); i++ {
				// Monotonic per-writer keys: every key is written at most
				// once, so "the acknowledged value" is unambiguous when a
				// crash-restored replica is checked against it.
				if int64(i)*37 >= 190_000_000 {
					return
				}
				k := keyspace.Key(1 + int64(w)*200_000_000 + int64(i)*37)
				if preloaded[k] {
					continue
				}
				via, ok := liveVia(rng)
				if !ok {
					continue
				}
				val := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Put(via, k, []byte(val)); err == nil {
					acked.Store(k, val)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(w)
	}
	// Readers: background pressure on the routed paths; errors during the
	// crash windows are the expected transient behaviour.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + r)))
			for !stop.Load() {
				via, ok := liveVia(rng)
				if !ok {
					continue
				}
				if rng.Intn(2) == 0 {
					c.Get(via, keys[rng.Intn(len(keys))])
				} else {
					lo := keyspace.Key(1 + rng.Int63n(900_000_000))
					c.Query(via, parallelQuery(keyspace.NewRange(lo, lo+5_000_000)))
				}
			}
		}(r)
	}

	// The storm: each round closes the replication window with the
	// SyncReplicas barrier, crashes a random member, repairs it, and then
	// verifies that every write acknowledged before the barrier survived
	// the crash — exhaustively for the keys the victim owned (the at-risk
	// set: exactly the data the crash wiped and recovery had to restore)
	// and by sampling for the rest of the key space.
	stormRng := rand.New(rand.NewSource(500))
	for round := 0; round < rounds; round++ {
		snaps, err := c.Snapshot()
		if err != nil {
			t.Fatalf("round %d: snapshot: %v", round, err)
		}
		victimSnap := snaps[stormRng.Intn(len(snaps))]
		victim := victimSnap.ID
		if err := c.SyncReplicas(); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		type kv struct {
			k keyspace.Key
			v string
		}
		var replicated []kv
		acked.Range(func(k, v any) bool {
			key := k.(keyspace.Key)
			if victimSnap.Range.Contains(key) || stormRng.Intn(20) == 0 {
				replicated = append(replicated, kv{key, v.(string)})
			}
			return true
		})

		if err := c.Kill(victim); err != nil {
			t.Fatalf("round %d: kill %d: %v", round, victim, err)
		}
		if _, err := c.Recover(victim); err != nil {
			t.Fatalf("round %d: recover %d: %v", round, victim, err)
		}
		via := aliveVia(t, c)
		for _, p := range replicated {
			v, found, _, err := c.Get(via, p.k)
			if err != nil || !found {
				t.Fatalf("round %d: replicated acknowledged write %d lost after crash of %d: found=%v err=%v",
					round, p.k, victim, found, err)
			}
			if string(v) != p.v {
				t.Fatalf("round %d: key %d has value %q after crash of %d, acknowledged %q", round, p.k, v, victim, p.v)
			}
		}
	}

	stop.Store(true)
	wg.Wait()
	// Quiesced, fully-recovered cluster: both invariant suites must hold.
	verifyCluster(t, c)
	verifyReplication(t, c)
	if got, want := c.Size(), peers-rounds; got < want {
		t.Fatalf("cluster size after storm = %d, want at least %d", got, want)
	}
}
