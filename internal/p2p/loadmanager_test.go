package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/workload"
)

// TestShuffleFracTable pins the boundary-index arithmetic of the adjacent
// shuffle: for every load pair the fraction handed to KeyAtFraction must
// select exactly the item index that keeps shift items moving — the bare
// target/cx fraction loses the boundary to float64 rounding (e.g. cx=3,
// shift=1 rounds down to index 0 and shuffles nothing).
func TestShuffleFracTable(t *testing.T) {
	keyAtFractionIndex := func(frac float64, size int) int {
		// Mirrors store.KeyAtFraction's index computation.
		target := int(frac * float64(size))
		if target >= size {
			target = size - 1
		}
		return target
	}
	for cx := 2; cx <= 128; cx++ {
		for shift := 1; shift < cx; shift++ {
			if got, want := keyAtFractionIndex(shuffleFrac(cx, shift, core.Left), cx), shift; got != want {
				t.Fatalf("left shuffle cx=%d shift=%d selects index %d, want %d", cx, shift, got, want)
			}
			if got, want := keyAtFractionIndex(shuffleFrac(cx, shift, core.Right), cx), cx-shift; got != want {
				t.Fatalf("right shuffle cx=%d shift=%d selects index %d, want %d", cx, shift, got, want)
			}
		}
	}
	// The regression the +0.5 centring fixes: the bare fraction round-trips
	// target/cx through float64 and lands below the intended index —
	// int(float64(15)/22*22) == 14, the first of >300k failing pairs below
	// cx=4096 — so the old code shuffled one item fewer than planned.
	cx, target := 22, 15
	bare := float64(target) / float64(cx)
	if got := keyAtFractionIndex(bare, cx); got != target-1 {
		t.Logf("platform rounds %d/%d*%d to index %d (expected the classic %d)", target, cx, cx, got, target-1)
	}
	if got := keyAtFractionIndex(shuffleFrac(cx, cx-target, core.Right), cx); got != target {
		t.Fatalf("cx=%d right shuffle selects index %d, want %d", cx, got, target)
	}
}

// TestValidShuffleBoundaryTable: the boundary must split the range into two
// non-empty sides.
func TestValidShuffleBoundaryTable(t *testing.T) {
	rng := keyspace.NewRange(100, 200)
	cases := []struct {
		boundary keyspace.Key
		want     bool
	}{
		{99, false}, {100, false}, {101, true}, {150, true}, {199, true}, {200, false}, {201, false},
	}
	for _, tc := range cases {
		if got := validShuffleBoundary(tc.boundary, rng); got != tc.want {
			t.Fatalf("validShuffleBoundary(%d, %v) = %v, want %v", tc.boundary, rng, got, tc.want)
		}
	}
}

// TestLoadBalanceEdgeClusteredItems: when every local item sits on one key
// at the range edge, no interior boundary separates the shares — the
// shuffle must decline (no items moved, no epoch published) instead of
// shifting the boundary onto the range edge and emptying one side.
func TestLoadBalanceEdgeClusteredItems(t *testing.T) {
	c, _ := liveCluster(t, 16, 0, 211)
	snaps := verifyCluster(t, c)
	victim := snaps[len(snaps)/2]
	for i := 0; i < 50; i++ {
		// 50 writes, one single key: the lowest of the victim's range.
		if _, err := c.Put(victim.ID, victim.Range.Lower, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := c.Epoch()
	moved, err := c.LoadBalance(victim.ID)
	if err != nil {
		t.Fatalf("load balance: %v", err)
	}
	if moved != 0 {
		t.Fatalf("edge-clustered items moved %d items, want 0", moved)
	}
	if c.Epoch() != epoch {
		t.Fatal("a declined shuffle must not publish a new topology epoch")
	}
	verifyCluster(t, c)
}

// TestLoadsAndImbalanceRatio: Loads reports per-peer item counts and a
// request-rate EWMA that warms up across calls, and ImbalanceRatio
// condenses the skew.
func TestLoadsAndImbalanceRatio(t *testing.T) {
	c, keys := liveCluster(t, 8, 400, 223)
	msgsBefore := c.Messages()
	loads, err := c.Loads()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Messages() - msgsBefore; got != 0 {
		t.Fatalf("Loads delivered %d messages, want 0 (metering must be message-free)", got)
	}
	if len(loads) != 8 {
		t.Fatalf("Loads returned %d peers, want 8", len(loads))
	}
	total := 0
	for _, l := range loads {
		n, err := c.peerCount(l.ID)
		if err != nil {
			t.Fatal(err)
		}
		if n != l.Items {
			t.Fatalf("peer %d: Loads says %d items, peerCount says %d", l.ID, l.Items, n)
		}
		total += l.Items
	}
	if total != len(keys) {
		t.Fatalf("Loads counted %d items, want %d", total, len(keys))
	}
	if r := ImbalanceRatio(loads); r < 1 {
		t.Fatalf("imbalance ratio %f < 1", r)
	}
	// Drive traffic, then sample twice so the EWMA has a time base.
	ids := c.PeerIDs()
	for i, k := range keys {
		if _, _, _, err := c.Get(ids[i%len(ids)], k); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond)
	loads, err = c.Loads()
	if err != nil {
		t.Fatal(err)
	}
	someRate := false
	var someReqs int64
	for _, l := range loads {
		someReqs += l.Requests
		if l.Rate > 0 {
			someRate = true
		}
	}
	if someReqs < int64(len(keys)) {
		t.Fatalf("request counters saw %d data messages, want >= %d", someReqs, len(keys))
	}
	if !someRate {
		t.Fatal("second Loads call should report a positive request-rate EWMA")
	}
	// Synthetic table check for the ratio itself.
	if r := ImbalanceRatio([]PeerLoad{{Items: 30}, {Items: 10}, {Items: 20}}); r != 1.5 {
		t.Fatalf("ImbalanceRatio = %f, want 1.5", r)
	}
	if r := ImbalanceRatio(nil); r != 1 {
		t.Fatalf("ImbalanceRatio(nil) = %f, want 1", r)
	}
	if r := ImbalanceRatio([]PeerLoad{{Items: 0}, {Items: 0}}); r != 1 {
		t.Fatalf("ImbalanceRatio(empty peers) = %f, want 1", r)
	}
}

// skewCluster loads a narrow slice of the domain with many items so a
// handful of peers carry nearly all the data, and returns the keys.
func skewCluster(t *testing.T, c *Cluster, items int, seed int64) []keyspace.Key {
	t.Helper()
	ids := c.PeerIDs()
	domain := c.Domain()
	lo := domain.Lower + keyspace.Key(domain.Size()/3)
	span := domain.Size() / 12 // ~1/12th of the domain takes every item
	rng := rand.New(rand.NewSource(seed))
	keys := make([]keyspace.Key, 0, items)
	bulk := make([]keyspace.Key, 0, items)
	for len(keys) < items {
		k := lo + keyspace.Key(rng.Int63n(span))
		keys = append(keys, k)
		bulk = append(bulk, k)
	}
	for i, k := range bulk {
		if _, err := c.Put(ids[i%len(ids)], k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestForceRejoinLive: the manual forced rejoin moves a light leaf next to
// a loaded peer, halving its load, with every key still readable, and both
// the structural and the replication invariants intact afterwards.
func TestForceRejoinLive(t *testing.T) {
	c, _ := liveCluster(t, 24, 0, 227)
	keys := skewCluster(t, c, 600, 228)

	loads, err := c.Loads()
	if err != nil {
		t.Fatal(err)
	}
	hot := loads[0]
	for _, l := range loads {
		if l.Items > hot.Items {
			hot = l
		}
	}
	hs := c.states[hot.ID]
	// The lightest viable recruit, per the balancer's own rule.
	counts := map[core.PeerID]int{}
	for _, l := range loads {
		counts[l.ID] = l.Items
	}
	light := c.lightestRecruit(hot.ID, counts)
	if light == core.NoPeer {
		t.Fatal("no viable recruit in a healthy 24-peer cluster")
	}
	if light == hs.LeftAdjacent || light == hs.RightAdjacent {
		t.Fatalf("lightestRecruit picked an unviable peer %d", light)
	}

	events := c.BalanceEvents()
	moved, err := c.ForceRejoin(light, hot.ID)
	if err != nil {
		t.Fatalf("force rejoin: %v", err)
	}
	if moved == 0 {
		t.Fatal("force rejoin moved no items off a loaded peer")
	}
	afterHot, err := c.peerCount(hot.ID)
	if err != nil {
		t.Fatal(err)
	}
	afterLight, err := c.peerCount(light)
	if err != nil {
		t.Fatal(err)
	}
	if afterHot > 3*hot.Items/4 || afterLight < hot.Items/4 {
		t.Fatalf("rejoin should split the hot load roughly in half: hot %d -> %d, light -> %d",
			hot.Items, afterHot, afterLight)
	}
	if c.BalanceEvents() != events {
		t.Fatal("manual ForceRejoin must not inflate the balancer's event counter")
	}

	snaps := verifyCluster(t, c)
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	replicas, err := c.Replicas()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyReplication(snaps, replicas); err != nil {
		t.Fatalf("replication invariants after forced rejoin: %v", err)
	}
	for _, k := range keys {
		if _, found, _, err := c.Get(c.PeerIDs()[0], k); err != nil || !found {
			t.Fatalf("key %d unreadable after forced rejoin: found=%v err=%v", k, found, err)
		}
	}

	// Invalid recruits are rejected without structural damage.
	if _, err := c.ForceRejoin(hot.ID, hot.ID); err == nil {
		t.Fatal("rejoining a peer under itself must fail")
	}
	if _, err := c.ForceRejoin(core.PeerID(99_999), hot.ID); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("unknown recruit: err = %v, want ErrUnknownPeer", err)
	}
	verifyCluster(t, c)
}

// TestBalanceOnceCutsImbalance drives the balancing policy to convergence
// on a heavily skewed cluster: repeated BalanceOnce passes must cut the
// max/average stored-load ratio below ~theta while every key stays
// readable and the audits pass. This is the deterministic core of what
// StartAutoBalance does on a timer.
func TestBalanceOnceCutsImbalance(t *testing.T) {
	c, _ := liveCluster(t, 24, 0, 229)
	keys := skewCluster(t, c, 1500, 230)

	before, err := c.ImbalanceRatio()
	if err != nil {
		t.Fatal(err)
	}
	if before < 4 {
		t.Fatalf("skew setup too tame: initial imbalance ratio %.2f", before)
	}
	cfg := AutoBalanceConfig{Theta: 2}
	actions := 0
	for i := 0; i < 200; i++ {
		act, _, err := c.BalanceOnce(cfg)
		if err != nil {
			t.Fatalf("balance pass %d: %v", i, err)
		}
		if act == BalanceNone {
			break
		}
		actions++
	}
	if actions == 0 {
		t.Fatal("the balancer took no action on a heavily skewed cluster")
	}
	if got := c.BalanceEvents(); got != int64(actions) {
		t.Fatalf("BalanceEvents = %d, want %d", got, actions)
	}
	after, err := c.ImbalanceRatio()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("imbalance %.2f -> %.2f in %d actions", before, after, actions)
	if after >= before/2 {
		t.Fatalf("balancing did not halve the imbalance: %.2f -> %.2f", before, after)
	}
	if after > 3 {
		t.Fatalf("converged imbalance ratio %.2f, want <= ~theta (3)", after)
	}

	snaps := verifyCluster(t, c)
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	replicas, err := c.Replicas()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyReplication(snaps, replicas); err != nil {
		t.Fatalf("replication invariants after balancing: %v", err)
	}
	for _, k := range keys {
		if _, found, _, err := c.Get(c.PeerIDs()[0], k); err != nil || !found {
			t.Fatalf("key %d unreadable after balancing: found=%v err=%v", k, found, err)
		}
	}
}

// TestStartAutoBalanceBackground: the ticker-driven balancer works without
// manual passes — started once (idempotently), it brings a skewed cluster's
// ratio down in the background and stops with the cluster.
func TestStartAutoBalanceBackground(t *testing.T) {
	c, _ := liveCluster(t, 16, 0, 233)
	skewCluster(t, c, 800, 234)
	before, err := c.ImbalanceRatio()
	if err != nil {
		t.Fatal(err)
	}
	c.StartAutoBalance(AutoBalanceConfig{Theta: 2, Interval: time.Millisecond})
	c.StartAutoBalance(AutoBalanceConfig{Theta: 9, Interval: time.Hour}) // no-op: already started
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := c.ImbalanceRatio()
		if err != nil {
			t.Fatal(err)
		}
		if r < before/2 && c.BalanceEvents() > 0 {
			verifyCluster(t, c)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, _ := c.ImbalanceRatio()
	t.Fatalf("background balancer left imbalance at %.2f (was %.2f) after 10s", r, before)
}

// TestForceRejoinNextToDeadPeerKeepsReplica is the deterministic regression
// for replica stranding: when a balancing action runs while a peer is dead
// and moves the dead peer's adjacent links (here: recruiting its right
// adjacent — its replica holder — for a forced rejoin elsewhere), the
// surviving copy of the dead peer's items must move to the new holder, or a
// later Recover restores nothing and every write in the dead range is
// silently lost.
func TestForceRejoinNextToDeadPeerKeepsReplica(t *testing.T) {
	c, _ := liveCluster(t, 24, 0, 241)
	snaps := verifyCluster(t, c)
	byID := map[core.PeerID]core.PeerSnapshot{}
	for _, ps := range snaps {
		byID[ps.ID] = ps
	}
	// The recruit: a non-root leaf with adjacents on both sides, whose left
	// adjacent (the peer we will crash) uses it as replica holder.
	var recruit, victim core.PeerID
	for _, ps := range snaps {
		if ps.LeftChild != core.NoPeer || ps.RightChild != core.NoPeer || ps.Position.IsRoot() {
			continue
		}
		if ps.LeftAdjacent == core.NoPeer || ps.RightAdjacent == core.NoPeer {
			continue
		}
		if core.ReplicaHolderOf(byID[ps.LeftAdjacent]) != ps.ID {
			continue
		}
		recruit, victim = ps.ID, ps.LeftAdjacent
		break
	}
	if recruit == core.NoPeer {
		t.Fatal("no suitable recruit/victim pair")
	}
	heir := byID[recruit].RightAdjacent
	var hot core.PeerID
	for _, ps := range snaps {
		if ps.ID == recruit || ps.ID == victim || ps.ID == heir ||
			ps.ID == byID[recruit].LeftAdjacent || ps.Range.Size() < 400 {
			continue
		}
		hot = ps.ID
		break
	}
	if hot == core.NoPeer {
		t.Fatal("no suitable hot peer")
	}

	// Writes the crash must not lose, plus load on the hot peer so the
	// rejoin has a median to split at.
	var victimKeys []keyspace.Key
	vr := byID[victim].Range
	for i := int64(0); i < 50; i++ {
		k := vr.Lower + keyspace.Key(i*(vr.Size()/50))
		if !vr.Contains(k) {
			continue
		}
		victimKeys = append(victimKeys, k)
		if _, err := c.Put(victim, k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	hr := byID[hot].Range
	for i := int64(0); i < 100; i++ {
		if k := hr.Lower + keyspace.Key(i*(hr.Size()/100)); hr.Contains(k) {
			if _, err := c.Put(hot, k, []byte("h")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// The balancing action next to the crash: the dead peer's replica holder
	// vacates its position and re-joins under the hot peer.
	if _, err := c.ForceRejoin(recruit, hot); err != nil {
		t.Fatalf("force rejoin with a dead neighbour: %v", err)
	}
	restored, err := c.Recover(victim)
	if err != nil {
		t.Fatalf("recover after the rejoin moved the holder: %v", err)
	}
	if restored < len(victimKeys) {
		t.Fatalf("recover restored %d items, want >= %d: the dead peer's replica was stranded at the old holder", restored, len(victimKeys))
	}
	for _, k := range victimKeys {
		v, found, _, err := c.Get(c.PeerIDs()[0], k)
		if err != nil || !found || string(v) != fmt.Sprint(k) {
			t.Fatalf("acknowledged write %d lost across kill + rejoin + recover: found=%v v=%q err=%v", k, found, v, err)
		}
	}
	verifyCluster(t, c)
}

// TestDepartOfDeadPeersHolderKeepsReplica: when the replica holder of a
// dead peer departs gracefully, the dead peer's surviving copy must follow
// the holder change — the fetch is answered by the departing holder's
// tombstone (which retains its replica sets; the range absorber never held
// them), and the stale-copy drop must not be forwarded through the
// tombstone onto the new holder, which would discard the set just moved.
func TestDepartOfDeadPeersHolderKeepsReplica(t *testing.T) {
	c, _ := liveCluster(t, 24, 0, 251)
	snaps := verifyCluster(t, c)
	byID := map[core.PeerID]core.PeerSnapshot{}
	for _, ps := range snaps {
		byID[ps.ID] = ps
	}
	// A victim whose holder can depart: any peer with a right adjacent.
	var victim, holder core.PeerID
	for _, ps := range snaps {
		if h := core.ReplicaHolderOf(ps); h != core.NoPeer && h == ps.RightAdjacent {
			victim, holder = ps.ID, h
			break
		}
	}
	if victim == core.NoPeer {
		t.Fatal("no victim/holder pair")
	}
	var keys []keyspace.Key
	vr := byID[victim].Range
	for i := int64(0); i < 40; i++ {
		k := vr.Lower + keyspace.Key(i*(vr.Size()/40))
		if !vr.Contains(k) {
			continue
		}
		keys = append(keys, k)
		if _, err := c.Put(victim, k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SyncReplicas(); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Depart(holder); err != nil {
		t.Fatalf("departing the dead peer's holder: %v", err)
	}
	restored, err := c.Recover(victim)
	if err != nil {
		t.Fatalf("recover after the holder departed: %v", err)
	}
	if restored < len(keys) {
		t.Fatalf("recover restored %d items, want >= %d: the surviving replica did not follow the holder change", restored, len(keys))
	}
	for _, k := range keys {
		v, found, _, err := c.Get(c.PeerIDs()[0], k)
		if err != nil || !found || string(v) != fmt.Sprint(k) {
			t.Fatalf("acknowledged write %d lost across kill + holder depart + recover: found=%v v=%q err=%v", k, found, v, err)
		}
	}
	verifyCluster(t, c)
}

// TestAutoBalanceChurnStress is the -race stress test of the balancer as a
// full structural citizen: the background balancer runs against a Zipf
// write stream (so it has real skew to chase) while direct-routed puts,
// range fan-outs and kill/recover churn execute concurrently. No
// acknowledged write frozen at a replication barrier may be lost, and the
// quiesced cluster must pass both the structural and the replication
// audits.
func TestAutoBalanceChurnStress(t *testing.T) {
	const (
		peers   = 20
		preload = 200
		writers = 3
		rounds  = 4
	)
	c, keys := liveCluster(t, peers, preload, 239)
	c.SetRouteMode(RouteDirect)
	c.StartAutoBalance(AutoBalanceConfig{Theta: 2, Interval: 2 * time.Millisecond, MinItems: 8})

	var acked sync.Map
	for _, k := range keys {
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
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			gen := workload.NewGenerator(workload.Config{Distribution: workload.Zipf, ZipfTheta: 1.0, Seed: int64(40 + w)})
			for i := 0; !stop.Load(); i++ {
				via, ok := liveVia(rng)
				if !ok {
					continue
				}
				// Zipf-drawn keys keep the spatial skew the balancer chases;
				// each key is written at most once (hot ranks repeat, and a
				// rewrite would invalidate the frozen must-survive value).
				k := gen.NextKey()/4*4 + keyspace.Key(w)
				if _, taken := acked.Load(k); taken {
					continue
				}
				val := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Put(via, k, []byte(val)); err == nil {
					acked.Store(k, val)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(w)
	}
	// A range fan-out reader sweeps wide slices across the hot region.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(500))
		domain := c.Domain()
		for !stop.Load() {
			via, ok := liveVia(rng)
			if !ok {
				continue
			}
			lo := domain.Lower + keyspace.Key(rng.Int63n(domain.Size()-domain.Size()/16))
			c.Query(via, parallelQuery(keyspace.NewRange(lo, lo+keyspace.Key(domain.Size()/16)))) //nolint:errcheck // transient churn errors expected
		}
	}()

	churnRng := rand.New(rand.NewSource(600))
	randAlive := func() (core.PeerID, bool) {
		ids := c.PeerIDs()
		for tries := 0; tries < 20; tries++ {
			id := ids[churnRng.Intn(len(ids))]
			if c.Alive(id) {
				return id, true
			}
		}
		return 0, false
	}
	for round := 0; round < rounds; round++ {
		// Close the async replication window, freeze the must-survive set,
		// then crash and repair a peer under the balancer's feet.
		if err := c.SyncReplicas(); err != nil {
			t.Fatalf("round %d: sync replicas: %v", round, err)
		}
		mustSurvive := map[keyspace.Key]string{}
		acked.Range(func(k, v any) bool {
			mustSurvive[k.(keyspace.Key)] = v.(string)
			return true
		})
		victim, ok := randAlive()
		if !ok {
			t.Fatalf("round %d: no alive victim", round)
		}
		if err := c.Kill(victim); err != nil {
			t.Fatalf("round %d: kill %d: %v", round, victim, err)
		}
		time.Sleep(5 * time.Millisecond) // let balancer ticks race the dead peer
		if _, err := c.Recover(victim); err != nil {
			t.Fatalf("round %d: recover %d: %v", round, victim, err)
		}
		checkRng := rand.New(rand.NewSource(int64(700 + round)))
		checked := 0
		for k, want := range mustSurvive {
			if checked >= 100 {
				break
			}
			if checkRng.Intn(4) != 0 {
				continue
			}
			checked++
			via, ok := randAlive()
			if !ok {
				t.Fatalf("round %d: no alive via", round)
			}
			v, found, _, err := c.Get(via, k)
			if err != nil || !found || string(v) != want {
				t.Fatalf("round %d: acknowledged write %d lost or wrong under balancing churn: found=%v v=%q err=%v",
					round, k, found, v, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiesce and audit: full acknowledged sweep, structure, replication.
	ids := c.PeerIDs()
	i := 0
	var failed error
	acked.Range(func(k, v any) bool {
		got, found, _, err := c.Get(ids[i%len(ids)], k.(keyspace.Key))
		i++
		if err != nil || !found || string(got) != v.(string) {
			failed = fmt.Errorf("acknowledged write %d: found=%v v=%q err=%v", k, found, got, err)
			return false
		}
		return true
	})
	if failed != nil {
		t.Fatal(failed)
	}
	// The balancer keeps running after the traffic stops, and an action
	// landing between the snapshot and the replica dump would audit two
	// different states: take both from one cut, retrying while the
	// structure moves under the audit.
	for try := 0; ; try++ {
		snaps := verifyCluster(t, c)
		if err := c.SyncReplicas(); err != nil {
			t.Fatal(err)
		}
		replicas, err := c.Replicas()
		if err != nil {
			t.Fatal(err)
		}
		if after := verifyCluster(t, c); !reflect.DeepEqual(snaps, after) {
			if try == 50 {
				t.Fatal("the balancer never settled for an audit")
			}
			continue
		}
		if err := core.VerifyReplication(snaps, replicas); err != nil {
			t.Fatalf("replication invariants after balancing churn: %v", err)
		}
		break
	}
	t.Logf("balance events under churn: %d (stale routes %d)", c.BalanceEvents(), c.StaleRoutes())
}
