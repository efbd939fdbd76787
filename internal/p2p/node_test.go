package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
)

// wirePair builds a two-process overlay over loopback TCP: a coordinator
// (head) animated from a simulated network of headPeers peers at the given
// fanout, preloaded with items, and a daemon that joins through the wire
// and hosts daemonPeers additional peers. Both ends see one overlay of
// headPeers+daemonPeers members. It returns as soon as JoinRemote does:
// callers that route through the daemon first waitConverge. Cleanup stops
// the daemon first, then the head, under the package's goroutine-leak
// barrier.
func wirePair(t testing.TB, fanout, headPeers, daemonPeers, items int, seed int64) (head, daemon *Cluster, keys []keyspace.Key) {
	t.Helper()
	nw, keys := loadedNetwork(t, headPeers, items, seed, fanout)
	head, err := NewClusterListen(nw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(head.Stop)
	daemon, err = JoinRemote(head.Addr(), daemonPeers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(daemon.Stop)
	if got, want := head.Size(), headPeers+daemonPeers; got != want {
		t.Fatalf("head size = %d after join, want %d", got, want)
	}
	return head, daemon, keys
}

// waitConverge polls until the daemon has applied the head's newest
// topology broadcast (same epoch, same membership). Broadcasts are applied
// asynchronously by the daemon's control worker, so tests that mutate
// membership at the head must converge before routing through the daemon.
func waitConverge(t testing.TB, head, daemon *Cluster) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ht, dt := head.topo.Load(), daemon.topo.Load()
		if dt.epoch >= ht.epoch && len(dt.ids) == len(ht.ids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never converged: head epoch %d (%d peers), daemon epoch %d (%d peers)",
				ht.epoch, len(ht.ids), dt.epoch, len(dt.ids))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hostedBy returns the member peers a given side of the pair hosts
// locally (node == 0) or remotely (node != 0), as seen from c's topology.
func hostedBy(c *Cluster, remote bool) []core.PeerID {
	t := c.topo.Load()
	out := make([]core.PeerID, 0, len(t.ids))
	for _, id := range t.ids {
		if p := t.peers[id]; p != nil && (p.node != 0) == remote {
			out = append(out, id)
		}
	}
	return out
}

// auditCluster runs the full structural and replication audit at the
// coordinator: sync the write-path replication window closed, export
// snapshots and replica sets (over the wire from every process of a wire
// pair), and verify tree shape and replica completeness.
func auditCluster(t *testing.T, head *Cluster) {
	t.Helper()
	if err := head.SyncReplicas(); err != nil {
		t.Fatalf("sync replicas: %v", err)
	}
	snaps, err := head.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := core.VerifySnapshot(head.Domain(), snaps); err != nil {
		t.Fatalf("snapshot audit: %v", err)
	}
	replicas, err := head.Replicas()
	if err != nil {
		t.Fatalf("replicas: %v", err)
	}
	if err := core.VerifyReplication(snaps, replicas); err != nil {
		t.Fatalf("replication audit: %v", err)
	}
}

// TestWireJoinRemoteServesAtOnce queries right after JoinRemote returns, as
// TestScenarios' tcp rows do, without waiting for the daemon to converge: a
// full-domain serial walk must return every preloaded item. A daemon that
// hosted peers before it had any topology (hop cap 0) refused the handoff
// of the first peer it hosted whenever the head's topology push queued
// behind the join, losing that range's items and holding every later
// request for it forever.
func TestWireJoinRemoteServesAtOnce(t *testing.T) {
	for round := int64(0); round < 10; round++ {
		t.Run(fmt.Sprint(round), func(t *testing.T) {
			head, _, keys := wirePair(t, 2, 8, 8, 1500, round)
			want := len(uniqueSortedKeys(keys))
			withTimeout(t, 10*time.Second, "full-domain walk right after JoinRemote", func() {
				items, _, err := head.Query(head.PeerIDs()[0], serialQuery(head.Domain()))
				if err != nil || len(items) != want {
					t.Errorf("walk returned %d of %d items, err %v", len(items), want, err)
				}
			})
		})
	}
}

// TestWireClusterEndToEnd drives the full data-plane API through both
// processes of a loopback-TCP overlay: singleton gets through vias on
// either side (routes cross the wire whenever the chain crosses a process
// boundary), writes and deletes from the daemon, parallel and serial range
// queries, filtered queries, bulk operations, and the streaming iterator —
// then audits structure and replication at the head.
func TestWireClusterEndToEnd(t *testing.T) {
	head, daemon, keys := wirePair(t, 2, 12, 6, 300, 1)
	waitConverge(t, head, daemon)

	if len(hostedBy(head, true)) != 6 {
		t.Fatalf("head sees %d remote peers, want 6", len(hostedBy(head, true)))
	}
	if len(hostedBy(daemon, false)) != 6 {
		t.Fatalf("daemon hosts %d peers, want 6", len(hostedBy(daemon, false)))
	}

	// Every preloaded key is readable through vias on both sides.
	rng := rand.New(rand.NewSource(2))
	hids, dids := head.PeerIDs(), daemon.PeerIDs()
	for i, k := range keys {
		c, ids := head, hids
		if i%2 == 1 {
			c, ids = daemon, dids
		}
		via := ids[rng.Intn(len(ids))]
		v, found, hops, err := c.Get(via, k)
		if err != nil {
			t.Fatalf("get %d via %v: %v", k, via, err)
		}
		if !found || string(v) != fmt.Sprint(k) {
			t.Fatalf("get %d: found=%v value=%q", k, found, v)
		}
		if hops > 80 {
			t.Fatalf("get %d took %d hops", k, hops)
		}
	}

	// Write through the daemon, read back through the head, and vice versa.
	if _, err := daemon.Put(dids[0], 111_111, []byte("from-daemon")); err != nil {
		t.Fatalf("daemon put: %v", err)
	}
	v, found, _, err := head.Get(hids[0], 111_111)
	if err != nil || !found || string(v) != "from-daemon" {
		t.Fatalf("head read of daemon write: %q %v %v", v, found, err)
	}
	if _, err := head.Put(hids[1], 222_222, []byte("from-head")); err != nil {
		t.Fatalf("head put: %v", err)
	}
	v, found, _, err = daemon.Get(dids[1], 222_222)
	if err != nil || !found || string(v) != "from-head" {
		t.Fatalf("daemon read of head write: %q %v %v", v, found, err)
	}
	existed, _, err := daemon.Delete(dids[2], 222_222)
	if err != nil || !existed {
		t.Fatalf("daemon delete: %v %v", existed, err)
	}
	if _, found, _, _ = head.Get(hids[2], 222_222); found {
		t.Fatal("key still present at head after daemon delete")
	}
	if existed, _, err = head.Delete(hids[3], 111_111); err != nil || !existed {
		t.Fatalf("head delete: %v %v", existed, err)
	}

	// The expected sorted answer for full-domain ranges.
	want := uniqueSortedKeys(keys)

	full := head.Domain()
	checkRange := func(label string, items []store.Item, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(items) != len(want) {
			t.Fatalf("%s: %d items, want %d", label, len(items), len(want))
		}
		for i, it := range items {
			if it.Key != want[i] {
				t.Fatalf("%s: item %d = %d, want %d", label, i, it.Key, want[i])
			}
		}
	}
	items, _, err := head.Query(hids[0], parallelQuery(full))
	checkRange("head parallel range", items, err)
	items, _, err = daemon.Query(dids[0], parallelQuery(full))
	checkRange("daemon parallel range", items, err)
	items, _, err = daemon.Query(dids[1], serialQuery(full))
	checkRange("daemon serial range", items, err)
	items, _, err = head.Query(hids[1], serialQuery(full))
	checkRange("head serial range", items, err)

	// Filtered query with a limit, coordinated across the wire.
	limit := 25
	items, _, err = daemon.Query(dids[2], Query{Range: full, Pred: &query.Pred{Limit: limit}})
	if err != nil {
		t.Fatalf("daemon filtered range: %v", err)
	}
	if len(items) != limit {
		t.Fatalf("daemon filtered range: %d items, want %d", len(items), limit)
	}

	// Iterator from the daemon: the same answer, in key order, a ring slot
	// per page.
	it, err := daemon.QueryIter(dids[3], Query{Range: full})
	if err != nil {
		t.Fatalf("daemon range iter: %v", err)
	}
	var got []keyspace.Key
	for it.Next() {
		got = append(got, it.Item().Key)
	}
	it.Close()
	if it.Err() != nil {
		t.Fatalf("daemon range iter: %v", it.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("daemon range iter: %d items, want %d", len(got), len(want))
	}
	for i, k := range got {
		if k != want[i] {
			t.Fatalf("daemon range iter: item %d = %d, want %d", i, k, want[i])
		}
	}

	// Bulk operations from the daemon, pipelined across both processes.
	var bulkItems []store.Item
	for i := 0; i < 40; i++ {
		bulkItems = append(bulkItems, store.Item{Key: keyspace.Key(500_000 + i*1000), Value: []byte("b")})
	}
	results, err := daemon.BulkPut(bulkItems)
	if err != nil {
		t.Fatalf("daemon bulk put: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("bulk put %d: %v", r.Key, r.Err)
		}
	}
	bulkKeys := make([]keyspace.Key, len(bulkItems))
	for i, bi := range bulkItems {
		bulkKeys[i] = bi.Key
	}
	results, err = head.BulkGet(bulkKeys)
	if err != nil {
		t.Fatalf("head bulk get: %v", err)
	}
	for _, r := range results {
		if r.Err != nil || !r.Found || string(r.Value) != "b" {
			t.Fatalf("head bulk get %d: found=%v value=%q err=%v", r.Key, r.Found, r.Value, r.Err)
		}
	}
	results, err = daemon.BulkDelete(bulkKeys)
	if err != nil {
		t.Fatalf("daemon bulk delete: %v", err)
	}
	for _, r := range results {
		if r.Err != nil || !r.Found {
			t.Fatalf("bulk delete %d: found=%v err=%v", r.Key, r.Found, r.Err)
		}
	}

	// The coordinator's load meter reaches across the wire: daemon-hosted
	// peers served traffic above, so their counters must be visible here.
	loads, err := head.Loads()
	if err != nil {
		t.Fatalf("head loads: %v", err)
	}
	remote := make(map[core.PeerID]bool)
	for _, id := range hostedBy(head, true) {
		remote[id] = true
	}
	var remoteReqs int64
	for _, l := range loads {
		if remote[l.ID] {
			remoteReqs += l.Requests
		}
	}
	if remoteReqs == 0 {
		t.Fatal("head sees zero requests on daemon-hosted peers after wire traffic")
	}

	auditCluster(t, head)

	if head.Messages() == 0 || daemon.Messages() == 0 {
		t.Fatalf("message counters: head %d, daemon %d", head.Messages(), daemon.Messages())
	}
}

// TestWireClusterCoordinatorGate verifies that every structural API is
// refused on the daemon with ErrNotCoordinator: membership, balancing,
// recovery, and the audit exports are the head's alone. The overlay must
// keep serving data afterwards.
func TestWireClusterCoordinatorGate(t *testing.T) {
	head, daemon, keys := wirePair(t, 2, 8, 4, 50, 3)
	waitConverge(t, head, daemon)
	dids := daemon.PeerIDs()

	checks := []struct {
		name string
		err  error
	}{
		{"Join", func() error { _, err := daemon.Join(dids[0]); return err }()},
		{"Depart", daemon.Depart(dids[0])},
		{"Kill", daemon.Kill(dids[0])},
		{"Recover", func() error { _, err := daemon.Recover(dids[0]); return err }()},
		{"LoadBalance", func() error { _, err := daemon.LoadBalance(dids[0]); return err }()},
		{"BalanceOnce", func() error { _, _, err := daemon.BalanceOnce(AutoBalanceConfig{}); return err }()},
		{"ForceRejoin", func() error { _, err := daemon.ForceRejoin(dids[0], dids[1]); return err }()},
		{"SyncReplicas", daemon.SyncReplicas()},
		{"Snapshot", func() error { _, err := daemon.Snapshot(); return err }()},
		{"Replicas", func() error { _, err := daemon.Replicas(); return err }()},
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrNotCoordinator) {
			t.Errorf("daemon %s: err = %v, want ErrNotCoordinator", c.name, c.err)
		}
	}

	// The refusals left the data plane intact.
	v, found, _, err := daemon.Get(dids[1], keys[0])
	if err != nil || !found || string(v) != fmt.Sprint(keys[0]) {
		t.Fatalf("daemon get after refusals: %q %v %v", v, found, err)
	}
}

// TestWireClusterStructural exercises membership changes that cross the
// process boundary: a local join at the head (its handoff pulls items over
// the wire when the split peer lives at the daemon), the departure of a
// daemon-hosted peer (its items hand off back), and a crash-plus-recovery
// of a daemon-hosted peer (replica fetch and restore over the wire). Each
// step re-audits structure and replication across both processes.
func TestWireClusterStructural(t *testing.T) {
	head, daemon, keys := wirePair(t, 2, 10, 5, 200, 4)
	waitConverge(t, head, daemon)

	// Join at the head, via a daemon-hosted peer: the locate walk crosses
	// the wire, the spawn stays local.
	remoteIDs := hostedBy(head, true)
	if _, err := head.Join(remoteIDs[0]); err != nil {
		t.Fatalf("head join via remote peer: %v", err)
	}
	waitConverge(t, head, daemon)
	auditCluster(t, head)

	// Depart a daemon-hosted leaf: its range and items migrate, possibly to
	// a head-hosted neighbour — a cross-process handoff.
	departed := core.NoPeer
	for _, id := range hostedBy(head, true) {
		if err := head.Depart(id); err == nil {
			departed = id
			break
		}
	}
	if departed == core.NoPeer {
		t.Fatal("no daemon-hosted peer could depart")
	}
	waitConverge(t, head, daemon)
	auditCluster(t, head)

	// Crash a daemon-hosted peer and recover its range from the replica.
	victim := core.NoPeer
	for _, id := range hostedBy(head, true) {
		if head.Alive(id) {
			victim = id
			break
		}
	}
	if victim == core.NoPeer {
		t.Fatal("no alive daemon-hosted peer to crash")
	}
	if err := head.Kill(victim); err != nil {
		t.Fatalf("kill %v: %v", victim, err)
	}
	if head.Alive(victim) {
		t.Fatal("victim still alive at head after kill")
	}
	waitConverge(t, head, daemon)
	if daemon.Alive(victim) {
		t.Fatal("victim still alive at daemon after broadcast")
	}
	restored, err := head.Recover(victim)
	if err != nil {
		t.Fatalf("recover %v: %v", victim, err)
	}
	if restored < 0 {
		t.Fatalf("recover restored %d items", restored)
	}
	waitConverge(t, head, daemon)
	auditCluster(t, head)

	// All original keys are still served, through both sides (vias drawn
	// from the post-churn membership — departed and recovered-away peers
	// are no longer addressable).
	hids, dids := head.PeerIDs(), daemon.PeerIDs()
	rng := rand.New(rand.NewSource(5))
	for i, k := range keys {
		var err error
		var found bool
		if i%2 == 0 {
			_, found, _, err = head.Get(hids[rng.Intn(len(hids))], k)
		} else {
			_, found, _, err = daemon.Get(dids[rng.Intn(len(dids))], k)
		}
		if err != nil || !found {
			t.Fatalf("get %d after structural churn: found=%v err=%v", k, found, err)
		}
	}
}

// TestWireClusterSeedDown verifies the daemon's lifeline semantics: when
// the head goes away, SeedDown fires, in-flight work fails with
// ErrOwnerDown rather than hanging, and the daemon still stops cleanly
// (the leak barrier in TestMain holds it to that).
func TestWireClusterSeedDown(t *testing.T) {
	head, daemon, _ := wirePair(t, 2, 6, 3, 20, 6)
	waitConverge(t, head, daemon)

	if head.SeedDown() != nil {
		t.Fatal("head reports a seed lifeline")
	}
	ch := daemon.SeedDown()
	if ch == nil {
		t.Fatal("daemon has no seed lifeline")
	}
	select {
	case <-ch:
		t.Fatal("seed lifeline closed while head is up")
	default:
	}

	head.Stop()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("seed lifeline never closed after head stop")
	}

	// Requests that need head-hosted peers now fail instead of hanging.
	dids := daemon.PeerIDs()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, _, err := daemon.Get(dids[0], keyspace.DomainMin)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon gets still succeed everywhere after head stop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	daemon.Stop()
}

// TestWireClusterDaemonStop verifies the head's side of a daemon loss:
// requests for daemon-hosted ranges fail with an error rather than
// hanging, and head-hosted ranges keep serving.
func TestWireClusterDaemonStop(t *testing.T) {
	head, daemon, _ := wirePair(t, 2, 8, 4, 100, 7)
	waitConverge(t, head, daemon)
	hids := head.PeerIDs()

	// A key owned by a head-hosted peer keeps working after daemon loss.
	locals := hostedBy(head, false)
	t0 := head.topo.Load()
	localKey := t0.peers[locals[0]].rng.Lower

	daemon.Stop()

	// The transport notices the dropped connection asynchronously; poll
	// until a remote-range request fails.
	remotes := hostedBy(head, true)
	remoteKey := t0.peers[remotes[0]].rng.Lower
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, _, err := head.Get(hids[0], remoteKey)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gets for daemon-hosted range still succeed after daemon stop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, _, err := head.Get(locals[0], localKey); err != nil {
		t.Fatalf("get for head-hosted range after daemon stop: %v", err)
	}
}

// TestControlRPCSurvivesOtherNodesDrop: a dropped connection fails the
// control RPCs sent to that node and no others. (It used to fail them all:
// the zero-peer client disconnecting failed the coordinator's in-flight
// ctlSpawn to a healthy daemon, and the Join with it.)
func TestControlRPCSurvivesOtherNodesDrop(t *testing.T) {
	head, daemon, client, _ := wireTrio(t, 3, 2, 20, 6)
	// A daemon does not answer ctlHello, so this RPC stays in flight until
	// its connection drops.
	res := make(chan error, 1)
	go func() {
		_, err := head.net.rpc(daemon.net.self, ctlHello, nil)
		res <- err
	}()
	inFlight := func() int {
		head.net.corr.mu.Lock()
		defer head.net.corr.mu.Unlock()
		return len(head.net.corr.m)
	}
	for deadline := time.Now().Add(10 * time.Second); inFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("rpc never registered")
		}
	}
	clientNode := client.net.self
	client.Stop()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		gone := true
		for _, id := range head.net.tr().Peers() {
			gone = gone && id != clientNode
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never noticed the client's connection dropping")
		}
	}
	// The connection is unregistered before onPeerDown runs: sweep once more
	// on its behalf, so the check below cannot pass by being early.
	head.net.onPeerDown(clientNode)
	select {
	case err := <-res:
		t.Fatalf("rpc to the daemon failed when the client dropped: %v", err)
	default:
	}
	daemon.Stop()
	select {
	case err := <-res:
		if !errors.Is(err, ErrOwnerDown) {
			t.Fatalf("rpc to a dropped node returned %v, want ErrOwnerDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rpc to a dropped node still pending")
	}
}
