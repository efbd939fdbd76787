package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/store"
)

// TestDirectRouteQuiescedOneHop checks the point of the fast path: on a
// quiesced cluster every direct-routed singleton operation reaches its owner
// in exactly one hop and costs exactly one delivered message, with zero
// stale-route fallbacks.
func TestDirectRouteQuiescedOneHop(t *testing.T) {
	c, keys := liveCluster(t, 64, 400, 83)
	ids := c.PeerIDs()
	c.SetRouteMode(RouteDirect)
	if c.RouteMode() != RouteDirect {
		t.Fatal("route mode did not switch")
	}
	msgsBefore := c.Messages()
	for i, k := range keys {
		v, ok, hops, err := c.Get(ids[i%len(ids)], k)
		if err != nil || !ok {
			t.Fatalf("direct get %d: ok=%v err=%v", k, ok, err)
		}
		if string(v) != fmt.Sprint(k) {
			t.Fatalf("direct get %d: wrong value %q", k, v)
		}
		if hops != 1 {
			t.Fatalf("direct get %d took %d hops, want 1", k, hops)
		}
	}
	if got, want := c.Messages()-msgsBefore, int64(len(keys)); got != want {
		t.Fatalf("%d direct gets delivered %d messages, want exactly %d (msgs/op = 1)", len(keys), got, want)
	}
	// Writes ride the same fast path; each costs the request plus its
	// asynchronous replica update.
	for i := 0; i < 50; i++ {
		k := keyspace.Key(1 + int64(i)*17_000_001)
		if hops, err := c.Put(ids[i%len(ids)], k, []byte("d")); err != nil || hops != 1 {
			t.Fatalf("direct put %d: hops=%d err=%v", k, hops, err)
		}
		if _, hops, err := c.Delete(ids[i%len(ids)], k); err != nil || hops != 1 {
			t.Fatalf("direct delete %d: hops=%d err=%v", k, hops, err)
		}
	}
	if n := c.StaleRoutes(); n != 0 {
		t.Fatalf("quiesced direct traffic recorded %d stale routes, want 0", n)
	}
	if c.Epoch() == 0 {
		t.Fatal("topology epoch must start above zero")
	}
	// The two modes differ only in message count, never in call semantics:
	// an unknown via is rejected identically.
	if _, _, _, err := c.Get(99_999, keys[0]); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("direct get with unknown via: err = %v, want ErrUnknownPeer", err)
	}
}

// TestDirectGetAllocsPerOp pins down the zero-alloc request path: a
// direct-routed Get on a quiesced cluster must not allocate on either side
// of the message exchange — the reply channel comes from the pool, the
// request and response travel by value — so the whole-process allocation
// count per operation stays at (amortised) zero. The bound of 2 leaves room
// for scheduler and pool-refill noise while still failing loudly if a
// per-op allocation sneaks back onto the path.
func TestDirectGetAllocsPerOp(t *testing.T) {
	c, keys := liveCluster(t, 256, 20_000, 1)
	c.SetRouteMode(RouteDirect)
	via := c.PeerIDs()[0]
	// Warm the reply-channel pool and the route cache path.
	for i := 0; i < 100; i++ {
		c.Get(via, keys[i%len(keys)])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, ok, _, err := c.Get(via, keys[i%len(keys)]); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("direct get allocates %.1f objects per op, want (amortised) 0 — the pooled reply-channel path regressed", allocs)
	}
}

// TestOverlayGetAllocsPerOp pins the forwarding hop: an overlay-routed Get
// on a quiesced cluster walks ~log N hops, and none of them allocates — the
// candidate list lives on the forwarding peer's stack, the visited set
// inside the request, and each hop is handed on in walk's loop.
func TestOverlayGetAllocsPerOp(t *testing.T) {
	c, keys := liveCluster(t, 256, 20_000, 1)
	via := c.PeerIDs()[0]
	for i := 0; i < 100; i++ {
		c.Get(via, keys[i%len(keys)])
	}
	i, hops := 0, 0
	allocs := testing.AllocsPerRun(500, func() {
		_, ok, h, err := c.Get(via, keys[i%len(keys)])
		if err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
		i, hops = i+1, hops+h
	})
	if allocs > 0 {
		t.Fatalf("overlay get allocates %.1f objects per op (%.1f hops), want 0 — a forwarding hop allocates again", allocs, float64(hops)/float64(i))
	}
}

// TestOverlayHopsUnchangedByDirectMode asserts that the fast path leaves the
// paper-faithful overlay untouched: the hop count of every overlay-routed
// lookup is identical before direct mode is used, while it is the active
// mode for other traffic, and after switching back.
func TestOverlayHopsUnchangedByDirectMode(t *testing.T) {
	c, keys := liveCluster(t, 64, 300, 89)
	ids := c.PeerIDs()
	sample := keys
	if len(sample) > 200 {
		sample = sample[:200]
	}
	record := func() []int {
		out := make([]int, len(sample))
		for i, k := range sample {
			_, ok, hops, err := c.Get(ids[i%len(ids)], k)
			if err != nil || !ok {
				t.Fatalf("overlay get %d: ok=%v err=%v", k, ok, err)
			}
			out[i] = hops
		}
		return out
	}
	before := record()

	c.SetRouteMode(RouteDirect)
	for i, k := range sample {
		if _, _, hops, err := c.Get(ids[i%len(ids)], k); err != nil || hops != 1 {
			t.Fatalf("direct get %d: hops=%d err=%v", k, hops, err)
		}
	}
	c.SetRouteMode(RouteOverlay)

	after := record()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("overlay hop count for key %d changed: %d before direct mode, %d after",
				sample[i], before[i], after[i])
		}
	}
}

// TestStaleEpochDirectRequestReaims pins down the epoch validation: a
// direct request tagged with an epoch older than the live one, delivered to
// a peer that does not own its key, must be re-aimed once at the owner the
// current ring names — answered in exactly two hops, with the miss counted
// — instead of walking the overlay per-hop.
func TestStaleEpochDirectRequestReaims(t *testing.T) {
	c, keys := liveCluster(t, 48, 200, 103)
	// Bump the epoch past its starting value so a tag of 1 is provably old.
	if _, err := c.Join(c.PeerIDs()[0]); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() < 2 {
		t.Fatalf("epoch after a join = %d, want >= 2", c.Epoch())
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
	before := c.StaleRoutes()
	req := request{kind: kindGet, key: key, epoch: 1, reply: make(chan response, 1)}
	if !c.deliverTo(wrong, req, false) {
		t.Fatal("delivery to the wrong peer refused")
	}
	resp := <-req.reply
	if resp.err != nil || !resp.found {
		t.Fatalf("stale-tagged get: found=%v err=%v", resp.found, resp.err)
	}
	if resp.hops != 2 {
		t.Fatalf("stale-tagged get took %d hops, want exactly 2 (miss + re-aim)", resp.hops)
	}
	if got := c.StaleRoutes() - before; got != 1 {
		t.Fatalf("stale-route counter moved by %d, want 1", got)
	}
}

// TestStaleEpochDirectPutReaimsAcrossShuffle pins the LoadBalance ×
// RouteDirect interaction: a direct-routed write tagged with the epoch from
// before an adjacent-peer shuffle, delivered to the key's pre-shuffle owner,
// must land on the post-shuffle owner after exactly one re-aim (two hops
// total, miss counted) — the write is never lost and never walks the
// overlay per-hop.
func TestStaleEpochDirectPutReaimsAcrossShuffle(t *testing.T) {
	c, _ := liveCluster(t, 32, 0, 109)
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	victim := snaps[len(snaps)/2]
	if victim.Range.Size() < 400 {
		t.Fatalf("victim range too narrow: %v", victim.Range)
	}
	// Skew the victim so the shuffle has something to move.
	var keys []keyspace.Key
	for i := int64(0); i < 200; i++ {
		k := victim.Range.Lower + keyspace.Key(i*(victim.Range.Size()/200))
		keys = append(keys, k)
		if _, err := c.Put(victim.ID, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := c.Epoch()
	moved, err := c.LoadBalance(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("shuffle moved nothing; the scenario needs a boundary shift")
	}
	if c.Epoch() == epochBefore {
		t.Fatal("a boundary shift must publish a new topology epoch")
	}
	// A key that changed hands: owned by the victim under the old ring,
	// by the adjacent peer under the new one.
	var movedKey keyspace.Key
	found := false
	for _, k := range keys {
		if c.ownerOf(k).id != victim.ID {
			movedKey, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no key changed owner across the shuffle")
	}
	old := c.peerByID(victim.ID)
	newOwner := c.ownerOf(movedKey)

	// The in-flight write: tagged with the pre-shuffle epoch, addressed to
	// the pre-shuffle owner — exactly what a client racing the shuffle sends.
	before := c.StaleRoutes()
	req := request{kind: kindPut, key: movedKey, value: []byte("shuffled"), epoch: epochBefore, reply: make(chan response, 1)}
	if !c.deliverTo(old, req, false) {
		t.Fatal("delivery to the pre-shuffle owner refused")
	}
	resp := <-req.reply
	if resp.err != nil {
		t.Fatalf("stale-tagged put failed: %v", resp.err)
	}
	if resp.hops != 2 {
		t.Fatalf("stale-tagged put took %d hops, want exactly 2 (miss + one re-aim)", resp.hops)
	}
	if got := c.StaleRoutes() - before; got != 1 {
		t.Fatalf("stale-route counter moved by %d, want 1", got)
	}
	// The write landed on the post-shuffle owner and is readable everywhere.
	if v, ok := func() ([]byte, bool) {
		ch := make(chan response, 1)
		if !c.deliverTo(newOwner, request{kind: kindGet, key: movedKey, reply: ch}, false) {
			return nil, false
		}
		r := <-ch
		return r.value, r.found
	}(); !ok || string(v) != "shuffled" {
		t.Fatalf("write not on the post-shuffle owner: found=%v value=%q", ok, v)
	}
	for _, via := range c.PeerIDs()[:4] {
		v, ok, _, err := c.Get(via, movedKey)
		if err != nil || !ok || string(v) != "shuffled" {
			t.Fatalf("stale-tagged write lost via %d: found=%v value=%q err=%v", via, ok, v, err)
		}
	}
	verifyCluster(t, c)
}

// TestDirectRouteChurnNoLostWrite is the -race stress test of route-cache
// invalidation: direct-mode Get/Put traffic runs while the membership churns
// through every structural operation — online joins, graceful departures,
// crashes and repairs — and the test asserts that every acknowledged write
// recorded before each replication barrier survives and is readable through
// the direct path afterwards: requests either land on the true owner or
// fall back through the overlay, so no acknowledged write is lost or
// misrouted whatever the cache staleness.
func TestDirectRouteChurnNoLostWrite(t *testing.T) {
	const (
		peers   = 28
		preload = 300
		writers = 3
		rounds  = 5
	)
	c, keys := liveCluster(t, peers, preload, 101)
	c.SetRouteMode(RouteDirect)

	var acked sync.Map // key -> value, recorded only after the Put was acknowledged
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
			rng := rand.New(rand.NewSource(int64(700 + w)))
			// Monotonic per-writer keys in disjoint slices of the domain, so
			// every key is written at most once and "the acknowledged value"
			// is unambiguous.
			for i := 0; !stop.Load() && int64(i)*41 < 240_000_000; i++ {
				k := keyspace.Key(2 + int64(w)*250_000_000 + int64(i)*41)
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
	// Readers keep the direct read path hot across every churn event;
	// transient errors during crash windows are expected, wrong values are
	// not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(800))
		for !stop.Load() {
			via, ok := liveVia(rng)
			if !ok {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			if v, found, _, err := c.Get(via, k); err == nil && found && string(v) != fmt.Sprint(k) {
				t.Errorf("direct get %d returned wrong value %q", k, v)
				return
			}
		}
	}()

	churnRng := rand.New(rand.NewSource(900))
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
		if via, ok := randAlive(); ok {
			if _, err := c.Join(via); err != nil {
				t.Fatalf("round %d: join: %v", round, err)
			}
		}
		if id, ok := randAlive(); ok {
			if err := c.Depart(id); err != nil && !errors.Is(err, core.ErrLastPeer) {
				t.Fatalf("round %d: depart %d: %v", round, id, err)
			}
		}
		// Close the asynchronous replication window, then freeze the set of
		// writes the crash below must not lose.
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
		if _, err := c.Recover(victim); err != nil {
			t.Fatalf("round %d: recover %d: %v", round, victim, err)
		}
		// Sample the frozen set through the direct path: every key must be
		// readable with its acknowledged value, wherever churn moved it.
		checkRng := rand.New(rand.NewSource(int64(1000 + round)))
		checked := 0
		for k, want := range mustSurvive {
			if checked >= 150 {
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
				t.Fatalf("round %d: acknowledged write %d lost or wrong after churn: found=%v v=%q err=%v",
					round, k, found, v, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// Full sweep on the quiesced cluster, then the structural audit.
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
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySnapshot(c.Domain(), snaps); err != nil {
		t.Fatalf("structural invariants after direct-mode churn: %v", err)
	}
	t.Logf("stale direct routes under churn: %d (epoch %d)", c.StaleRoutes(), c.Epoch())
}

// addGhost registers a ghost peer: a valid delivery target whose drainer is
// held back (draining is set, so push starts none), whose queue is walked
// only if the test drains it.
func addGhost(c *Cluster, id core.PeerID) *peer {
	g := newPeer(id, 2)
	g.alive.Store(true)
	g.draining = true
	nt := c.topo.Load().clone()
	nt.peers[g.id] = g
	c.topo.Store(nt)
	return g
}

// TestDeliverFloodBoundedGoroutines is the regression test for the
// unbounded transient-goroutine spawn in deliver: every send that found a
// peer's inbox full used to launch its own goroutine, so a saturated peer's
// backlog became the process's goroutine count. The test floods a peer
// whose drainer is guaranteed not to run — one registered for delivery
// but never drained — and asserts the flood queues with no goroutine growth
// at all, comes out in send order, and leaves no more than queueKeep
// requests of buffer behind once walked.
func TestDeliverFloodBoundedGoroutines(t *testing.T) {
	c, _ := liveCluster(t, 4, 0, 97)
	// Marked busy, as if a request were running, so no send runs inline.
	ghost := addGhost(c, 9999)
	ghost.busy.Store(1)

	const flood = 10_000
	reply := make(chan response, 1)
	runtime.GC() // retire any straggler goroutines from cluster construction
	baseline := runtime.NumGoroutine()
	for i := 0; i < flood; i++ {
		if !c.send(ghost.id, request{kind: kindGet, key: keyspace.Key(i), reply: reply}) {
			t.Fatalf("send %d refused", i)
		}
	}
	if grew := runtime.NumGoroutine() - baseline; grew > 8 {
		t.Fatalf("flooding a saturated peer grew the goroutine count by %d: deliver is spawning per-send goroutines again", grew)
	}
	if got := int64(flood); c.Messages() < got {
		t.Fatalf("delivered-message counter %d below flood size %d", c.Messages(), got)
	}

	// Walk the queue as drain does. A second, small burst shows a walked
	// batch kept for reuse only while it is under the cap; the walk's last
	// nextBatch cleared draining, so the test holds the drainer back again.
	walk := func(want int) {
		n := 0
		for q := ghost.nextBatch(nil); q != nil; q = ghost.nextBatch(q) {
			for i := range q {
				if q[i].key != keyspace.Key(n) {
					t.Fatalf("request %d of the burst has key %d: the queue is not FIFO", n, q[i].key)
				}
				n++
			}
		}
		if n != want {
			t.Fatalf("walked %d queued requests, want %d", n, want)
		}
	}
	walk(flood)
	if kept := cap(ghost.queue); kept != 0 {
		t.Fatalf("the queue kept %d slots after the flood, want 0: a burst's buffer must go back to the GC", kept)
	}
	ghost.draining = true
	for i := 0; i < 3; i++ {
		c.send(ghost.id, request{kind: kindGet, key: keyspace.Key(i), reply: reply})
	}
	walk(3)
	kept := ghost.queue[:cap(ghost.queue)]
	if len(kept) == 0 || len(kept) > queueKeep || uintptr(len(kept))*unsafe.Sizeof(request{}) > 4096 {
		t.Fatalf("the queue kept %d slots after a 3-request burst, want 1..%d (<= 4 KB)", len(kept), queueKeep)
	}
	for i := range kept {
		if kept[i].reply != nil {
			t.Fatalf("kept slot %d still pins a reply channel", i)
		}
	}
}

// fifoDelta is replica delta seq of fifoSrc: it writes value seq under
// every key from fifoKeys[seq-1] on, so the replica reads fifoInOrder only
// if deltas 1..4 applied in order.
func fifoDelta(seq int) request {
	var ups []store.Item
	for _, k := range fifoKeys[seq-1:] {
		ups = append(ups, store.Item{Key: k, Value: []byte(fmt.Sprint(seq))})
	}
	return request{kind: kindReplicate, src: fifoSrc, seq: int64(seq), bulk: ups}
}

const (
	fifoSrc     = 4242
	fifoInOrder = "[10:1 20:2 30:3 40:4]"
)

var fifoKeys = []keyspace.Key{10, 20, 30, 40}

// fifoReplica fetches fifoSrc's replica from holder h as "key:value" pairs.
func fifoReplica(t *testing.T, c *Cluster, h *peer) string {
	t.Helper()
	ch := make(chan response, 1)
	if !c.send(h.id, request{kind: kindReplicaFetch, src: fifoSrc, reply: ch}) {
		t.Fatal("fetch refused")
	}
	resp := <-ch
	var got []string
	for _, it := range resp.items {
		got = append(got, fmt.Sprintf("%d:%s", it.Key, it.Value))
	}
	return fmt.Sprint(got)
}

// sendDeltasAcrossBatches sends fifoDelta 1..4 to ghost p, drained from
// here: the test holds p's token while deltas 1–3 queue, drain detaches
// them and waits for the token to run the first, and delta 4 lands while
// that batch is being walked — it must run after the batch, not ahead of
// it and not in a slot of the batch still being walked.
func sendDeltasAcrossBatches(t *testing.T, c *Cluster, p *peer) {
	t.Helper()
	p.busy.Add(1) // the test takes the token, so every send queues
	p.run.Lock()
	for seq := 1; seq <= 3; seq++ {
		if !c.send(p.id, fifoDelta(seq)) {
			t.Fatalf("delta %d refused", seq)
		}
	}
	c.wg.Add(1)
	go c.drain(p)
	withTimeout(t, 5*time.Second, "drain detaching the batch", func() {
		for queued(p) != 0 {
			runtime.Gosched()
		}
	})
	if !c.send(p.id, fifoDelta(4)) {
		t.Fatal("delta 4 refused")
	}
	p.run.Unlock()
	p.busy.Add(-1)
}

// TestDeliverFIFOAcrossBatches pins the per-peer delivery order the replica
// protocol relies on across drain's batches (sendDeltasAcrossBatches).
func TestDeliverFIFOAcrossBatches(t *testing.T) {
	c, _ := liveCluster(t, 4, 0, 107)
	h := addGhost(c, 9998)
	sendDeltasAcrossBatches(t, c, h)
	if got := fifoReplica(t, c, h); got != fifoInOrder {
		t.Fatalf("replica after four deltas = %v, want %v", got, fifoInOrder)
	}
	// Deltas 2 and 3 queued behind delta 1; delta 4 found the queue empty.
	if n := h.met.Snapshot(int64(h.id), kindName).Spilled["REPLICATE"]; n != 2 {
		t.Fatalf("%d deltas counted as queued behind others, want 2", n)
	}
}

// TestTombstoneForwardKeepsFIFO: a departed peer forwards what reaches it
// under its own token (handle's tombstone branch sends; it does not hand
// on), so replica deltas relayed through it reach its successor in the
// order they reached it. A hand-on would release the tombstone first: a
// sender could then run the next delta there and reach the successor
// first, and a delta walk refused at the successor would be queued again
// at the tombstone's tail, behind a later one.
func TestTombstoneForwardKeepsFIFO(t *testing.T) {
	c, _ := liveCluster(t, 4, 0, 109)
	h := addGhost(c, 9996)
	c.wg.Add(1)
	go c.drain(h) // finds nothing queued: h is an ordinary peer from here
	tomb := addGhost(c, 9995)
	tomb.departed, tomb.departTo = true, h.id
	sendDeltasAcrossBatches(t, c, tomb)
	quiesce(t, c)
	if got := fifoReplica(t, c, h); got != fifoInOrder {
		t.Fatalf("replica at the successor after four deltas = %v, want %v", got, fifoInOrder)
	}
	if n := h.met.Snapshot(int64(h.id), kindName).Delivered["REPLICATE"]; n != 4 {
		t.Fatalf("successor received %d deltas, want 4", n)
	}
}
