package p2p

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"baton/internal/core"
	"baton/internal/obs"
)

// tracePeers flattens a hop chain to the visited peer IDs, in travel order.
func tracePeers(hops []obs.Hop) []core.PeerID {
	out := make([]core.PeerID, len(hops))
	for i, h := range hops {
		out[i] = core.PeerID(h.Peer)
	}
	return out
}

// TestTraceOverlayMatchesExpectedRoute is the flight recorder's ground-truth
// test: on a quiesced 64-peer binary cluster with 1-in-1 sampling, the hop
// chain a traced overlay Get records must match — hop for hop, peer for
// peer — the route the structural mirror predicts for the same (via, key)
// pair (core.RoutePath applies the search_exact forwarding rules without
// charging messages). Both executors call core.ForwardCandidates, so a
// divergence means they drifted apart around it (visited-peer avoidance,
// fail-over, ownership), or the recorder attributes hops to the wrong peer.
// TestTraceOverlayMatchesExpectedRouteFanout runs the same check at fanout
// 4 and 8.
func TestTraceOverlayMatchesExpectedRoute(t *testing.T) {
	checkTracedRoutes(t, 2)
}

// checkTracedRoutes traces 400 overlay Gets on a quiesced 64-peer cluster
// of the given fanout and fails unless each traced route equals the one the
// structural mirror predicts.
func checkTracedRoutes(t *testing.T, m int) {
	t.Helper()
	c, keys := liveClusterFanout(t, 64, 300, 431, m)
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	expectNW, err := core.FromSnapshot(c.Domain(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	if got := expectNW.Fanout(); got != m {
		t.Fatalf("snapshot round-trip inferred fanout %d, want %d", got, m)
	}
	c.SetTraceSampling(1)
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(433))
	for i := 0; i < 400; i++ {
		via := ids[rng.Intn(len(ids))]
		key := keys[rng.Intn(len(keys))]
		if _, found, _, err := c.Get(via, key); err != nil || !found {
			t.Fatalf("get %d via %d: found=%v err=%v", key, via, found, err)
		}
		traces := c.Traces()
		if len(traces) == 0 {
			t.Fatal("1-in-1 sampling recorded no trace")
		}
		got := tracePeers(traces[len(traces)-1])
		want, err := expectNW.RoutePath(via, key)
		if err != nil {
			t.Fatalf("predicting route for %d from %d: %v", key, via, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("get %d via %d: traced route %v, structural expectation %v", key, via, got, want)
		}
		for _, h := range traces[len(traces)-1] {
			if h.Kind != "GET" {
				t.Fatalf("traced hop kind %q, want GET", h.Kind)
			}
			if h.QueueWaitNs < 0 {
				t.Fatalf("negative queue wait %d", h.QueueWaitNs)
			}
		}
	}
}

// TestTraceDirectGetOneHop pins the fast path's shape in the recorder: a
// traced direct-routed Get on a quiesced cluster is exactly one hop, at the
// key's owner.
func TestTraceDirectGetOneHop(t *testing.T) {
	c, keys := liveCluster(t, 32, 100, 439)
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
}

// TestTraceStaleEpochTwoHops pins the re-aim path in the recorder: a direct
// request tagged with a stale epoch, delivered to a peer that does not own
// its key, is traced as exactly two hops — the mistaken peer, then the true
// owner — and the stale-route miss is attributed to the peer that detected
// it, visible in its per-peer metrics.
func TestTraceStaleEpochTwoHops(t *testing.T) {
	c, keys := liveCluster(t, 48, 200, 443)
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
	var wrongSnap *obs.PeerSnapshot
	m := c.Metrics()
	for i := range m.Peers {
		if m.Peers[i].Peer == int64(wrong.id) {
			wrongSnap = &m.Peers[i]
		}
	}
	if wrongSnap == nil {
		t.Fatalf("peer %d missing from metrics", wrong.id)
	}
	if wrongSnap.StaleRoutes != 1 {
		t.Fatalf("stale miss attributed %d times to peer %d, want 1", wrongSnap.StaleRoutes, wrong.id)
	}
	if m.StaleRoutes != c.StaleRoutes() {
		t.Fatalf("metrics stale total %d != StaleRoutes() %d", m.StaleRoutes, c.StaleRoutes())
	}
}

// TestJournalRecordsStructuralOps drives one operation of each kind through
// a loaded cluster and checks the journal: every op appears in order with
// outcome ok; the ops that move data carry phase timings and a migrated
// count.
func TestJournalRecordsStructuralOps(t *testing.T) {
	c, _ := liveCluster(t, 16, 800, 449)
	id, err := c.Join(c.PeerIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	victim := c.PeerIDs()[3]
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Depart(id); err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	var ops []string
	byOp := make(map[string]obs.Event)
	for _, ev := range events {
		ops = append(ops, ev.Op)
		byOp[ev.Op] = ev
	}
	for _, want := range []string{"join", "kill", "recover", "depart"} {
		ev, ok := byOp[want]
		if !ok {
			t.Fatalf("journal has no %q event (got %v)", want, ops)
		}
		if ev.Outcome != "ok" {
			t.Fatalf("%q event outcome %q (err %q), want ok", want, ev.Outcome, ev.Err)
		}
		if ev.DurationNs <= 0 {
			t.Fatalf("%q event has duration %d", want, ev.DurationNs)
		}
	}
	if p := byOp["join"].Peer; p != int64(id) {
		t.Fatalf("join event names peer %d, want %d", p, id)
	}
	if byOp["recover"].Migrated <= 0 {
		t.Fatalf("recover event migrated %d items, want > 0 on a loaded cluster", byOp["recover"].Migrated)
	}
	for _, op := range []string{"join", "recover", "depart"} {
		if len(byOp[op].Phases) == 0 {
			t.Fatalf("%q event recorded no phase timings", op)
		}
	}
	// Seq must be strictly increasing in the order returned.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("journal order broken: seq %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
}

// TestMetricsCountersTrackTraffic checks the registry against known traffic:
// delivered GET counts at least the issued gets, the queue-wait and
// handle-time histograms sampled the same hops and no more than one
// delivery in hopClockEvery (TestHopClockSampling pins the exact count),
// and the totals survive a depart + tombstone reap (the retired aggregate
// keeps them monotonic).
func TestMetricsCountersTrackTraffic(t *testing.T) {
	c, keys := liveCluster(t, 24, 200, 457)
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(461))
	const gets = 100
	for i := 0; i < gets; i++ {
		k := keys[rng.Intn(len(keys))]
		if _, found, _, err := c.Get(ids[rng.Intn(len(ids))], k); err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", k, found, err)
		}
	}
	m := c.Metrics()
	if m.Delivered["GET"] < gets {
		t.Fatalf("delivered GET = %d, want >= %d", m.Delivered["GET"], gets)
	}
	delivered := sumCounts(m.Delivered)
	if m.QueueWait.Count != m.HandleTime.Count || m.HandleTime.Count > delivered/hopClockEvery {
		t.Fatalf("histograms saw %d waits / %d handles, want equal and <= %d (1 in %d of %d deliveries)",
			m.QueueWait.Count, m.HandleTime.Count, delivered/hopClockEvery, hopClockEvery, delivered)
	}
	var perPeer int64
	for _, s := range m.Peers {
		perPeer += s.Delivered["GET"]
	}
	if perPeer != m.Delivered["GET"] {
		t.Fatalf("per-peer GET sum %d != cluster total %d", perPeer, m.Delivered["GET"])
	}
	before := m.Delivered["GET"]

	// Retire a peer and run enough structural ops to reap its tombstone;
	// the cluster totals must not go backwards.
	if err := c.Depart(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, err := c.Join(c.PeerIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Depart(id); err != nil {
			t.Fatal(err)
		}
	}
	if after := c.Metrics().Delivered["GET"]; after < before {
		t.Fatalf("delivered GET total went backwards across reap: %d -> %d", before, after)
	}
}

// TestMessagesCountEachDeliveryOnce pins the delivery totals under churn:
// Messages, StaleRoutes and Metrics each read the live peers and the
// retired block of one topology snapshot, so while Join/Depart churn reaps
// tombstones under direct-routed traffic a concurrent sampler never sees
// Messages or StaleRoutes go down, and at quiescence Messages equals the
// Metrics delivered total and StaleRoutes the Metrics stale-route total.
func TestMessagesCountEachDeliveryOnce(t *testing.T) {
	c, keys := liveCluster(t, 24, 300, 463)
	c.SetRouteMode(RouteDirect)
	ids := c.PeerIDs()
	stop := make(chan struct{})
	var traffic, sampler sync.WaitGroup
	for w := 0; w < 4; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rng := rand.New(rand.NewSource(int64(467 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Get(ids[rng.Intn(len(ids))], keys[rng.Intn(len(keys))])
			}
		}(w)
	}
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var msgs, stale int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, s := c.Messages(), c.StaleRoutes()
			if m < msgs || s < stale {
				t.Errorf("totals went backwards: Messages %d -> %d, StaleRoutes %d -> %d", msgs, m, stale, s)
				return
			}
			msgs, stale = m, s
		}
	}()
	for i := 0; i < 24; i++ {
		id, err := c.Join(ids[i%len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let traffic reach the new peer
		if err := c.Depart(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	withTimeout(t, 30*time.Second, "traffic and sampler", func() { traffic.Wait(); sampler.Wait() })
	if c.topo.Load().retired.DeliveredTotal() == 0 {
		t.Fatal("no delivery was retired: the churn reaped no tombstone that had served traffic")
	}
	m := c.Metrics()
	if got, want := c.Messages(), sumCounts(m.Delivered); got != want {
		t.Fatalf("Messages() = %d, Metrics delivered total = %d", got, want)
	}
	if got, want := c.StaleRoutes(), m.StaleRoutes; got != want {
		t.Fatalf("StaleRoutes() = %d, Metrics stale routes = %d", got, want)
	}
}

// TestHopClockSampling pins the hop-timing contract. Untraced, a peer times
// one delivery in hopClockEvery of each kind, inline or queued: once the
// cluster is quiet, each peer's queue-wait and handle-time histograms hold
// exactly Σ over kinds of ⌊delivered/hopClockEvery⌋ samples. Traced, every
// hop is timed: each has a positive handle time, and no inline hop reports
// a queue wait.
func TestHopClockSampling(t *testing.T) {
	c, keys := liveCluster(t, 16, 200, 463)
	ids := c.PeerIDs()
	getAll := func(clients, gets int) {
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < gets; i++ {
					k := keys[rng.Intn(len(keys))]
					if _, found, _, err := c.Get(ids[rng.Intn(len(ids))], k); err != nil || !found {
						t.Errorf("get %d: found=%v err=%v", k, found, err)
						return
					}
				}
			}(int64(467 + w))
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		quiesce(t, c)
	}

	getAll(4, 500)
	m := c.Metrics()
	if m.HandleTime.Count == 0 {
		t.Fatalf("no peer timed a hop in %d deliveries", sumCounts(m.Delivered))
	}
	for _, s := range m.Peers {
		var want int64
		for _, n := range s.Delivered {
			want += n / hopClockEvery
		}
		if s.QueueWait.Count != want || s.HandleTime.Count != want {
			t.Fatalf("peer %d: %d waits / %d handles sampled from deliveries %v, want %d each",
				s.Peer, s.QueueWait.Count, s.HandleTime.Count, s.Delivered, want)
		}
	}

	// 200 traced gets fit the trace ring (traceRingSize), so every hop of
	// the phase is on record.
	c.SetTraceSampling(1)
	before := c.Metrics()
	getAll(4, 50)
	after := c.Metrics()
	delivered := after.Delivered["GET"] - before.Delivered["GET"]
	inline := after.Inline["GET"] - before.Inline["GET"]
	var hops, waited int64
	for _, tr := range c.Traces() {
		for _, h := range tr {
			hops++
			if h.HandleNs <= 0 {
				t.Fatalf("traced hop at peer %d has handle time %d, want > 0", h.Peer, h.HandleNs)
			}
			if h.QueueWaitNs != 0 {
				waited++
			}
		}
	}
	if hops != delivered {
		t.Fatalf("traces hold %d hops, the traced gets made %d deliveries", hops, delivered)
	}
	if waited > delivered-inline {
		t.Fatalf("%d traced hops report a queue wait, but only %d of %d were queued", waited, delivered-inline, delivered)
	}

	// A hop's handle time is its own: a forwarding hop hands the request on
	// after releasing its token, so its time excludes the hops after it, and
	// the hops of one get sum to no more than the get took.
	for i, k := range keys[:20] {
		quiesce(t, c)
		start := time.Now()
		_, _, hops, err := c.Get(ids[i%len(ids)], k)
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatal(err)
		}
		traces := c.Traces()
		tr := traces[len(traces)-1]
		var sum int64
		for _, h := range tr {
			sum += h.HandleNs
		}
		if len(tr) != hops || sum > wall {
			t.Fatalf("get %d: %d traced hops (want %d) handled for %d ns in total, the call took %d ns", k, len(tr), hops, sum, wall)
		}
	}
}

// TestRequestSizeBounded pins the size of request: a queued message is a
// request by value in its peer's queue, so each byte added here costs one
// byte per queued message (and per slot a walked buffer keeps for reuse).
func TestRequestSizeBounded(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 352 {
		t.Fatalf("unsafe.Sizeof(request{}) = %d, want <= 352", got)
	}
}

// TestResponseSizeBounded pins the size of response: every point op copies
// one by value through its reply channel, and on into the caller, so each
// byte added here is paid on every get and put.
func TestResponseSizeBounded(t *testing.T) {
	if got := unsafe.Sizeof(response{}); got > 168 {
		t.Fatalf("unsafe.Sizeof(response{}) = %d, want <= 168", got)
	}
}
