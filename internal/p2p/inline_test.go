package p2p

import (
	"fmt"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/store"
)

// quiesce waits until no local peer has a request queued or running, so a
// test's next request finds every peer idle.
func quiesce(t *testing.T, c *Cluster) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		idle := true
		for _, p := range c.topo.Load().peers {
			if p.busy.Load() != 0 {
				idle = false
				break
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

// sumCounts totals one per-kind counter map of a metrics snapshot.
func sumCounts(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// TestInlineRangeIterDoesNotDeadlock: a streaming query carries its
// collector, so it is never run inline. Run inline, the coordinating peer's
// scan would execute on the very client goroutine that must drain the sink,
// and block in rangeSink.send once sinkBuffer batches were waiting.
func TestInlineRangeIterDoesNotDeadlock(t *testing.T) {
	c, keys := liveCluster(t, 8, 40_000, 151)
	want := map[keyspace.Key]bool{}
	for _, k := range keys {
		want[k] = true
	}
	if len(want) <= 4*sinkBuffer*iterBatchSize {
		t.Fatalf("answer of %d items does not overflow the sink", len(want))
	}
	quiesce(t, c)
	withTimeout(t, 20*time.Second, "RangeIter over an idle cluster", func() {
		it, err := c.QueryIter(c.PeerIDs()[0], Query{Range: c.Domain()})
		if err != nil {
			t.Error(err)
			return
		}
		defer it.Close()
		got := 0
		for it.Next() {
			if !want[it.Item().Key] {
				t.Errorf("unexpected item %d", it.Item().Key)
				return
			}
			got++
		}
		if it.Err() != nil || got != len(want) {
			t.Errorf("RangeIter yielded %d items, err %v; want %d, nil", got, it.Err(), len(want))
		}
	})
}

// TestInlineKeepsPerPeerFIFO: a request runs on its sender only when
// nothing is queued or running at the target, so it can never overtake
// queued work. The holder here has no serving goroutine until the test
// starts one, so its queue provably stays non-empty when the token is
// released: a sender that ran inline whenever the token was free would
// apply the fourth replica delta before the first three.
func TestInlineKeepsPerPeerFIFO(t *testing.T) {
	c, _ := liveCluster(t, 4, 0, 157)
	h := addGhost(c, 9997)

	// Delta seq i writes value i under every key from keys[i-1] on, so the
	// replica ends as {a:1 b:2 c:3 d:4} only if the deltas apply in order.
	const src = 4242
	keys := []keyspace.Key{10, 20, 30, 40}
	delta := func(seq int) request {
		var ups []store.Item
		for _, k := range keys[seq-1:] {
			ups = append(ups, store.Item{Key: k, Value: []byte(fmt.Sprint(seq))})
		}
		return request{kind: kindReplicate, src: src, seq: int64(seq), bulk: ups}
	}
	h.busy.Add(1) // the test takes the token
	h.run.Lock()
	for seq := 1; seq <= 3; seq++ {
		if !c.send(h.id, delta(seq)) {
			t.Fatalf("delta %d refused", seq)
		}
	}
	h.run.Unlock() // and releases it with three deltas queued
	h.busy.Add(-1)
	if !c.send(h.id, delta(4)) {
		t.Fatal("delta 4 refused")
	}
	if got := queued(h); got != 4 {
		t.Fatalf("queue holds %d deltas, want 4: the fourth ran inline ahead of queued work", got)
	}
	c.wg.Add(1)
	go c.serve(h)

	ch := make(chan response, 1)
	if !c.send(h.id, request{kind: kindReplicaFetch, src: src, reply: ch}) {
		t.Fatal("fetch refused")
	}
	resp := <-ch
	var got []string
	for _, it := range resp.items {
		got = append(got, fmt.Sprintf("%d:%s", it.Key, it.Value))
	}
	if fmt.Sprint(got) != "[10:1 20:2 30:3 40:4]" {
		t.Fatalf("replica after four deltas = %v, want [10:1 20:2 30:3 40:4]", got)
	}
	m := h.met.Snapshot(int64(h.id), kindName)
	if m.Delivered["REPLICATE"] != 4 || m.Inline["REPLICATE"] != 0 {
		t.Fatalf("deltas delivered %d, inline %d; want 4 queued", m.Delivered["REPLICATE"], m.Inline["REPLICATE"])
	}
}

// TestInlineScatterBranchesQueued: on an idle cluster every hop of an
// overlay Get runs inline (inline count == hops), while the branches of a
// parallel range carry the collector and are always queued, so they run in
// parallel on their peers' goroutines.
func TestInlineScatterBranchesQueued(t *testing.T) {
	c, keys := liveCluster(t, 64, 2000, 163)
	ids := c.PeerIDs()
	for i, k := range keys[:50] {
		quiesce(t, c)
		before := sumCounts(c.Metrics().Inline)
		if _, found, hops, err := c.Get(ids[i%len(ids)], k); err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", k, found, err)
		} else if got := sumCounts(c.Metrics().Inline) - before; got != int64(hops) {
			t.Fatalf("get %d: %d of %d hops inline on an idle cluster", k, got, hops)
		}
	}

	quiesce(t, c)
	before := c.Metrics()
	items, _, err := c.Query(ids[0], parallelQuery(keyspace.NewRange(100_000_000, 900_000_000)))
	if err != nil || len(items) == 0 {
		t.Fatalf("range: %d items, err %v", len(items), err)
	}
	after := c.Metrics()
	if n := after.Delivered["RANGE_SCATTER"] - before.Delivered["RANGE_SCATTER"]; n == 0 {
		t.Fatal("a range over 80% of the domain scattered no branch")
	}
	if n := after.Inline["RANGE_SCATTER"] - before.Inline["RANGE_SCATTER"]; n != 0 {
		t.Fatalf("%d scatter branches ran inline, want 0", n)
	}
}

// TestHandOnReleasesToken: a forwarding hop passes the request on after
// releasing its token, so an inline walk holds one peer at a time. The
// reply channel is unbuffered, so the owner's respond blocks inside its
// handler, on the walking goroutine, until the test reads it; while it is
// blocked, every earlier peer on the route must already be idle.
func TestHandOnReleasesToken(t *testing.T) {
	c, keys := liveCluster(t, 64, 2000, 173)
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	expectNW, err := core.FromSnapshot(c.Domain(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.PeerIDs()
	var route []core.PeerID
	var key keyspace.Key
	for i := 0; len(route) < 4; i++ {
		if i == len(keys) {
			t.Fatal("no route of 4 or more hops")
		}
		key = keys[i]
		if route, err = expectNW.RoutePath(ids[i%len(ids)], key); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)
	ch := make(chan response)
	go c.deliverTo(c.peerByID(route[0]), request{kind: kindGet, key: key, reply: ch}, false)

	owner := c.peerByID(route[len(route)-1])
	for deadline := time.Now().Add(5 * time.Second); owner.busy.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the get never reached owner %d", owner.id)
		}
	}
	for _, id := range route[:len(route)-1] {
		if n := c.peerByID(id).busy.Load(); n != 0 {
			t.Errorf("peer %d on route %v has busy %d while the owner answers, want 0", id, route, n)
		}
	}
	select {
	case resp := <-ch:
		if resp.err != nil || !resp.found || resp.hops != len(route) {
			t.Fatalf("get %d: found=%v hops=%d err=%v; want found in %d hops", key, resp.found, resp.hops, resp.err, len(route))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
}

// TestInlineDepthBound: a serial walk over the whole domain of a 256-peer
// cluster is far longer than maxInlineDepth. It returns the exact answer,
// and only deliveries among its first maxInlineDepth run inline — every
// later one is queued, so inline calls never nest deeper than the bound.
// (Fewer may: a visit to a chain peer that is still busy queues.)
func TestInlineDepthBound(t *testing.T) {
	c, keys := liveCluster(t, 256, 3000, 167)
	want := map[keyspace.Key]bool{}
	for _, k := range keys {
		want[k] = true
	}
	quiesce(t, c)
	before := c.Metrics()
	items, hops, err := c.Query(c.PeerIDs()[0], serialQuery(c.Domain()))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(want) {
		t.Fatalf("serial walk returned %d items, want %d", len(items), len(want))
	}
	for i, it := range items {
		if !want[it.Key] || i > 0 && items[i-1].Key >= it.Key {
			t.Fatalf("item %d (key %d) unexpected or out of order", i, it.Key)
		}
	}
	after := c.Metrics()
	delivered := after.Delivered["RANGE"] - before.Delivered["RANGE"]
	inline := after.Inline["RANGE"] - before.Inline["RANGE"]
	if hops <= maxInlineDepth || delivered != int64(hops) {
		t.Fatalf("walk of %d hops delivered %d messages; want one per hop, more than %d", hops, delivered, maxInlineDepth)
	}
	if inline == 0 || inline > maxInlineDepth {
		t.Fatalf("%d of %d hops ran inline, want some, at most the first %d", inline, hops, maxInlineDepth)
	}
}
