package p2p

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
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

// TestRangeIterStalledConsumerDoesNotBlockGets: an iterator holds no peer
// between calls to Next, so a consumer that takes one item and stops
// consuming stalls nobody. At one P, with an answer far larger than any one
// page, a Get of one key in every peer the iterator covers must return.
// (When covering peers pushed their parts through a bounded channel, they
// sat blocked in its send, under their tokens, and every Get behind them
// waited for the consumer.)
func TestRangeIterStalledConsumerDoesNotBlockGets(t *testing.T) {
	c, keys := liveCluster(t, 8, 40_000, 151)
	uniq := uniqueSortedKeys(keys)
	ring := c.topo.Load().ring
	probes := make([]keyspace.Key, 0, len(ring))
	for _, e := range ring {
		i, _ := slices.BinarySearch(uniq, e.lower)
		if i == len(uniq) {
			t.Fatalf("no key at or above slot %v", e.lower)
		}
		probes = append(probes, uniq[i])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	quiesce(t, c)
	it, err := c.QueryIter(c.PeerIDs()[0], Query{Range: c.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatalf("iterator yielded nothing: %v", it.Err())
	}
	withTimeout(t, 10*time.Second, "Gets beside a stalled iterator", func() {
		for _, k := range probes {
			if _, found, _, err := c.Get(c.PeerIDs()[0], k); err != nil || !found {
				t.Errorf("Get(%d) = found %v, err %v", k, found, err)
			}
		}
	})
}

// TestInlineKeepsPerPeerFIFO: a request runs on its sender only when
// nothing is queued or running at the target, so it can never overtake
// queued work. The holder here has no drainer until the test starts one,
// so its queue provably stays non-empty when the token is released: a
// sender that ran inline whenever the token was free would apply the
// fourth replica delta before the first three.
func TestInlineKeepsPerPeerFIFO(t *testing.T) {
	c, _ := liveCluster(t, 4, 0, 157)
	h := addGhost(c, 9997)

	h.busy.Add(1) // the test takes the token
	h.run.Lock()
	for seq := 1; seq <= 3; seq++ {
		if !c.send(h.id, fifoDelta(seq)) {
			t.Fatalf("delta %d refused", seq)
		}
	}
	h.run.Unlock() // and releases it with three deltas queued
	h.busy.Add(-1)
	if !c.send(h.id, fifoDelta(4)) {
		t.Fatal("delta 4 refused")
	}
	if got := queued(h); got != 4 {
		t.Fatalf("queue holds %d deltas, want 4: the fourth ran inline ahead of queued work", got)
	}
	c.wg.Add(1)
	go c.drain(h)

	if got := fifoReplica(t, c, h); got != fifoInOrder {
		t.Fatalf("replica after four deltas = %v, want %v", got, fifoInOrder)
	}
	m := h.met.Snapshot(int64(h.id), kindName)
	if m.Delivered["REPLICATE"] != 4 || m.Inline["REPLICATE"] != 0 {
		t.Fatalf("deltas delivered %d, inline %d; want 4 queued", m.Delivered["REPLICATE"], m.Inline["REPLICATE"])
	}
}

// TestInlineScatterBranchesQueued: on an idle cluster every hop of an
// overlay Get runs inline (inline count == hops). A parallel range queues
// all but one of the branches each scattering step sends, so they run in
// parallel on their peers' drainers, and hands the last one on, inline
// on an idle cluster, as every walk does. The query over 80 % of the domain
// sends the same 44 branches it did when every branch queued; 24 of them
// are handed on, one per scattering step, and 20 queue.
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
	delivered := after.Delivered["RANGE_SCATTER"] - before.Delivered["RANGE_SCATTER"]
	inline := after.Inline["RANGE_SCATTER"] - before.Inline["RANGE_SCATTER"]
	if delivered != 44 || inline != 24 || delivered-inline != 20 {
		t.Fatalf("a range over 80%% of the domain sent %d branches, %d inline and %d queued; want 44, 24 and 20",
			delivered, inline, delivered-inline)
	}
}

// TestHandOnReleasesToken: every walk kind — a parallel range's steps too —
// passes its request on after releasing its token, so an inline walk holds
// one peer at a time. Each row
// learns its route from a traced dry run, then sends the request again with
// an unbuffered reply channel, so the last peer's respond blocks inside its
// handler, on the walking goroutine, until the test reads it; while it is
// blocked, every earlier peer on the route must already be idle.
func TestHandOnReleasesToken(t *testing.T) {
	c, keys := liveCluster(t, 64, 2000, 173)
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Range.Lower < snaps[j].Range.Lower })
	var root core.PeerID
	for _, s := range snaps {
		if s.Position.Level == 0 {
			root = s.ID
		}
	}
	// route runs req from via with a trace and returns the peers it visited.
	route := func(t *testing.T, via core.PeerID, req request) []core.PeerID {
		t.Helper()
		quiesce(t, c)
		req.trace, req.reply = obs.NewTrace(), make(chan response, 1)
		if !c.deliverTo(c.peerByID(via), req, false) {
			t.Fatalf("%v from %d refused", req.kind, via)
		}
		if resp := <-req.reply; resp.err != nil {
			t.Fatalf("%v from %d: %v", req.kind, via, resp.err)
		}
		var ids []core.PeerID
		for _, h := range req.trace.Hops() {
			ids = append(ids, core.PeerID(h.Peer))
		}
		return ids
	}
	// first returns the first start in ids whose route has at least atLeast hops.
	first := func(ids []core.PeerID, req func(i int) request, atLeast int) (core.PeerID, request) {
		for i, via := range ids {
			if r := req(i); len(route(t, via, r)) >= atLeast {
				return via, r
			}
		}
		t.Fatalf("no %v route of %d or more hops", req(0).kind, atLeast)
		return 0, request{}
	}
	ids := c.PeerIDs()
	getVia, get := first(ids, func(i int) request { return request{kind: kindGet, key: keys[i%len(keys)]} }, 4)
	// Four chain peers: the range starts inside snaps[10] and ends inside snaps[13].
	chain := keyspace.Range{Lower: snaps[10].Range.Lower + 1, Upper: snaps[13].Range.Lower + 1}
	joinVia, join := first(ids, func(int) request { return request{kind: kindJoinLocate} }, 2)
	// A parallel range over three peers whose every step hands its one
	// segment on, so the route's last peer completes the collector: the
	// range ends just inside snaps[k+2], which is not in snaps[k]'s right
	// routing table, so no entry of it starts inside the rest.
	parVia, par := func() (core.PeerID, request) {
		for k := 1; k+3 < len(snaps); k++ {
			if !slices.ContainsFunc(c.peerByID(snaps[k].ID).view.RT[core.Right], func(l *core.Link) bool { return l != nil && l.ID == snaps[k+2].ID }) {
				r := keyspace.Range{Lower: snaps[k].Range.Lower + 1, Upper: snaps[k+2].Range.Lower + 1}
				return snaps[k].ID, request{kind: kindRange, key: r.Lower, rng: r, par: true}
			}
		}
		t.Fatal("every peer's right routing table holds the peer two to its right")
		return 0, request{}
	}()
	rows := []struct {
		name    string
		via     core.PeerID
		req     request
		atLeast int
	}{
		{"get", getVia, get, 4},
		{"serial-range", snaps[10].ID, request{kind: kindRange, key: chain.Lower, rng: chain}, 4},
		{"parallel-range", parVia, par, 3},
		{"join-locate", joinVia, join, 2},
		{"find-replacement", root, request{kind: kindFindReplacement}, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			path := route(t, row.via, row.req)
			if len(path) < row.atLeast {
				t.Fatalf("route %v has %d hops, want at least %d", path, len(path), row.atLeast)
			}
			quiesce(t, c)
			ch := make(chan response)
			req := row.req
			req.reply = ch
			go c.deliverTo(c.peerByID(row.via), req, false)

			last := c.peerByID(path[len(path)-1])
			for deadline := time.Now().Add(5 * time.Second); last.busy.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the request never reached peer %d", last.id)
				}
			}
			for _, id := range path[:len(path)-1] {
				if n := c.peerByID(id).busy.Load(); n != 0 {
					t.Errorf("peer %d on route %v has busy %d while the last peer answers, want 0", id, path, n)
				}
			}
			select {
			case resp := <-ch:
				if resp.err != nil || resp.hops != len(path) {
					t.Fatalf("hops=%d err=%v; want an answer in %d hops", resp.hops, resp.err, len(path))
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no reply")
			}
		})
	}
}

// TestInlineSerialWalkHandsOn: a serial walk over the whole domain of a
// 256-peer cluster hands on at every chain step, so on an idle cluster
// every one of its hops runs inline however long the walk is (no hop
// nests, so no depth bound queues the tail), and the answer is exact.
func TestInlineSerialWalkHandsOn(t *testing.T) {
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
	if hops < 256 || delivered != int64(hops) || inline != delivered {
		t.Fatalf("walk of %d hops delivered %d messages, %d inline; want every one of at least 256 hops inline", hops, delivered, inline)
	}
}
