package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/transport"
)

// wireTrio is wirePair plus a client node hosting no peers, so everything
// the client asks for crosses a socket.
func wireTrio(t testing.TB, headPeers, daemonPeers, items int, seed int64) (head, daemon, client *Cluster, keys []keyspace.Key) {
	t.Helper()
	head, daemon, keys = wirePair(t, 2, headPeers, daemonPeers, items, seed)
	waitConverge(t, head, daemon)
	client, err := JoinRemote(head.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Stop)
	waitConverge(t, head, client)
	return head, daemon, client, keys
}

// bytesSent sums the bytes every node's transport has written.
func bytesSent(nodes ...*Cluster) (n uint64) {
	for _, c := range nodes {
		n += c.Metrics().Transport.BytesOut
	}
	return n
}

// TestWireRangeItemsCrossOnce pins the data-flat contract of wire range
// queries: whatever the plan, and whether the client's node hosts peers or
// not, the answer equals the in-process cluster's item for item, and every
// item crosses a socket about once — the bytes all nodes send for a
// 20 000-item answer stay within 15 % of the encoded answer plus 256 bytes
// of framing and control per covering peer. (Before, when the serial walk
// re-shipped its accumulator at every cross-node hop and a scatter chunk
// retraced the scatter tree, the client's queries below put 4.71 × the
// answer on the wire for the serial plan, 1.73 × for the scatter and 2.78 ×
// for the limited walk; they now read 1.00–1.01 ×.)
func TestWireRangeItemsCrossOnce(t *testing.T) {
	head, daemon, client, keys := wireTrio(t, 8, 8, 24000, 11)

	// The reference: the same items in an in-process cluster.
	nw := core.NewNetwork(core.Config{Seed: 11})
	for nw.Size() < 4 {
		if _, _, err := nw.Join(nw.PeerIDs()[0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	local := NewCluster(nw)
	defer local.Stop()

	// Key-adjacent peers must alternate between the nodes, or the test
	// would not see a chain leave and re-enter a node.
	ring := head.topo.Load().ring
	crossings := 0
	for i := 1; i < len(ring); i++ {
		if (ring[i].p.node != 0) != (ring[i-1].p.node != 0) {
			crossings++
		}
	}
	if crossings < 4 {
		t.Fatalf("only %d node crossings along a ring of %d peers", crossings, len(ring))
	}

	r := head.Domain()
	r.Lower += (r.Upper - r.Lower) / 16
	want, _, err := local.Query(local.PeerIDs()[0], parallelQuery(r))
	if err != nil || len(want) < 20000 {
		t.Fatalf("reference answer: %d items, err %v", len(want), err)
	}
	const limit = 5000
	pred := func() *query.Pred { return &query.Pred{Limit: limit} }
	wantLimited, _, err := local.Query(local.PeerIDs()[0], Query{Range: r, Pred: pred()})
	if err != nil || len(wantLimited) != limit {
		t.Fatalf("reference limited answer: %d items, err %v", len(wantLimited), err)
	}
	span := head.EstimateSpan(r)

	iter := func(c *Cluster, via core.PeerID) ([]store.Item, error) {
		it, err := c.QueryIter(via, Query{Range: r})
		if err != nil {
			return nil, err
		}
		defer it.Close()
		var got []store.Item
		for it.Next() {
			got = append(got, it.Item())
		}
		// Batches arrive in segment-arrival order; the answer is a set.
		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		return got, it.Err()
	}
	read := func(q Query) func(c *Cluster, via core.PeerID) ([]store.Item, error) {
		return func(c *Cluster, via core.PeerID) ([]store.Item, error) {
			items, _, err := c.Query(via, q)
			return items, err
		}
	}
	plans := []struct {
		name string
		want []store.Item
		run  func(c *Cluster, via core.PeerID) ([]store.Item, error)
	}{
		{"serial", want, read(serialQuery(r))},
		{"parallel", want, read(parallelQuery(r))},
		{"auto", want, read(Query{Range: r})},
		{"iterator", want, iter},
		{"limit", wantLimited, read(Query{Range: r, Pred: pred()})},
	}
	origins := []struct {
		name string
		c    *Cluster
	}{{"client", client}, {"daemon", daemon}}
	for _, o := range origins {
		// One throw-away query opens every socket the origin needs, so the
		// measured ones count no handshakes.
		if _, _, err := o.c.Query(o.c.PeerIDs()[0], parallelQuery(r)); err != nil {
			t.Fatalf("%s: opening sockets: %v", o.name, err)
		}
		ids := o.c.PeerIDs()
		for i, pl := range plans {
			before := bytesSent(head, daemon, client)
			got, err := pl.run(o.c, ids[(3*i+1)%len(ids)])
			sent := bytesSent(head, daemon, client) - before
			label := o.name + " " + pl.name
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got) != len(pl.want) {
				t.Fatalf("%s: %d items, want %d", label, len(got), len(pl.want))
			}
			for j := range got {
				if got[j].Key != pl.want[j].Key || string(got[j].Value) != string(pl.want[j].Value) {
					t.Fatalf("%s: item %d = %d %q, want %d %q", label, j,
						got[j].Key, got[j].Value, pl.want[j].Key, pl.want[j].Value)
				}
			}
			encoded := len(encodeResponse(nil, &response{items: pl.want}))
			ratio := float64(sent) / float64(encoded)
			if max := uint64(1.15*float64(encoded)) + 256*uint64(span); sent > max {
				t.Errorf("%s: %d bytes on the wire for an answer that encodes to %d (%.2f×), budget %d",
					label, sent, encoded, ratio, max)
			} else {
				t.Logf("%s: %.2f× the encoded answer on the wire", label, ratio)
			}
		}
	}
}

// TestWireRangeMidChainKill pins the contract refuse documents, over the
// wire: a dead peer inside the range yields ErrOwnerDown together with the
// items collected — everything before the dead peer for the serial walk,
// everything outside it for the scatter.
func TestWireRangeMidChainKill(t *testing.T) {
	head, daemon, client, keys := wireTrio(t, 6, 6, 3000, 5)
	ring := head.topo.Load().ring
	victim := ring[len(ring)/2]
	victimRng := keyspace.Range{Lower: victim.lower, Upper: ring[len(ring)/2+1].lower}
	if err := head.Kill(victim.id); err != nil {
		t.Fatal(err)
	}
	// The kill rebroadcasts alive flags under an unchanged epoch: wait for
	// both other nodes to have seen it.
	for deadline := time.Now().Add(10 * time.Second); daemon.Alive(victim.id) || client.Alive(victim.id); {
		if time.Now().After(deadline) {
			t.Fatal("kill never reached the other nodes")
		}
		time.Sleep(2 * time.Millisecond)
	}
	all := uniqueSortedKeys(keys)
	r := head.Domain()
	var before, outside []keyspace.Key
	for _, k := range all {
		if k < victimRng.Lower {
			before = append(before, k)
		}
		if !victimRng.Contains(k) {
			outside = append(outside, k)
		}
	}
	for _, c := range []*Cluster{client, daemon} {
		via := c.PeerIDs()[0]
		items, _, err := c.Query(via, serialQuery(r))
		if !errors.Is(err, ErrOwnerDown) {
			t.Fatalf("serial over a dead peer: err = %v, want ErrOwnerDown", err)
		}
		checkExactItems(t, items, before, "serial walk up to the dead peer")
		items, _, err = c.Query(via, parallelQuery(r))
		if !errors.Is(err, ErrOwnerDown) {
			t.Fatalf("scatter over a dead peer: err = %v, want ErrOwnerDown", err)
		}
		checkExactItems(t, items, outside, "scatter around the dead peer")
	}
}

// TestWireRangeConnectionDropMidQuery: finals announce how many partials
// were sent, not by whom, so a connection dropping while a query is in
// flight ends it at the origin with ErrOwnerDown and the items that made
// it — no waiting for chunks that went down with the socket, and (the
// package's leak barrier) no goroutine left behind.
func TestWireRangeConnectionDropMidQuery(t *testing.T) {
	// The sweep itself, step by step: a query with one branch out has
	// received a partial of two items when a connection — any connection —
	// drops.
	head, daemon, client, keys := wireTrio(t, 12, 12, 4000, 9)
	n := client.net
	reply := make(chan response, 2)
	coll := &collector{reply: reply, pending: 1}
	origin := acquireCorr(&n.corr, corrEntry{node: anyNode, coll: coll})
	coll.origin = wireDest{n: n, node: n.self, corr: origin}
	acquireCorr(&n.corr, corrEntry{node: daemon.net.self, coll: coll})
	n.complete(origin, response{items: []store.Item{{Key: 1}, {Key: 2}}}, msgFlagPartial)
	n.corr.sweep(head.net.self, fmt.Errorf("%w: connection to node %d lost", ErrOwnerDown, head.net.self))
	if len(reply) != 1 {
		t.Fatalf("the sweep left %d answers, want 1", len(reply))
	}
	r := <-reply
	if !errors.Is(r.err, ErrOwnerDown) {
		t.Fatalf("swept query ended with %v, want ErrOwnerDown", r.err)
	}
	checkExactItems(t, r.items, []keyspace.Key{1, 2}, "swept query")
	n.corr.sweep(daemon.net.self, ErrOwnerDown) // the branch's entry: its final changes nothing now
	if len(reply) != 0 {
		t.Fatal("a final after the sweep produced a second answer")
	}

	// End to end: a node goes away halfway through an iteration from the
	// zero-peer client, so the pages after it find the daemon's peers gone.
	// The iteration ends complete, or with ErrOwnerDown and the items it
	// yielded, but it ends, and leaves nothing in the table.
	total := len(uniqueSortedKeys(keys))
	it, err := client.QueryIter(client.PeerIDs()[0], Query{Range: head.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := 0
	for got < total/2 && it.Next() {
		got++
	}
	daemon.Stop()
	for it.Next() {
		got++
	}
	switch {
	case it.Err() == nil && got != total:
		t.Fatalf("query ended clean with %d of %d items", got, total)
	case it.Err() != nil && !errors.Is(it.Err(), ErrOwnerDown):
		t.Fatalf("query ended with %v and %d items, want ErrOwnerDown and what had arrived", it.Err(), got)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		n.corr.mu.Lock()
		left := len(n.corr.m)
		n.corr.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d correlation entries left at the origin after the query ended", left)
		}
	}
}

// TestWireRangeRefusedPartialNotCounted: a contributor whose chunk the
// transport refuses (here: the origin is a node it has no connection to and
// no address for) must not count it among the partials it announces, and
// reports the failure on the control path — so the origin never waits for a
// frame that was not sent.
func TestWireRangeRefusedPartialNotCounted(t *testing.T) {
	head, daemon, _ := wirePair(t, 2, 4, 4, 800, 21)
	waitConverge(t, head, daemon)
	var target *peer
	for _, id := range hostedBy(daemon, false) {
		if p := daemon.peerByID(id); p.items.Load() > 0 {
			target = p
			break
		}
	}
	if target == nil {
		t.Fatal("no daemon-hosted peer holds items")
	}
	final := make(chan response, 1)
	branch := acquireCorr(&head.net.corr, corrEntry{node: daemon.net.self, ch: final})
	sub := request{kind: kindRangeScatter, key: target.rng.Lower, rng: target.rng, onode: 99, ocorr: 5}
	daemon.net.inboundRequest(&transport.Msg{
		To: uint64(int64(target.id)), Origin: head.net.self, Corr: branch,
		Kind: byte(msgRequest), Payload: encodeRequest(nil, &sub),
	})
	select {
	case r := <-final:
		if r.parts != 0 || !errors.Is(r.err, ErrOwnerDown) || len(r.items) != 0 {
			t.Fatalf("final after a refused partial: parts=%d items=%d err=%v, want 0, 0, ErrOwnerDown",
				r.parts, len(r.items), r.err)
		}
	case <-time.After(10 * time.Second):
		releaseCorr(&head.net.corr, branch)
		t.Fatal("no final after a refused partial")
	}
}

// TestWireCollectorDropsStrayFrames feeds the origin side frames that name
// nothing, the wrong kind of entry, or a finished query, and a final whose
// partial count is absurd: none may disturb a collector or a single-answer
// completion.
func TestWireCollectorDropsStrayFrames(t *testing.T) {
	head, daemon, _ := wirePair(t, 2, 3, 3, 50, 4)
	waitConverge(t, head, daemon)
	n := head.net
	chunk := func(keys ...keyspace.Key) []store.Item {
		items := make([]store.Item, len(keys))
		for i, k := range keys {
			items[i] = store.Item{Key: k, Value: []byte("v")}
		}
		return items
	}
	frame := func(corr uint64, flags uint8, resp response) *transport.Msg {
		return &transport.Msg{Corr: corr, Origin: daemon.net.self, Kind: byte(msgResponse),
			Flags: flags, Payload: encodeResponse(nil, &resp)}
	}

	// A partial for a correlation that never existed.
	n.inboundResponse(frame(1<<40, msgFlagPartial, response{items: chunk(1)}))

	// A partial naming a single-answer entry must not run its completion:
	// that entry completes exactly once, with its final.
	single := make(chan response, 1)
	id := acquireCorr(&n.corr, corrEntry{node: daemon.net.self, ch: single})
	n.inboundResponse(frame(id, msgFlagPartial, response{items: chunk(2)}))
	if len(single) != 0 {
		t.Fatal("a partial completed a single-answer correlation")
	}
	n.inboundResponse(frame(id, 0, response{hops: 3}))
	if r := <-single; r.hops != 3 {
		t.Fatalf("the final after a stray partial brought hops=%d, want 3", r.hops)
	}

	// An origin collector with one branch out: the final announces two
	// partials, one of which has overtaken it.
	reply := make(chan response, 1)
	coll := &collector{reply: reply, pending: 1}
	origin := acquireCorr(&n.corr, corrEntry{node: anyNode, coll: coll})
	coll.origin = wireDest{n: n, node: n.self, corr: origin}
	branch := acquireCorr(&n.corr, corrEntry{node: daemon.net.self, coll: coll})
	n.inboundResponse(frame(origin, msgFlagPartial, response{items: chunk(30, 31)}))
	n.inboundResponse(frame(branch, 0, response{parts: 2, hops: 7}))
	if len(reply) != 0 {
		t.Fatal("collector completed with an announced partial still missing")
	}
	n.inboundResponse(frame(origin, msgFlagPartial, response{items: chunk(10, 11)}))
	r := <-reply
	checkExactItems(t, r.items, []keyspace.Key{10, 11, 30, 31}, "stitched answer")
	if r.hops != 7 || r.err != nil {
		t.Fatalf("stitched answer: hops=%d err=%v", r.hops, r.err)
	}
	// The query is over: its origin entry is released, and a straggler —
	// even one that raced the release — changes nothing.
	n.inboundResponse(frame(origin, msgFlagPartial, response{items: chunk(50)}))
	coll.fromWire(response{items: chunk(51)}, false)
	if len(reply) != 0 {
		t.Fatal("a partial after completion produced a second answer")
	}

	// A final announcing an absurd number of partials is a malformed frame:
	// the branch ends with an error instead of parking the collector on a
	// count nothing will ever meet.
	reply2 := make(chan response, 1)
	coll2 := &collector{reply: reply2, pending: 1}
	branch2 := acquireCorr(&n.corr, corrEntry{node: daemon.net.self, coll: coll2})
	n.inboundResponse(frame(branch2, 0, response{parts: maxParts + 1}))
	if r := <-reply2; !errors.Is(r.err, ErrUnreachable) {
		t.Fatalf("absurd partial count: err=%v, want ErrUnreachable", r.err)
	}

	n.corr.mu.Lock()
	left := len(n.corr.m)
	n.corr.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d correlation entries left behind", left)
	}
}

// TestWireFilteredScatterFiltersRemoteBranches: the pushdown predicate of a
// parallel query travels with its scatter sub-requests, so branches on
// other nodes filter too.
func TestWireFilteredScatterFiltersRemoteBranches(t *testing.T) {
	head, daemon, keys := wirePair(t, 2, 6, 6, 2000, 13)
	waitConverge(t, head, daemon)
	all := uniqueSortedKeys(keys)
	rng := rand.New(rand.NewSource(13))
	pick := make([]keyspace.Key, 0, 200)
	for _, i := range rng.Perm(len(all))[:200] {
		pick = append(pick, all[i])
	}
	sort.Slice(pick, func(i, j int) bool { return pick[i] < pick[j] })
	for _, c := range []*Cluster{head, daemon} {
		got, _, err := c.Query(c.PeerIDs()[0], Query{Range: c.Domain(), Pred: &query.Pred{Keys: pick}, Plan: query.PlanParallel})
		if err != nil {
			t.Fatal(err)
		}
		checkExactItems(t, got, pick, "filtered scatter")
	}
}

// TestWireOnePeerQueryOneFrame: a parallel query whose range one peer covers
// comes back to a zero-peer client in one response frame — the items ride
// the final response, as at the end of a serial walk, instead of a partial
// followed by a final.
func TestWireOnePeerQueryOneFrame(t *testing.T) {
	_, _, client, keys := wireTrio(t, 6, 6, 6000, 23)
	r, want := onePeerRange(t, client, keys, 50)
	via := client.PeerIDs()[0]
	if _, _, err := client.Query(via, parallelQuery(r)); err != nil { // opens the sockets
		t.Fatal(err)
	}
	const queries = 20
	before := client.Metrics().Transport.FramesIn
	for range queries {
		items, _, err := client.Query(via, parallelQuery(r))
		if got := itemKeys(items); err != nil || !slices.Equal(got, want) {
			t.Fatalf("parallel query over one peer: %d items, err %v; want %d", len(got), err, len(want))
		}
	}
	if frames := client.Metrics().Transport.FramesIn - before; frames != queries {
		t.Fatalf("%d queries received %d response frames, want one each", queries, frames)
	}
}

// TestWireRangeAnswerDecodedOnce: a range answer from a zero-peer client
// allocates one item slice in all, at the origin, sized exactly. Every
// covering peer encodes its part from its store straight into its frame,
// and the origin decodes each frame's items once, straight into the
// answer. So the bytes the whole process allocates per query (the frames
// written and read, the answer, the bookkeeping) stay within 2.6 × the
// answer's own; the parent read 4.45–4.50 ×, with an item slice built at
// the sender, another per frame decoded and a third stitched from those.
// Every answer equals the in-process cluster's, item for item.
func TestWireRangeAnswerDecodedOnce(t *testing.T) {
	head, _, client, keys := wireTrio(t, 16, 16, 48000, 31)
	nw := core.NewNetwork(core.Config{Seed: 31})
	for nw.Size() < 4 {
		if _, _, err := nw.Join(nw.PeerIDs()[0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	local := NewCluster(nw)
	defer local.Stop()

	ring := head.topo.Load().ring
	via := client.PeerIDs()[0]
	if _, _, err := client.Query(via, parallelQuery(head.Domain())); err != nil { // opens the sockets
		t.Fatal(err)
	}
	const queries = 20
	for _, tc := range []struct {
		plan query.Plan
		span int
	}{{query.PlanSerial, 1}, {query.PlanSerial, 2}, {query.PlanSerial, 3}, {query.PlanParallel, 4}, {query.PlanParallel, 13}} {
		var qs [queries]Query
		var want, got [queries][]store.Item
		for q := range qs {
			i := 1 + q%(len(ring)-tc.span-2)
			r := slotRange(head, i, tc.span)
			if tc.span == 1 {
				r = keyspace.Range{Lower: ring[i].lower, Upper: r.Lower}
			}
			qs[q] = Query{Range: r, Plan: tc.plan}
			items, _, err := local.Query(local.PeerIDs()[0], qs[q])
			if err != nil || len(items) == 0 {
				t.Fatalf("%v span %d over %v: reference answer of %d items, err %v", tc.plan, tc.span, r, len(items), err)
			}
			want[q] = items
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for q := range qs {
			items, _, err := client.Query(via, qs[q])
			if err != nil {
				t.Fatalf("%v span %d over %v: %v", tc.plan, tc.span, qs[q].Range, err)
			}
			got[q] = items
		}
		runtime.ReadMemStats(&after)
		answer := 0
		for q := range qs {
			if !slices.EqualFunc(got[q], want[q], func(a, b store.Item) bool { return a.Key == b.Key && string(a.Value) == string(b.Value) }) {
				t.Fatalf("%v span %d over %v: %d items differ from the in-process %d", tc.plan, tc.span, qs[q].Range, len(got[q]), len(want[q]))
			}
			answer += len(got[q])
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(answer*int(unsafe.Sizeof(store.Item{})))
		t.Logf("%v span %d: %.2f× the answer's bytes, %.1f mallocs per query", tc.plan, tc.span, ratio,
			float64(after.Mallocs-before.Mallocs)/queries)
		if ratio > 2.6 {
			t.Errorf("%v span %d allocates %.2f× the answer's bytes, want ≤ 2.6", tc.plan, tc.span, ratio)
		}
	}
}

// TestWireRangeFramesPerQuery pins the frames each node sends and receives
// for range queries from a zero-peer client: serial walks over one to three
// peers and parallel queries over 4 and 13, eight queries each through the
// same entry peer. The figures are those of the executor that gave serial
// walks and scatters separate code, a collector to every scatter branch
// that arrived over the wire and queued every branch: running a serial walk
// as a scatter of fan-out one, making each collector where a query first
// scatters and handing one branch per step on must add no frame — no
// partial where a walk's last part rides its final, no proxy final.
func TestWireRangeFramesPerQuery(t *testing.T) {
	head, daemon, client, _ := wireTrio(t, 16, 16, 8000, 37)
	ring := head.topo.Load().ring
	via := client.PeerIDs()[0]
	if _, _, err := client.Query(via, parallelQuery(head.Domain())); err != nil { // opens the sockets
		t.Fatal(err)
	}
	nodes := []*Cluster{head, daemon, client}
	const queries = 8
	for _, tc := range []struct {
		plan query.Plan
		span int
		want [3][2]uint64 // frames in and out at head, daemon and client
	}{
		{query.PlanSerial, 1, [3][2]uint64{{2, 2}, {6, 6}, {8, 8}}},
		{query.PlanSerial, 2, [3][2]uint64{{4, 6}, {8, 14}, {16, 8}}},
		{query.PlanSerial, 3, [3][2]uint64{{7, 11}, {11, 23}, {24, 8}}},
		{query.PlanParallel, 4, [3][2]uint64{{10, 18}, {15, 39}, {40, 8}}},
		{query.PlanParallel, 13, [3][2]uint64{{44, 82}, {50, 116}, {112, 8}}},
	} {
		frames := func() (f [3][2]uint64) {
			for i, n := range nodes {
				m := n.Metrics().Transport
				f[i] = [2]uint64{m.FramesIn, m.FramesOut}
			}
			return f
		}
		before := frames()
		for q := range queries {
			i := 1 + q%(len(ring)-tc.span-2)
			r := slotRange(head, i, tc.span)
			if tc.span == 1 {
				r = keyspace.Range{Lower: ring[i].lower, Upper: r.Lower}
			}
			if _, _, err := client.Query(via, Query{Range: r, Plan: tc.plan}); err != nil {
				t.Fatalf("%v span %d over %v: %v", tc.plan, tc.span, r, err)
			}
		}
		got := frames()
		for i := range got {
			got[i][0] -= before[i][0]
			got[i][1] -= before[i][1]
		}
		if got != tc.want {
			t.Errorf("%v span %d: frames in and out at head, daemon, client = %v over %d queries, want %v",
				tc.plan, tc.span, got, queries, tc.want)
		}
	}
}
