// The query layer: one read spec, Query, answered materialised
// (Cluster.Query) or streamed (Cluster.QueryIter), with selectivity-aware
// planning and predicate pushdown.
//
// BATON makes range selectivity visible for free. The published topology
// snapshot carries the key-ordered ring — every member's range lower bound
// at publication time — so the number of peers a range touches is two
// binary searches against state every client already holds: no messages,
// no locks, no statistics machinery. This is the same lock-free pre-check
// discipline as the balancer's balanceLikely.
//
// Every query takes the same steps. planRange estimates the range's
// peer-span from the ring and looks up the slot owning its lower bound,
// fixes the plan — the caller's, or under query.PlanAuto the rule
// query.Choose applies to the span: the serial adjacent-chain walk below a
// span of 4, the parallel scatter from 4 on, the crossover measured
// workloads settle on — and issue delivers the request straight to that
// owner, falling back to via when it is dead or unknown. A (range bucket, epoch)-keyed query.Cache short-circuits the
// span estimate and the owner lookup for repeated ranges; every ownership
// publication bumps the epoch, which invalidates the cache implicitly. A
// stale cache entry — the bucket was shared, or ownership moved before the
// epoch bumped — costs forwarding hops (phase-1 routing re-aims the
// request), never correctness.
//
// QueryIter streams: the scatter branches push bounded batches into a
// channel-backed sink as they land instead of materialising one giant
// slice, so a wide range query allocates O(batch), not O(result), on the
// serving peers. Batches arrive in segment-arrival order — each batch is
// internally key-sorted and batches from one peer arrive in order, but
// segments from different peers interleave as they finish. Close must be
// called when abandoning an iterator early; a consumer that stops
// consuming without Close stalls the peers still trying to deliver to it.
package p2p

import (
	"errors"
	"sort"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/query"
	"baton/internal/store"
)

// Query is one read of the live cluster: every stored item with a key in
// Range that matches Pred, executed under Plan. A nil Pred matches
// everything, and a positive Pred.Limit caps the answer (Cluster.Query
// returns the lowest Limit matching keys). The zero Plan, query.PlanAuto,
// lets the planner choose. A filtered point read is the one-key range
// [k, k+1).
type Query struct {
	Range keyspace.Range
	Pred  *query.Pred
	Plan  query.Plan
}

// request is the range request that runs q under plan.
func (q Query) request(plan query.Plan) request {
	return request{kind: kindRange, key: q.Range.Lower, rng: q.Range, par: plan == query.PlanParallel, pred: q.Pred}
}

// entryIdx returns the ring index of the member owning key under this
// topology (the slot entryOf resolves, as an index so it can be cached),
// or -1 for an empty ring. Keys below the first entry map to slot 0, the
// extreme-member rule of ownsExtreme.
func (t *topology) entryIdx(key keyspace.Key) int {
	n := len(t.ring)
	if n == 0 {
		return -1
	}
	i := sort.Search(n, func(i int) bool { return t.ring[i].lower > key })
	if i > 0 {
		i--
	}
	return i
}

// spanOf estimates how many member peers the range touches: the ring slots
// from the owner of r.Lower up to (excluding) the first slot whose range
// starts at or beyond r.Upper. Exact against the published ring; a
// concurrent membership change can make it stale by the width of one
// structural operation, which is noise at planning granularity.
func (t *topology) spanOf(r keyspace.Range) int {
	n := len(t.ring)
	if n == 0 || r.IsEmpty() {
		return 1
	}
	lo := t.entryIdx(r.Lower)
	hi := sort.Search(n, func(i int) bool { return t.ring[i].lower >= r.Upper })
	if hi <= lo {
		return 1
	}
	return hi - lo
}

// EstimateSpan returns the number of member peers the range is estimated
// to touch under the current published topology. The estimate is the
// planner's input: two binary searches over the ring, no messages, no
// locks.
func (c *Cluster) EstimateSpan(r keyspace.Range) int {
	return c.topo.Load().spanOf(r)
}

// PlanStats returns the query layer's planning counters: range queries —
// every Query and QueryIter, whatever its plan — dispatched serially and in
// parallel, and plan-cache hits.
func (c *Cluster) PlanStats() obs.PlanSnapshot { return c.plans.Snapshot() }

// planRange resolves q under the current topology: its plan and the peer
// owning q.Range.Lower (nil for an empty ring).
// Span and owner slot come from the plan cache when current and are
// recomputed and cached otherwise. An explicit q.Plan stands. PlanAuto with
// a limit is served serially: the chain stops the moment the limit is
// reached, while a scatter would fan work out to peers whose items are then
// thrown away. Otherwise query.Choose picks from the span alone.
func (c *Cluster) planRange(q Query) (plan query.Plan, entry *peer) {
	t := c.topo.Load()
	var span, ownerIdx int
	bucket := query.BucketOf(q.Range)
	if e, ok := c.planCache.Get(bucket, t.epoch); ok {
		c.plans.CacheHit()
		span, ownerIdx = e.Span, e.OwnerIdx
	} else {
		span = t.spanOf(q.Range)
		ownerIdx = t.entryIdx(q.Range.Lower)
		c.planCache.Put(bucket, t.epoch, span, ownerIdx)
	}
	if ownerIdx >= 0 && ownerIdx < len(t.ring) {
		entry = t.ring[ownerIdx].p
	}
	switch plan = q.Plan; {
	case plan != query.PlanAuto:
	case q.Pred.LimitOrZero() > 0:
		plan = query.PlanSerial
	default:
		plan = query.Choose(span)
	}
	if plan == query.PlanSerial {
		c.plans.Serial()
	} else {
		c.plans.Parallel()
	}
	return plan, entry
}

// Query answers q starting at peer via: the matching items in key order,
// and the longest message chain that produced them. The request enters at
// the cached owner of q.Range.Lower, or at via when that owner is dead or
// unknown. A dead peer inside the range yields the partial answer together
// with ErrOwnerDown.
func (c *Cluster) Query(via core.PeerID, q Query) ([]store.Item, int, error) {
	q.Pred.Normalize()
	plan, entry := c.planRange(q)
	resp, err := c.issue(via, entry, q.request(plan))
	if err != nil {
		return nil, 0, err
	}
	return resp.items, resp.hops, resp.err
}

// RangeAdaptive is Query over r with the planner choosing the plan.
func (c *Cluster) RangeAdaptive(via core.PeerID, r keyspace.Range) ([]store.Item, int, error) {
	return c.Query(via, Query{Range: r})
}

// iterBatchSize bounds how many items one streaming batch carries: big
// enough to amortise the channel send, small enough that the iterator's
// peak memory stays O(batch) per in-flight branch.
const iterBatchSize = 256

// sinkBuffer is the streaming sink's channel capacity, in batches: the
// slack between producing peers and the consuming client before
// backpressure blocks a branch.
const sinkBuffer = 16

// rangeSink is the bounded channel-backed sink of a streaming range query.
// Peer goroutines deliver batches through send, which blocks when the
// client lags (that is the backpressure bound on the query's memory) but
// never indefinitely: a send aborts when the iterator is closed or the
// cluster stops.
type rangeSink struct {
	ch     chan iterBatch
	cancel chan struct{}
	done   <-chan struct{} // cluster shutdown broadcast
}

// iterBatch is one delivery to a streaming iterator: a batch of items, or
// the final summary (hop count and error) when final is set.
type iterBatch struct {
	items []store.Item
	final bool
	hops  int
	err   error
}

// send delivers one non-empty batch. It reports false when the iterator
// was cancelled or the cluster stopped, telling the producing branch to
// stop scanning.
func (s *rangeSink) send(items []store.Item) bool {
	select {
	case s.ch <- iterBatch{items: items}:
		return true
	case <-s.cancel:
		return false
	case <-s.done:
		return false
	}
}

// close delivers the final summary. Called exactly once, by the branch
// that takes the collector's pending count to zero — after every other
// branch's sends completed — so the iterator sees it last.
func (s *rangeSink) close(hops int, err error) {
	select {
	case s.ch <- iterBatch{final: true, hops: hops, err: err}:
	case <-s.cancel:
	case <-s.done:
	}
}

// RangeIter is a streaming range query in progress. Use it like:
//
//	it, err := c.QueryIter(via, p2p.Query{Range: r})
//	if err != nil { ... }
//	defer it.Close()
//	for it.Next() {
//		item := it.Item()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
//
// Items arrive in segment-arrival order: each covering peer's contribution
// is internally key-sorted, but contributions from different peers
// interleave as the scatter branches finish — the price of yielding items
// as they land instead of materialising and stitching the whole result.
// A membership change mid-iteration (join, departure, crash, recovery) is
// handled exactly as the materialising scatter handles it: sub-requests
// addressed with stale state are re-routed, regions in mid-handoff are
// briefly buffered, and a segment whose owner is dead surfaces as
// ErrOwnerDown from Err with the rest of the items intact — never lost or
// duplicated items.
//
// A RangeIter is not safe for concurrent use. Close is idempotent and
// must be called when abandoning the iterator before Next returned false;
// leaking an unconsumed, unclosed iterator stalls the peers still trying
// to deliver to it until the cluster stops.
type RangeIter struct {
	sink    *rangeSink
	cur     []store.Item
	idx     int
	limit   int
	yielded int
	hops    int
	err     error
	done    bool
	closed  bool
}

// QueryIter starts q as a streaming query: the range is scattered as under
// PlanParallel, but the branches stream their contributions through a
// bounded sink as they land and the iterator yields them without ever
// materialising the whole answer; a positive Pred.Limit stops it after that
// many items. PlanSerial is refused without sending anything — a chain walk
// yields nothing until it ends.
func (c *Cluster) QueryIter(via core.PeerID, q Query) (*RangeIter, error) {
	if q.Plan == query.PlanSerial {
		return nil, errors.New("p2p: a serial walk cannot stream; use Query")
	}
	q.Pred.Normalize()
	q.Plan = query.PlanParallel
	_, entry := c.planRange(q)
	sink := &rangeSink{ch: make(chan iterBatch, sinkBuffer), cancel: make(chan struct{}), done: c.done}
	// The collector is built here so the sink and predicate travel with the
	// request; the coordinating peer seeds no collector of its own (see
	// handleRange). Its one pending unit is the coordinator's branch.
	req := q.request(q.Plan)
	req.coll = &collector{pred: q.Pred, sink: sink, pending: 1}
	if _, err := c.issue(via, entry, req); err != nil {
		return nil, err
	}
	return &RangeIter{sink: sink, limit: q.Pred.LimitOrZero()}, nil
}

// Next advances to the next item, blocking until one is available, and
// reports whether there is one. It returns false when the query is
// exhausted, the pushdown limit is reached, or the cluster stops — then
// Err reports how the query ended.
func (it *RangeIter) Next() bool {
	if it.done || it.closed {
		return false
	}
	if it.limit > 0 && it.yielded >= it.limit {
		// The limit is satisfied: cancel the remaining branches, their
		// work cannot be needed.
		it.done = true
		it.Close()
		return false
	}
	it.idx++
	for it.idx >= len(it.cur) {
		select {
		case b := <-it.sink.ch:
			if b.final {
				it.hops, it.err = b.hops, b.err
				it.done = true
				// A query a dropped connection ended early may still have
				// chunks in hand-over: nothing is left to wait for them.
				it.Close()
				return false
			}
			it.cur, it.idx = b.items, 0
		case <-it.sink.done:
			it.err = ErrStopped
			it.done = true
			return false
		}
	}
	it.yielded++
	return true
}

// Item returns the current item. Valid only after a Next that returned
// true.
func (it *RangeIter) Item() store.Item { return it.cur[it.idx] }

// Err returns how the query ended: nil for a complete answer, ErrOwnerDown
// when a segment's owner was dead (the yielded items are the partial
// answer), ErrStopped when the cluster shut down mid-iteration. Valid
// after Next returned false.
func (it *RangeIter) Err() error { return it.err }

// Hops returns the longest message chain across the scatter's branches,
// like Query's hop count. Valid after Next returned false with a complete
// answer.
func (it *RangeIter) Hops() int { return it.hops }

// Close cancels the iterator: producing branches stop scanning and
// delivering. Idempotent. Must be called when the iterator is abandoned
// before exhaustion; calling it after Next returned false is harmless.
func (it *RangeIter) Close() {
	if !it.closed {
		it.closed = true
		close(it.sink.cancel)
	}
}
