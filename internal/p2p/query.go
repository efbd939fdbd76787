// The query layer: one read spec, Query, answered materialised
// (Cluster.Query) or a ring slot at a time (Cluster.QueryIter), with
// selectivity-aware planning and predicate pushdown.
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
// owner, falling back to via when it is dead or unknown. A (range bucket,
// epoch)-keyed query.Cache short-circuits the span estimate and the owner
// lookup for repeated ranges; every ownership publication bumps the epoch,
// which invalidates the cache implicitly. A stale cache entry — the bucket
// was shared, or ownership moved before the epoch bumped — costs forwarding
// hops (phase-1 routing re-aims the request), never correctness.
//
// QueryIter is Query pulled a page at a time: each page is the rest of the
// range up to the next slot's lower bound in the published ring, read when
// the consumer has used up the one before. Items arrive in key order, the
// iterator holds one covering peer's part at a time, and nothing is in
// flight between calls to Next.
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
// extreme-member rule of owns.
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
// every Query and every page of a QueryIter, whatever its plan —
// dispatched serially and in parallel, and plan-cache hits.
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

// RangeIter is a range query read one ring slot at a time. Use it like:
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
// Each time the current page is used up, Next reads the next one: a Query
// over the rest of the range up to the next slot's lower bound in the
// published ring, so a page costs what a one-peer Query costs — one
// directly routed message — and items arrive in key order. A membership
// change mid-iteration costs at most forwarding hops: a page is a key
// range, and a stale ring only mis-aims its entry. A page whose owner is
// dead is recorded as ErrOwnerDown and the iterator reads on past it, so
// the items beyond still arrive; any other error ends the iteration.
//
// A RangeIter is not safe for concurrent use. Nothing is in flight between
// calls to Next, so a consumer that stalls holds no peer, and Close is
// optional: it only stops further pages.
type RangeIter struct {
	c   *Cluster
	via core.PeerID
	// rest is the part of the query not yet paged: rest.Range.Lower is the
	// cursor, and an empty rest.Range ends the iteration.
	rest    Query
	cur     []store.Item
	idx     int
	yielded int
	hops    int
	err     error
}

// QueryIter starts q as an iterator that reads it one ring slot at a time;
// a positive Pred.Limit stops it after that many items. It sends nothing
// itself: the first Next reads the first page. PlanSerial is refused — a
// page is planned like any one-peer Query, so a serial walk is Query's.
func (c *Cluster) QueryIter(via core.PeerID, q Query) (*RangeIter, error) {
	if q.Plan == query.PlanSerial {
		return nil, errors.New("p2p: QueryIter reads a slot per page; a serial walk is Query's")
	}
	q.Pred.Normalize()
	return &RangeIter{c: c, via: via, rest: q}, nil
}

// Next advances to the next item, reading the next page when the current
// one is used up, and reports whether there is one. It returns false when
// the range is exhausted, the limit is reached, a page ended in an error
// other than ErrOwnerDown, or the iterator was closed — then Err reports
// how the query ended.
func (it *RangeIter) Next() bool {
	it.idx++
	for it.idx >= len(it.cur) {
		if lim := it.rest.Pred.LimitOrZero(); it.rest.Range.IsEmpty() || lim > 0 && it.yielded >= lim {
			return false
		}
		it.page()
	}
	it.yielded++
	return true
}

// page reads the next page: the rest of the range up to the next ring
// slot's lower bound, under a copy of the predicate whose limit is what is
// still owed (a branch of an earlier page may still read the old one).
func (it *RangeIter) page() {
	q := it.rest
	t := it.c.topo.Load()
	if i := t.entryIdx(q.Range.Lower); i >= 0 && i+1 < len(t.ring) {
		q.Range.Upper = min(q.Range.Upper, t.ring[i+1].lower)
	}
	if lim := q.Pred.LimitOrZero(); lim > 0 {
		pred := *q.Pred
		pred.Limit = lim - it.yielded
		q.Pred = &pred
	}
	items, hops, err := it.c.Query(it.via, q)
	it.cur, it.idx, it.hops = items, 0, max(it.hops, hops)
	it.rest.Range.Lower = q.Range.Upper
	switch {
	case err == nil:
	case errors.Is(err, ErrOwnerDown):
		if it.err == nil {
			it.err = err
		}
	default:
		it.err = err
		it.rest.Range.Upper = it.rest.Range.Lower
	}
}

// Item returns the current item. Valid only after a Next that returned
// true.
func (it *RangeIter) Item() store.Item { return it.cur[it.idx] }

// Err returns how the query ended: nil for a complete answer, ErrOwnerDown
// when a page's owner was dead (the yielded items are the partial answer),
// or the error that ended the iteration early — ErrStopped when the
// cluster shut down, ErrUnknownPeer for an unknown via. Valid after Next
// returned false.
func (it *RangeIter) Err() error { return it.err }

// Hops returns the longest message chain among the pages read, like
// Query's hop count.
func (it *RangeIter) Hops() int { return it.hops }

// Close stops the iterator: Next returns false from now on. Idempotent,
// and optional, since nothing is in flight between calls to Next.
func (it *RangeIter) Close() {
	it.rest.Range.Upper = it.rest.Range.Lower
	it.cur = nil
}
