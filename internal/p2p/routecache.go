// The direct-routing fast path: an epoch-validated client-side route cache
// over the overlay.
//
// Every published topology already carries the key-ordered ring the bulk
// operations group batches with (entryOf/ownerOf) — an authoritative snapshot
// of who owns what at publication time. RouteDirect puts that snapshot on the
// singleton Get/Put/Delete path too: the request is delivered straight to the
// cached owner, one message instead of the O(log N) per-hop chain of
// Algorithm search_exact, and is tagged with the snapshot's epoch. The epoch
// is bumped by every ownership publication (publishTopology), so a receiver
// can tell a current route from a stale one:
//
//   - Cache current: the receiver owns the key and serves it. One hop.
//   - Tag older than the live epoch (the sender routed with a ring that a
//     membership change has since replaced): the receiver counts the miss
//     (StaleRoutes), clears the tag and re-aims the request once at the
//     owner the current ring names — two hops instead of a per-hop walk.
//   - Tag current but the receiver still does not own the key (its range
//     moved under a publication still in flight): the ring that just missed
//     cannot help, so the cleared request falls back to classic per-hop
//     overlay forwarding. A key whose items are mid-handoff to the receiver
//     is briefly buffered and replayed instead. Correctness under churn is
//     exactly the overlay's.
//   - Cached owner dead or retired: the delivery fails at the sender, which
//     falls back to the overlay path and its usual fail-over rules.
//
// RouteOverlay remains the default: it is the paper-faithful path whose hop
// counts the experiments and the hop-count tests measure.
package p2p

import (
	"sync"

	"baton/internal/core"
)

// RouteMode selects how a Cluster routes singleton Get/Put/Delete requests.
type RouteMode int32

const (
	// RouteOverlay routes every request per-hop through the overlay's links,
	// exactly as Section IV of the paper describes. The default.
	RouteOverlay RouteMode = iota
	// RouteDirect sends singleton requests straight to the key's owner from
	// the epoch-validated route cache, falling back to overlay forwarding
	// when the cache is stale or the owner is down.
	RouteDirect
)

// String names the mode for reports and flags.
func (m RouteMode) String() string {
	if m == RouteDirect {
		return "direct"
	}
	return "overlay"
}

// SetRouteMode switches how singleton requests enter the overlay. Safe to
// call at any time, including with traffic in flight: requests already
// routed finish under the mode they started with.
func (c *Cluster) SetRouteMode(m RouteMode) { c.routeMode.Store(int32(m)) }

// RouteMode returns the cluster's current routing mode.
func (c *Cluster) RouteMode() RouteMode { return RouteMode(c.routeMode.Load()) }

// StaleRoutes returns how many direct-routed requests landed on a peer that
// no longer owned their key and fell back to overlay forwarding. Zero on a
// quiesced cluster; under churn it measures how much the route cache lags.
// The count lives in the per-peer metrics registry — each miss is
// attributed to the peer that detected it (Cluster.Metrics breaks it
// down) — and this is the back-compat sum over one topology snapshot,
// including the peers it has already retired, so it never goes backwards.
func (c *Cluster) StaleRoutes() int64 {
	t := c.topo.Load()
	total := t.retired.StaleRoutes()
	for _, p := range t.peers {
		total += p.met.StaleRoutes()
	}
	return total
}

// Epoch returns the current topology epoch: the number of ownership
// publications since the cluster started. Direct-routed requests are tagged
// with it so receivers can recognise stale routes.
func (c *Cluster) Epoch() uint64 { return c.topo.Load().epoch }

// route dispatches a singleton request according to the cluster's routing
// mode: under RouteDirect it enters at the key's owner under the current
// topology, tagged with that topology's epoch; otherwise, or when the ring
// has no entry, at via. It is also where sampled requests pick up their
// trace context: with sampling off the check is one atomic load and the
// request is untouched, which is what keeps the direct path
// allocation-free.
func (c *Cluster) route(via core.PeerID, req request) (response, error) {
	c.sampleTrace(&req)
	var entry *peer
	if RouteMode(c.routeMode.Load()) == RouteDirect {
		t := c.topo.Load()
		if e := t.entryOf(req.key); e != nil {
			entry, req.epoch = e.p, t.epoch
		}
	}
	resp, err := c.issue(via, entry, req)
	c.finishTrace(req)
	return resp, err
}

// replyPool recycles the buffered reply channels of the request path. A
// fresh channel per operation is the single allocation a routed request
// cannot otherwise avoid; pooling it makes the steady-state client side of
// Get/Put/Delete allocation-free.
var replyPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// getReply returns a clean reply channel. Channels are drained on reuse as
// defence in depth: the pool's invariant is that only channels whose single
// answer was consumed (or never sent) are returned to it.
func getReply() chan response {
	ch := replyPool.Get().(chan response)
	select {
	case <-ch:
	default:
	}
	return ch
}

// putReply returns a reply channel to the pool. Callers must not return a
// channel that may still receive an answer (a wait abandoned at Stop).
func putReply(ch chan response) { replyPool.Put(ch) }
