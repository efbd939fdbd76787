package core

import (
	"fmt"

	"baton/internal/keyspace"
	"baton/internal/stats"
	"baton/internal/store"
)

// SearchExact looks up the value stored under key, starting from the peer
// with ID via (the peer that issues the query). It implements the
// search_exact algorithm of Section IV-A: the query is forwarded through the
// sideways routing tables (halving the remaining distance at every hop, like
// Chord but on a line), dropping to a child or an adjacent node when no
// routing-table entry can make progress.
//
// It returns the value (if the key is stored anywhere), whether it was
// found, and the cost of the operation.
func (nw *Network) SearchExact(via PeerID, key keyspace.Key) ([]byte, bool, stats.OpCost, error) {
	start, err := nw.node(via)
	if err != nil {
		return nil, false, stats.OpCost{}, err
	}
	nw.beginOp(stats.OpSearchExact)
	owner, rerr := nw.routeToKey(start, key)
	if rerr != nil {
		cost := nw.endOp()
		return nil, false, cost, rerr
	}
	if !owner.alive {
		// The responsible peer is down and has not been repaired yet: the
		// item is unavailable (the paper does not replicate data).
		cost := nw.endOp()
		return nil, false, cost, nil
	}
	value, found := owner.data.Get(key)
	cost := nw.endOp()
	return value, found, cost, nil
}

// Owner returns the peer currently responsible for key, routing from via.
func (nw *Network) Owner(via PeerID, key keyspace.Key) (NodeInfo, stats.OpCost, error) {
	start, err := nw.node(via)
	if err != nil {
		return NodeInfo{}, stats.OpCost{}, err
	}
	nw.beginOp(stats.OpSearchExact)
	owner, rerr := nw.routeToKey(start, key)
	cost := nw.endOp()
	if rerr != nil {
		return NodeInfo{}, cost, rerr
	}
	return owner.info(), cost, nil
}

// routeToKey forwards a request from start to the peer whose range contains
// key, counting one message per hop. Failed peers on the path are routed
// around at the cost of one extra message per avoided peer (Section III-D).
func (nw *Network) routeToKey(start *Node, key keyspace.Key) (*Node, error) {
	n := start
	limit := nw.hopLimit() + 4*len(nw.failed)
	visited := map[PeerID]bool{start.id: true}
	for hops := 0; hops < limit; hops++ {
		nw.chargeIfInflight(n)
		if nw.ownsKey(n, key) {
			return n, nil
		}
		if nw.cfg.NoSidewaysRouting {
			// The multiway baseline asks its children one at a time whether
			// their subtree covers the key; each probe is a request/reply pair
			// on top of the forwarding message pickHop charges.
			nw.chargeMultiwayProbes(n, key)
		}
		next := nw.pickHop(n, key, nw.hopCandidates(n, key, &nw.walk), &nw.walk, visited, true)
		if next == nil {
			return nil, fmt.Errorf("routing key %d from peer %d: no route at %v: %w", key, start.id, n.pos, ErrHopLimit)
		}
		visited[next.id] = true
		n = next
	}
	return nil, fmt.Errorf("routing key %d from peer %d: %w", key, start.id, ErrHopLimit)
}

// ownsKey reports whether n is responsible for key. The leftmost peer is
// responsible for every key below the domain and the rightmost peer for
// every key above it, mirroring the paper's range-expansion rule for the
// extreme nodes.
func (nw *Network) ownsKey(n *Node, key keyspace.Key) bool {
	if n.nodeRange.Contains(key) {
		return true
	}
	if key < n.nodeRange.Lower && n.leftAdj == nil {
		return true
	}
	if key >= n.nodeRange.Upper && n.rightAdj == nil {
		return true
	}
	return false
}

// pickHop returns the node a search_exact request at n moves to next,
// taking the candidates in order: the first one whose range contains key,
// even when it is down (routing stops there and the caller reports the data
// unavailable rather than wandering), or else the first alive one. Peers
// the request has visited are passed over while any other candidate
// remains; when everything unvisited is down, the request retraces through
// a visited peer in the same fixed order rather than give up. With charge,
// every attempt costs one message and an attempt that hits a failed peer
// one more (fault-tolerant routing, Section III-D).
func (nw *Network) pickHop(n *Node, key keyspace.Key, cands []*Link, vb *viewBuf, visited map[PeerID]bool, charge bool) *Node {
	for _, allowVisited := range [2]bool{false, true} {
		for _, l := range cands {
			if l == nil || !allowVisited && visited[l.ID] {
				continue
			}
			c := vb.node(l)
			if charge {
				nw.send(c, stats.MsgSearchExact, catLocate)
			}
			if l.Owns(key) {
				return c
			}
			if !c.alive {
				// The sender discovers the address is unreachable and falls
				// back to the next alternative.
				if charge {
					nw.send(n, stats.MsgRedirect, catExtra)
				}
				continue
			}
			return c
		}
	}
	return nil
}

// RoutePath predicts the sequence of peers a search_exact query for key
// issued at via visits, starting with via itself and ending at the peer
// responsible for key. It makes routeToKey's choices (pickHop over the same
// candidates) but charges no messages and touches no statistics, so callers
// can compare a route observed on a live deployment hop-for-hop against the
// structure's expectation. On a network with failed peers the prediction is
// only one of the valid routes — live fail-over may race repairs — so it is
// most useful on a quiesced, fully-alive network, where the path is unique.
func (nw *Network) RoutePath(via PeerID, key keyspace.Key) ([]PeerID, error) {
	n, err := nw.node(via)
	if err != nil {
		return nil, err
	}
	path := []PeerID{n.id}
	visited := map[PeerID]bool{n.id: true}
	limit := nw.hopLimit() + 4*len(nw.failed)
	var vb viewBuf
	for hops := 0; hops < limit; hops++ {
		if nw.ownsKey(n, key) {
			return path, nil
		}
		next := nw.pickHop(n, key, nw.hopCandidates(n, key, &vb), &vb, visited, false)
		if next == nil {
			return nil, fmt.Errorf("predicting route for key %d from peer %d: no route at %v: %w", key, via, n.pos, ErrHopLimit)
		}
		visited[next.id] = true
		path = append(path, next.id)
		n = next
	}
	return nil, fmt.Errorf("predicting route for key %d from peer %d: %w", key, via, ErrHopLimit)
}

// hopCandidates lists n's forwarding candidates for key, best first, over
// n's view filled into vb: ForwardCandidates, or the multiway rule on a
// network without sideways links.
func (nw *Network) hopCandidates(n *Node, key keyspace.Key, vb *viewBuf) []*Link {
	v := vb.fill(n)
	if nw.cfg.NoSidewaysRouting {
		vb.cands = nw.multiwayCandidates(n, v, key, vb.cands[:0])
	} else {
		vb.cands = ForwardCandidates(v, n.nodeRange, key, vb.cands[:0])
	}
	return vb.cands
}

// clampToDomain maps out-of-domain keys to the nearest in-domain key, so the
// subtree-coverage tests below can treat the extreme peers' expanded
// responsibility (ownsKey) uniformly.
func (nw *Network) clampToDomain(key keyspace.Key) keyspace.Key {
	if key < nw.domain.Lower {
		return nw.domain.Lower
	}
	if key >= nw.domain.Upper {
		return nw.domain.Upper - 1
	}
	return key
}

// subtreeRange returns the contiguous key interval covered by the subtree
// rooted at n (the in-order contiguity invariant guarantees it has no holes).
func (nw *Network) subtreeRange(n *Node) keyspace.Range {
	lo := nw.positions[nw.minOfSubtree(n.pos)].nodeRange.Lower
	hi := nw.positions[nw.maxOfSubtree(n.pos)].nodeRange.Upper
	return keyspace.NewRange(lo, hi)
}

// multiwayCandidates is the no-sideways-links forwarding rule (Liau et al.)
// over n's view v: if n's subtree covers the key, descend into the unique
// child subtree that holds it; otherwise climb to the parent. Adjacent nodes
// and the remaining links follow as fault-tolerance fallbacks only.
func (nw *Network) multiwayCandidates(n *Node, v *View, key keyspace.Key, out []*Link) []*Link {
	k := nw.clampToDomain(key)
	if nw.subtreeRange(n).Contains(k) {
		for s, c := range n.children {
			if c != nil && nw.subtreeRange(c).Contains(k) {
				out = append(out, v.Children[s])
				break
			}
		}
	} else {
		out = append(out, v.Parent)
	}
	if key >= n.nodeRange.Upper {
		out = append(out, v.Adj[Right], v.Adj[Left])
	} else {
		out = append(out, v.Adj[Left], v.Adj[Right])
	}
	out = append(out, v.Children...)
	return append(out, v.Parent)
}

// chargeMultiwayProbes counts the child probes a multiway peer performs
// before forwarding: children are asked in slot order (one request and one
// reply each) until one reports that its subtree covers the key. Climbing
// hops probe nothing.
func (nw *Network) chargeMultiwayProbes(n *Node, key keyspace.Key) {
	k := nw.clampToDomain(key)
	if !nw.subtreeRange(n).Contains(k) {
		return
	}
	for s := 0; s < n.fanout; s++ {
		c := n.children[s]
		if c == nil {
			continue
		}
		nw.send(c, stats.MsgSearchExact, catLocate)
		nw.send(n, stats.MsgReply, catLocate)
		if nw.subtreeRange(c).Contains(k) {
			return
		}
	}
}

// RangeResult is the answer to a range query: the matching items and the
// peers that contributed them.
type RangeResult struct {
	Items []store.Item
	// Peers lists the IDs of the peers whose ranges intersected the query,
	// in key order.
	Peers []PeerID
}

// SearchRange answers a range query issued at peer via (Section IV-B): the
// query is routed to the first peer whose range intersects the query range
// (O(log N) messages) and then travels along adjacent links until the whole
// query range is covered (O(1) messages per additional peer).
func (nw *Network) SearchRange(via PeerID, r keyspace.Range) (RangeResult, stats.OpCost, error) {
	start, err := nw.node(via)
	if err != nil {
		return RangeResult{}, stats.OpCost{}, err
	}
	if r.IsEmpty() {
		return RangeResult{}, stats.OpCost{}, nil
	}
	nw.beginOp(stats.OpSearchRange)
	first, rerr := nw.routeToKey(start, r.Lower)
	if rerr != nil {
		cost := nw.endOp()
		return RangeResult{}, cost, rerr
	}
	var res RangeResult
	n := first
	limit := nw.Size() + 4
	for steps := 0; n != nil && steps < limit; steps++ {
		if n.nodeRange.Lower >= r.Upper {
			break
		}
		if n.alive && n.nodeRange.Intersects(r) {
			res.Items = n.data.ScanAppend(res.Items, r)
			res.Peers = append(res.Peers, n.id)
			// The contributing peer returns its partial answer.
			nw.send(start, stats.MsgReply, catOther)
		}
		next := n.rightAdj
		if next != nil {
			nw.send(next, stats.MsgSearchRange, catLocate)
			if !next.alive {
				// Route around the failed peer through the position map (in
				// a deployment: via the failed peer's parent and its child),
				// paying one extra message.
				nw.send(n, stats.MsgRedirect, catExtra)
				if succ, ok := nw.inOrderSuccessorPos(next.pos); ok {
					next = nw.positions[succ]
				} else {
					next = nil
				}
			}
		}
		n = next
	}
	cost := nw.endOp()
	return res, cost, nil
}

// Insert stores value under key, issuing the request at peer via. The
// request is routed with the exact-match algorithm to the responsible peer
// (Section IV-C). If automatic load balancing is configured and the insert
// overloads the responsible peer, a load-balancing operation is triggered
// and accounted separately (its cost is reported by LoadBalanceStats, not in
// the returned OpCost, mirroring how the paper reports Figures 8(c) and
// 8(g)).
func (nw *Network) Insert(via PeerID, key keyspace.Key, value []byte) (stats.OpCost, error) {
	start, err := nw.node(via)
	if err != nil {
		return stats.OpCost{}, err
	}
	nw.beginOp(stats.OpInsert)
	owner, rerr := nw.routeToKey(start, key)
	if rerr != nil {
		cost := nw.endOp()
		return cost, rerr
	}
	if !owner.alive {
		cost := nw.endOp()
		return cost, fmt.Errorf("inserting key %d: responsible peer %d: %w", key, owner.id, ErrPeerDown)
	}
	nw.expandExtremeRange(owner, key)
	owner.data.Put(key, value)
	cost := nw.endOp()

	if nw.cfg.LoadBalance.Enabled() {
		nw.maybeLoadBalance(owner)
	}
	return cost, nil
}

// Delete removes the value stored under key, issuing the request at peer
// via. It reports whether the key existed.
func (nw *Network) Delete(via PeerID, key keyspace.Key) (bool, stats.OpCost, error) {
	start, err := nw.node(via)
	if err != nil {
		return false, stats.OpCost{}, err
	}
	nw.beginOp(stats.OpDelete)
	owner, rerr := nw.routeToKey(start, key)
	if rerr != nil {
		cost := nw.endOp()
		return false, cost, rerr
	}
	if !owner.alive {
		cost := nw.endOp()
		return false, cost, nil
	}
	existed := owner.data.Delete(key)
	cost := nw.endOp()
	return existed, cost, nil
}

// expandExtremeRange grows the range of the leftmost or rightmost peer when
// an inserted key falls outside the current domain, notifying the peers that
// hold links to it (an extra O(log N) messages, as in Section IV-C).
func (nw *Network) expandExtremeRange(owner *Node, key keyspace.Key) {
	expanded := false
	if key < owner.nodeRange.Lower && owner.leftAdj == nil {
		owner.nodeRange.Lower = key
		nw.domain.Lower = key
		expanded = true
	}
	if key >= owner.nodeRange.Upper && owner.rightAdj == nil {
		owner.nodeRange.Upper = key + 1
		nw.domain.Upper = key + 1
		expanded = true
	}
	if !expanded {
		return
	}
	if !nw.cfg.NoSidewaysRouting {
		for _, side := range []Side{Left, Right} {
			for _, m := range owner.RoutingTable(side) {
				if m != nil {
					nw.send(m, stats.MsgExpandRange, catUpdate)
				}
			}
		}
	}
	if owner.parent != nil {
		nw.send(owner.parent, stats.MsgExpandRange, catUpdate)
	}
}
