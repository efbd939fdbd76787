package core

import (
	"fmt"
	"sort"

	"baton/internal/stats"
)

// Leave removes the peer with the given ID from the network gracefully
// (Section III-B of the paper).
//
// A leaf whose departure cannot unbalance the tree (no routing-table
// neighbour has children) transfers its content and range to its in-order
// neighbour (its parent, in the binary protocol) and leaves directly. Any
// other peer finds a replacement leaf by forwarding a FINDREPLACEMENT
// request (Algorithm 2); the replacement vacates its own position and takes
// over the leaving peer's position, range and content.
func (nw *Network) Leave(id PeerID) (stats.OpCost, error) {
	x, err := nw.node(id)
	if err != nil {
		return stats.OpCost{}, err
	}
	if nw.Size() == 1 {
		return stats.OpCost{}, ErrLastPeer
	}
	nw.beginOp(stats.OpLeave)
	if err := nw.depart(x, true); err != nil {
		nw.endOp()
		return stats.OpCost{}, err
	}
	return nw.endOp(), nil
}

// LeaveWith removes the peer with the given ID gracefully when the choice of
// replacement has already been made by the caller — the entry point used by
// the live cluster in package p2p, where Algorithm 2's replacement search
// runs as real messages between peer goroutines. A NoPeer replacement
// requests the safe-leaf protocol: it succeeds only when x is a leaf whose
// removal keeps the tree balanced, and fails with ErrNeedsReplacement
// otherwise. A concrete replacement must be a different live leaf whose own
// removal keeps the tree balanced; it vacates its position and takes over
// x's position, range and content. Validation happens before any mutation,
// so a failed LeaveWith leaves the network untouched and the caller can
// retry with a different replacement.
func (nw *Network) LeaveWith(id PeerID, replacement PeerID) (stats.OpCost, error) {
	return nw.leaveWith(id, replacement, true, stats.OpLeave)
}

// CrashLeaveWith removes the peer with the given ID after a crash: it is
// LeaveWith for a peer that is no longer there to cooperate. The structural
// side is identical — a NoPeer replacement requests the safe-leaf protocol,
// a concrete replacement leaf vacates its position and takes over the
// crashed peer's position and range — but the crashed peer's stored items
// are not transferred (they are gone with the process; the live cluster in
// package p2p restores them from the surviving replica instead), and the
// operation is accounted as a failure repair. Validation happens before any
// mutation, so a failed CrashLeaveWith leaves the network untouched and the
// caller can retry with a different replacement.
func (nw *Network) CrashLeaveWith(id PeerID, replacement PeerID) (stats.OpCost, error) {
	return nw.leaveWith(id, replacement, false, stats.OpFailure)
}

// leaveWith is the shared body of LeaveWith and CrashLeaveWith: withData
// tells whether the departing peer still hands over its items.
func (nw *Network) leaveWith(id, replacement PeerID, withData bool, kind stats.OpKind) (stats.OpCost, error) {
	x, err := nw.node(id)
	if err != nil {
		return stats.OpCost{}, err
	}
	if nw.Size() == 1 {
		return stats.OpCost{}, ErrLastPeer
	}
	if replacement == NoPeer {
		if !x.IsLeaf() || x.parent == nil {
			return stats.OpCost{}, fmt.Errorf("peer %d is not a removable leaf: %w", id, ErrNeedsReplacement)
		}
		if !nw.balancedWithChange(nil, []Position{x.pos}) {
			return stats.OpCost{}, fmt.Errorf("removing leaf %d would unbalance the tree: %w", id, ErrNeedsReplacement)
		}
		nw.beginOp(kind)
		nw.removeSafeLeaf(x, withData)
		return nw.endOp(), nil
	}
	y, err := nw.node(replacement)
	if err != nil {
		return stats.OpCost{}, err
	}
	if y == x || !y.IsLeaf() || y.parent == nil {
		return stats.OpCost{}, fmt.Errorf("baton: peer %d cannot replace peer %d", replacement, id)
	}
	if !nw.balancedWithChange(nil, []Position{y.pos}) {
		return stats.OpCost{}, fmt.Errorf("baton: vacating leaf %d would unbalance the tree", replacement)
	}
	nw.beginOp(kind)
	nw.replace(x, y, withData)
	return nw.endOp(), nil
}

// depart removes x from the network. withData indicates whether x is still
// able to hand over its stored items (false for abrupt failures, where the
// items are lost).
func (nw *Network) depart(x *Node, withData bool) error {
	if x.IsLeaf() && !nw.anyNeighbourHasChildren(x) {
		nw.removeSafeLeaf(x, withData)
		return nil
	}
	replacement, err := nw.findReplacement(x)
	if err != nil {
		return err
	}
	nw.replace(x, replacement, withData)
	return nil
}

// anyNeighbourHasChildren reports whether any node in x's routing tables has
// at least one child. If none has, x's departure cannot violate Theorem 1.
func (nw *Network) anyNeighbourHasChildren(x *Node) bool {
	for _, side := range []Side{Left, Right} {
		for _, m := range x.RoutingTable(side) {
			if m != nil && !m.IsLeaf() {
				return true
			}
		}
	}
	return false
}

// removeSafeLeaf removes a leaf whose departure keeps the tree balanced: its
// content and range are transferred to an in-order neighbour, adjacent links
// are re-spliced and routing-table entries pointing to it are cleared
// (2*L1 + 2*L2 + 2 messages in the paper's analysis).
//
// In the binary tree a leaf's parent is always one of its in-order
// neighbours, so at m=2 the absorber is the parent, exactly the paper's
// protocol. At larger fanouts a leaf in one of the middle child slots can
// have two deeper in-order neighbours; the absorber is then the parent if
// adjacent, else the right adjacent, else the left adjacent — the absorber's
// range is contiguous with the leaf's by construction.
func (nw *Network) removeSafeLeaf(x *Node, withData bool) {
	parent := x.parent
	if parent == nil {
		// x is the root and a leaf: the network would become empty; callers
		// guard against this (ErrLastPeer), so this indicates a logic error.
		panic("core: removing the last peer")
	}

	absorber := parent
	if x.leftAdj != parent && x.rightAdj != parent {
		if x.rightAdj != nil {
			absorber = x.rightAdj
		} else {
			absorber = x.leftAdj
		}
	}

	// Transfer content and range to the absorber.
	merged, err := absorber.nodeRange.Union(x.nodeRange)
	if err != nil {
		panic(fmt.Sprintf("core: leaf %v range %v not adjacent to absorber %v range %v", x.pos, x.nodeRange, absorber.pos, absorber.nodeRange))
	}
	absorber.nodeRange = merged
	if withData {
		absorber.data.Absorb(x.data.ExtractAll())
	}
	nw.send(absorber, stats.MsgTransferData, catData)

	// LEAVE messages to x's routing-table neighbours so they null their
	// entries pointing at x. A no-sideways network keeps the tables as
	// silent structural bookkeeping and charges nothing for them.
	for _, side := range []Side{Left, Right} {
		for _, m := range x.RoutingTable(side) {
			if m == nil {
				continue
			}
			nw.clearRTEntry(m, x)
			if !nw.cfg.NoSidewaysRouting {
				nw.send(m, stats.MsgLeaveRequest, catUpdate)
			}
		}
	}
	// The absorber notifies its own neighbours of its new content/children.
	if !nw.cfg.NoSidewaysRouting {
		for _, side := range []Side{Left, Right} {
			for _, m := range absorber.RoutingTable(side) {
				if m != nil {
					nw.send(m, stats.MsgNotifyNeighbour, catUpdate)
				}
			}
		}
	}

	// Re-splice the adjacent chain around x.
	if x.leftAdj != nil {
		x.leftAdj.rightAdj = x.rightAdj
		if x.leftAdj != absorber {
			nw.send(x.leftAdj, stats.MsgUpdateAdjacent, catUpdate)
		}
	}
	if x.rightAdj != nil {
		x.rightAdj.leftAdj = x.leftAdj
		if x.rightAdj != absorber {
			nw.send(x.rightAdj, stats.MsgUpdateAdjacent, catUpdate)
		}
	}
	nw.send(absorber, stats.MsgUpdateAdjacent, catUpdate)

	// Detach from the tree and the registries.
	parent.setChild(x.pos.SlotIn(nw.fanout), nil)
	delete(nw.positions, x.pos)
	delete(nw.nodes, x.id)
	delete(nw.failed, x.id)
	delete(nw.inflight, x.id)
	x.alive = false
}

// IsLeftChildOfParent reports whether the node occupies the leftmost child
// slot of its parent.
func (n *Node) IsLeftChildOfParent() bool {
	return !n.pos.IsRoot() && n.pos.SlotIn(n.fanout) == 0
}

// ReplacementStart returns the peer at which Algorithm 2's FINDREPLACEMENT
// walk for departing peer x begins, as the paper prescribes: a leaf starts
// at a child of its first routing-table neighbour that has children; any
// other peer starts at the deeper of its adjacent peers (which is a leaf or
// as deep as possible). It returns NoPeer when there is no such peer or x
// is unknown.
func (nw *Network) ReplacementStart(x PeerID) PeerID {
	n, ok := nw.nodes[x]
	if !ok {
		return NoPeer
	}
	if !n.IsLeaf() {
		la, ra := n.leftAdj, n.rightAdj
		switch {
		case la != nil && (ra == nil || la.pos.Level >= ra.pos.Level):
			return la.id
		case ra != nil:
			return ra.id
		}
		return NoPeer
	}
	for _, side := range []Side{Left, Right} {
		for _, m := range n.RoutingTable(side) {
			if m == nil || m.IsLeaf() {
				continue
			}
			for _, c := range m.children {
				if c != nil {
					return c.id
				}
			}
		}
	}
	return NoPeer
}

// findReplacement runs Algorithm 2: starting from a node near x, the request
// travels downwards (to a child, or to a child of a routing-table neighbour)
// until it reaches a leaf that has no children and none of whose neighbours
// have children. That leaf can vacate its position without unbalancing the
// tree and will take over x's position.
func (nw *Network) findReplacement(x *Node) (*Node, error) {
	start := nw.nodes[nw.ReplacementStart(x.id)]
	if start == nil {
		// No start point: the walk begins at x itself.
		start = x
	}
	if nw.cfg.NoSidewaysRouting {
		nw.chargeMultiwayReplacementWalk(x)
	}
	nw.send(start, stats.MsgFindReplacement, catLocate)

	n := start
	limit := nw.hopLimit()
	for hops := 0; hops < limit; hops++ {
		nw.chargeIfInflight(n)
		var next *Node
		for _, c := range n.children {
			if c != nil && c.alive {
				next = c
				break
			}
		}
		if next == nil {
			next = nw.childOfNeighbourWithChildren(n)
			if next == nil {
				if n == x || !n.alive || !n.IsLeaf() ||
					!nw.balancedWithChange(nil, []Position{n.pos}) {
					// Degenerate case: the walk ended at the departing peer
					// itself, at a peer that is down, at a peer that only has
					// failed children — or at a leaf whose removal would not
					// keep the tree balanced. The last one happens under
					// unrepaired failures: the walk only follows live peers,
					// but failed peers still occupy their positions for
					// balance purposes, so the live neighbourhood being flat
					// does not prove the leaf is safe to vacate. Pick a safe
					// live leaf deterministically instead.
					return nw.replacementFallback(x)
				}
				return n, nil
			}
		}
		nw.send(next, stats.MsgFindReplacement, catLocate)
		n = next
	}
	return nil, fmt.Errorf("finding replacement for peer %d: %w", x.id, ErrHopLimit)
}

// chargeMultiwayReplacementWalk charges the departure walk of the multiway
// baseline: without sideways links the departing peer cannot aim at a safe
// leaf directly, so it descends from its own position, asking every child for
// its subtree height (one request and one reply each) before following the
// deepest branch. Only the accounting differs from the sideways-assisted
// walk; tallest-first descent bottoms out at a deepest leaf of the subtree,
// the same class of balance-safe replacement Algorithm 2 picks.
func (nw *Network) chargeMultiwayReplacementWalk(x *Node) {
	n := x
	for {
		var deepest *Node
		for _, c := range n.children {
			if c == nil || !c.alive {
				continue
			}
			nw.send(c, stats.MsgChildInfoRequest, catLocate)
			nw.send(n, stats.MsgReply, catLocate)
			if deepest == nil || nw.subtreeHeight(c.pos) > nw.subtreeHeight(deepest.pos) {
				deepest = c
			}
		}
		if deepest == nil {
			return
		}
		nw.send(deepest, stats.MsgFindReplacement, catLocate)
		n = deepest
	}
}

// childOfNeighbourWithChildren returns a child of some routing-table
// neighbour of n that has children, or nil if every neighbour is a leaf.
func (nw *Network) childOfNeighbourWithChildren(n *Node) *Node {
	for _, side := range []Side{Left, Right} {
		for _, m := range n.RoutingTable(side) {
			if m == nil || m.IsLeaf() {
				continue
			}
			for _, c := range m.children {
				if c != nil && c.alive {
					return c
				}
			}
		}
	}
	return nil
}

// replacementFallback picks the deepest leaf whose removal keeps the tree
// balanced. It only runs in degenerate configurations where Algorithm 2
// terminated at the departing node itself.
func (nw *Network) replacementFallback(x *Node) (*Node, error) {
	leaves := nw.ReplacementLeaves(x.id, func(id PeerID) bool { return nw.nodes[id].alive })
	if len(leaves) == 0 {
		return nil, fmt.Errorf("no replacement leaf available for peer %d: %w", x.id, ErrHopLimit)
	}
	best := nw.nodes[leaves[0]]
	nw.send(best, stats.MsgFindReplacement, catLocate)
	return best, nil
}

// ReplacementLeaves lists the leaves that can replace departing peer x when
// Algorithm 2's walk does not yield one: every leaf other than x whose
// removal keeps the tree balanced and that viable accepts, deepest first and
// then by ID.
func (nw *Network) ReplacementLeaves(x PeerID, viable func(PeerID) bool) []PeerID {
	var leaves []*Node
	for _, n := range nw.nodes {
		if n.id == x || !n.IsLeaf() || !viable(n.id) || !nw.balancedWithChange(nil, []Position{n.pos}) {
			continue
		}
		leaves = append(leaves, n)
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].pos.Level != leaves[j].pos.Level {
			return leaves[i].pos.Level > leaves[j].pos.Level
		}
		return leaves[i].id < leaves[j].id
	})
	ids := make([]PeerID, len(leaves))
	for i, n := range leaves {
		ids[i] = n.id
	}
	return ids
}

// replace removes x from the network and installs y (a safe leaf found by
// Algorithm 2) at x's position, range and content. withData indicates
// whether x can still hand over its items.
func (nw *Network) replace(x, y *Node, withData bool) {
	// Stash x's items before anything moves: when x has failed (withData
	// false) they are lost, and when y happens to be a child of x the safe
	// departure below would deposit y's items into x's store.
	xItems := x.data.ExtractAll()
	if !withData {
		xItems = nil
	}

	// y first leaves its own position exactly like a safe leaf departure.
	nw.removeSafeLeaf(y, true)
	// Re-register y: removeSafeLeaf removed it from the registries.
	y.alive = true
	nw.nodes[y.id] = y

	// y takes over x's position, range and (if available) content.
	targetPos := x.pos
	y.pos = targetPos
	y.nodeRange = x.nodeRange
	// Recover any items the safe departure deposited at x (when y was a
	// neighbour of x), then take over x's own items if they are available.
	y.data.Absorb(x.data.ExtractAll())
	if len(xItems) > 0 {
		y.data.Absorb(xItems)
		nw.send(y, stats.MsgTransferData, catData)
	}

	// Remove x and install y in the registries.
	delete(nw.nodes, x.id)
	delete(nw.failed, x.id)
	delete(nw.inflight, x.id)
	x.alive = false
	nw.positions[targetPos] = y

	// Every node holding a link to x must be pointed at y instead: x's old
	// parent notifies its neighbours (2*L1 messages), y notifies its new
	// neighbours (2*L2), its children (2) and its adjacent nodes (2).
	nw.rebuildAffected([]Position{targetPos})
	if !targetPos.IsRoot() {
		if p := nw.positions[targetPos.ParentIn(nw.fanout)]; p != nil {
			for _, side := range []Side{Left, Right} {
				for _, m := range p.RoutingTable(side) {
					if m != nil {
						nw.send(m, stats.MsgNotifyReplace, catUpdate)
					}
				}
			}
		}
	}
	for _, side := range []Side{Left, Right} {
		for _, m := range y.RoutingTable(side) {
			if m != nil {
				nw.send(m, stats.MsgNotifyReplace, catUpdate)
			}
		}
	}
	for _, c := range y.children {
		if c != nil {
			nw.send(c, stats.MsgNotifyReplace, catUpdate)
		}
	}
	for _, a := range []*Node{y.leftAdj, y.rightAdj} {
		if a != nil {
			nw.send(a, stats.MsgNotifyReplace, catUpdate)
		}
	}
	if nw.root == x {
		nw.root = y
	}
}

// clearRTEntry nulls the routing-table entry of m that points at target.
func (nw *Network) clearRTEntry(m, target *Node) {
	for _, side := range []Side{Left, Right} {
		rt := m.RoutingTable(side)
		for i := range rt {
			if rt[i] == target {
				rt[i] = nil
			}
		}
	}
}

// Fail marks the peer as abruptly failed (Section III-C). The peer stays in
// the overlay's structure until RepairFailure is called — exactly the window
// during which other peers route around it using their sideways and adjacent
// links (Section III-D). Queries issued while the peer is down still succeed
// as long as the data they target is not stored on the failed peer.
func (nw *Network) Fail(id PeerID) error {
	n, err := nw.node(id)
	if err != nil {
		return err
	}
	if nw.Size()-len(nw.failed) <= 1 {
		return ErrLastPeer
	}
	n.alive = false
	nw.failed[id] = n
	return nil
}

// FailedPeers returns the IDs of peers that are down and not yet repaired,
// in ascending ID order so repair sweeps are deterministic.
func (nw *Network) FailedPeers() []PeerID {
	out := make([]PeerID, 0, len(nw.failed))
	for id := range nw.failed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RepairFailure repairs the failure of the given peer: its parent (or, for a
// failed root, one of its children) regenerates the failed peer's routing
// state by contacting the children of its own routing-table neighbours and
// then drives a graceful departure on its behalf. The failed peer's data
// items are lost (the paper does not replicate data); its key range is taken
// over by the peer that absorbs or replaces it.
func (nw *Network) RepairFailure(id PeerID) (stats.OpCost, error) {
	x, ok := nw.failed[id]
	if !ok {
		return stats.OpCost{}, fmt.Errorf("%w: peer %d has not failed", ErrUnknownPeer, id)
	}
	nw.beginOp(stats.OpFailure)

	// The coordinating peer is the parent, or a child when the root failed.
	coordinator := x.parent
	if coordinator == nil {
		for _, c := range x.children {
			if c != nil {
				coordinator = c
				break
			}
		}
	}
	if coordinator != nil {
		nw.send(coordinator, stats.MsgFailureRecovery, catLocate)
		// Regenerate x's routing tables by contacting the children of the
		// coordinator's routing-table neighbours: one request and one reply
		// per neighbour.
		for _, side := range []Side{Left, Right} {
			for _, m := range coordinator.RoutingTable(side) {
				if m != nil {
					nw.send(m, stats.MsgChildInfoRequest, catUpdate)
					nw.send(coordinator, stats.MsgReply, catUpdate)
				}
			}
		}
	}

	// Drive the graceful-departure protocol on behalf of x. Its data cannot
	// be recovered.
	delete(nw.failed, id)
	x.alive = true // structurally present for the departure procedure
	err := nw.depart(x, false)
	cost := nw.endOp()
	if err != nil {
		return cost, fmt.Errorf("repairing failed peer %d: %w", id, err)
	}
	return cost, nil
}
