package core

import (
	"fmt"

	"baton/internal/stats"
)

// Join adds a new peer to the network. The new peer contacts the existing
// peer via (any peer it happens to know) and the JOIN request is forwarded
// according to Algorithm 1 of the paper until a node that may accept a child
// is found: a node whose two sideways routing tables are full and that has a
// free child slot (the Theorem 1 condition, which keeps the tree balanced).
//
// The accepting node and the new child split the key range of the child's
// in-order neighbour (its parent, in the binary protocol) and the
// surrounding routing state is updated. Join returns the new peer's ID and
// the cost of the operation; OpCost.LocateMessages is the Figure 8(a)
// quantity and OpCost.UpdateMessages the Figure 8(b) quantity.
func (nw *Network) Join(via PeerID) (PeerID, stats.OpCost, error) {
	start, err := nw.node(via)
	if err != nil {
		return NoPeer, stats.OpCost{}, err
	}
	nw.beginOp(stats.OpJoin)
	acceptor, slot, err := nw.locateJoinNode(start)
	if err != nil {
		nw.endOp()
		return NoPeer, stats.OpCost{}, err
	}
	child := nw.acceptChild(acceptor, slot)
	cost := nw.endOp()
	return child.id, cost, nil
}

// JoinAt adds a new peer as the child of a specific existing peer, on the
// given side: the leftmost child slot for Left, the rightmost for Right. At
// fanout 2 those are the only slots, so this is exactly the binary JoinAt.
func (nw *Network) JoinAt(parentID PeerID, side Side) (PeerID, stats.OpCost, error) {
	return nw.JoinAtSlot(parentID, slotFor(nw.fanout, side))
}

// JoinAtSlot adds a new peer in a specific child slot of a specific existing
// peer. It is the entry point used by the live cluster in package p2p, where
// Algorithm 1's locate phase runs as real messages between peer goroutines
// and only the acceptance — splitting the range, handing off the data,
// updating the surrounding routing state — is mirrored here. JoinAtSlot
// validates what Theorem 1 would guarantee for an acceptor found by the
// protocol itself: the child slot must be free and accepting the child must
// keep the tree height-balanced.
func (nw *Network) JoinAtSlot(parentID PeerID, slot int) (PeerID, stats.OpCost, error) {
	parent, err := nw.node(parentID)
	if err != nil {
		return NoPeer, stats.OpCost{}, err
	}
	if slot < 0 || slot >= nw.fanout {
		return NoPeer, stats.OpCost{}, fmt.Errorf("baton: child slot %d out of range for fanout %d", slot, nw.fanout)
	}
	if parent.ChildSlot(slot) != nil {
		return NoPeer, stats.OpCost{}, fmt.Errorf("baton: peer %d already has a child in slot %d", parentID, slot)
	}
	childPos := parent.pos.ChildIn(nw.fanout, slot)
	if !childPos.ValidIn(nw.fanout) {
		return NoPeer, stats.OpCost{}, fmt.Errorf("baton: child position %v of peer %d is invalid", childPos, parentID)
	}
	if !nw.balancedWithChange([]Position{childPos}, nil) {
		return NoPeer, stats.OpCost{}, fmt.Errorf("baton: accepting a child in slot %d at peer %d would unbalance the tree", slot, parentID)
	}
	nw.beginOp(stats.OpJoin)
	nw.send(parent, stats.MsgJoinRequest, catLocate)
	child := nw.acceptChild(parent, slot)
	cost := nw.endOp()
	return child.id, cost, nil
}

// locateJoinNode runs Algorithm 1 starting at start and returns the node
// that will accept the new peer together with the free child slot to use.
func (nw *Network) locateJoinNode(start *Node) (*Node, int, error) {
	n := start
	// The initial JOIN message from the new peer to its contact.
	nw.send(n, stats.MsgJoinRequest, catLocate)
	limit := nw.hopLimit()
	visited := make(map[PeerID]int)
	for hops := 0; hops < limit; hops++ {
		nw.chargeIfInflight(n)
		v := nw.walk.fill(n)
		full := v.RoutingTablesFull(n.pos)
		if slot, free := v.FreeChildSlot(); n.alive && free && full {
			return n, slot, nil
		}
		visited[n.id]++
		next := nw.joinForwardTarget(n, full, visited)
		if next == nil {
			// No outgoing link makes progress (can only happen in tiny or
			// corrupted networks); fall back to a direct scan, charging one
			// extra locate message per inspected peer as a pessimistic bound.
			return nw.joinFallback(n)
		}
		nw.send(next, stats.MsgJoinRequest, catLocate)
		n = next
	}
	return nil, 0, fmt.Errorf("locating join node starting at peer %d: %w", start.id, ErrHopLimit)
}

// joinForwardTarget applies the forwarding rules of Algorithm 1 at node n;
// full tells whether n's routing tables are full.
func (nw *Network) joinForwardTarget(n *Node, full bool, visited map[PeerID]int) *Node {
	// Rule 2: a node with an incomplete routing table forwards the request
	// to its parent (the parent of a missing neighbour can accept).
	if !full {
		if n.parent != nil && n.parent.alive && visited[n.parent.id] < 2 {
			return n.parent
		}
	}
	// Rule 3: look for a routing-table neighbour that does not have all its
	// children.
	var candidate *Node
	for _, side := range []Side{Left, Right} {
		for _, m := range n.RoutingTable(side) {
			if m == nil || !m.alive {
				continue
			}
			if m.hasFreeChildSlot() && visited[m.id] == 0 {
				candidate = m
				break
			}
		}
		if candidate != nil {
			break
		}
	}
	if candidate != nil {
		return candidate
	}
	// Rule 4: forward to one of the adjacent nodes.
	for _, adj := range []*Node{n.leftAdj, n.rightAdj} {
		if adj != nil && adj.alive && visited[adj.id] < 2 {
			return adj
		}
	}
	// Last resort within the protocol's spirit: climb towards the root.
	if n.parent != nil && n.parent.alive && visited[n.parent.id] < 4 {
		return n.parent
	}
	return nil
}

// joinFallback deterministically finds any node that can accept a child. It
// exists so a Join can never fail on a healthy network even if forwarding
// paints itself into a corner; each inspected node costs one message.
func (nw *Network) joinFallback(from *Node) (*Node, int, error) {
	for _, n := range nw.inOrderNodes() {
		if !n.alive {
			continue
		}
		v := nw.walk.fill(n)
		if slot, free := v.FreeChildSlot(); free && v.RoutingTablesFull(n.pos) {
			nw.send(n, stats.MsgJoinRequest, catLocate)
			return n, slot, nil
		}
	}
	// A balanced tree always has a node satisfying Theorem 1's acceptance
	// condition, so reaching this point means the overlay is corrupted.
	return nil, 0, fmt.Errorf("join fallback found no acceptor (network size %d): %w", nw.Size(), ErrHopLimit)
}

// acceptChild creates a new peer as the child of parent in the given slot,
// splits the range and data of the child's in-order neighbour with it, fixes
// the adjacent links and builds the routing tables of the new peer, counting
// every protocol message of Section III-A.
func (nw *Network) acceptChild(parent *Node, slot int) *Node {
	m := nw.fanout
	childPos := parent.pos.ChildIn(m, slot)
	child := newNode(m, nw.allocID(), childPos, parent.nodeRange)

	// The range donor is the new child's in-order neighbour: its successor
	// for slots 0..m-2 (the child takes the donor's lower half) and its
	// predecessor for the last slot (the child takes the upper half). In the
	// binary tree the donor is always the parent itself — slot 0's successor
	// and slot 1's predecessor — so at m=2 this is exactly the paper's
	// "parent splits its range with the new child".
	var donor *Node
	childBeforeDonor := slot < m-1
	if childBeforeDonor {
		if succ, ok := nw.inOrderSuccessorPos(childPos); ok {
			donor = nw.positions[succ]
		}
	} else {
		if pred, ok := nw.inOrderPredecessorPos(childPos); ok {
			donor = nw.positions[pred]
		}
	}
	if donor == nil {
		// Cannot happen in a valid tree: the parent always neighbours a fresh
		// child in at least one direction. Be defensive.
		donor = parent
	}

	nw.nodes[child.id] = child
	nw.positions[childPos] = child

	// Split the donor's range: the child receives the half on its own side of
	// the in-order chain, so the ordering of ranges is preserved. The
	// corresponding data items move with the range.
	nw.splitRangeWithChild(donor, child, childBeforeDonor)

	// Adjacent links (Section III-A): the new child slots into the in-order
	// chain immediately next to its donor.
	nw.spliceAdjacent(donor, child, childBeforeDonor)

	// Parent / child links.
	child.parent = parent
	parent.setChild(slot, child)

	// Routing tables: the parent contacts each of its routing-table
	// neighbours (2*L1 messages); each informs its relevant child about the
	// new node (2*L2 messages) and those children respond to the new node so
	// it can fill its own tables (2*L2 messages). The new node also notifies
	// one adjacent node. We perform the equivalent state changes directly on
	// the position map and count the messages the protocol would send.
	nw.buildChildRoutingTables(parent, child)

	return child
}

// splitRangeWithChild hands half of donor's range and data to child.
// childBeforeDonor tells which half the child receives: the lower half when
// it precedes the donor in the in-order chain, the upper half otherwise.
func (nw *Network) splitRangeWithChild(donor, child *Node, childBeforeDonor bool) {
	lower, upper, err := donor.nodeRange.SplitHalf()
	if err != nil {
		// The donor's range has become empty (possible after extreme
		// skew); the child starts with an empty range at the boundary.
		at := donor.nodeRange.Lower
		lower = donor.nodeRange
		upper = donor.nodeRange
		lower.Upper = at
		upper.Lower = at
	}
	if childBeforeDonor {
		child.nodeRange = lower
		donor.nodeRange = upper
	} else {
		child.nodeRange = upper
		donor.nodeRange = lower
	}
	moved := donor.data.ExtractRange(child.nodeRange)
	child.data.Absorb(moved)
	// One message transfers the data items and the range assignment.
	nw.send(child, stats.MsgTransferData, catData)
}

// spliceAdjacent inserts child into the in-order chain next to its donor.
func (nw *Network) spliceAdjacent(donor, child *Node, childBeforeDonor bool) {
	if childBeforeDonor {
		prev := donor.leftAdj
		child.leftAdj = prev
		child.rightAdj = donor
		donor.leftAdj = child
		if prev != nil {
			prev.rightAdj = child
			nw.send(prev, stats.MsgUpdateAdjacent, catUpdate)
		}
	} else {
		next := donor.rightAdj
		child.rightAdj = next
		child.leftAdj = donor
		donor.rightAdj = child
		if next != nil {
			next.leftAdj = child
			nw.send(next, stats.MsgUpdateAdjacent, catUpdate)
		}
	}
	// The new node notifies one of its adjacent nodes (the paper counts a
	// single message from the new node).
	nw.send(donor, stats.MsgUpdateAdjacent, catUpdate)
}

// buildChildRoutingTables fills the routing tables of the freshly accepted
// child and installs the reverse links at its same-level neighbours,
// counting the messages of the paper's join analysis.
func (nw *Network) buildChildRoutingTables(parent, child *Node) {
	m := nw.fanout
	// The parent contacts every non-null neighbour in its own tables. A
	// no-sideways network maintains the tables silently (they are structural
	// bookkeeping, not protocol links), so nothing is charged for them.
	charge := !nw.cfg.NoSidewaysRouting
	if charge {
		for _, side := range []Side{Left, Right} {
			for _, q := range parent.RoutingTable(side) {
				if q != nil {
					nw.send(q, stats.MsgNotifyNeighbour, catUpdate)
				}
			}
		}
	}
	// Fill the child's tables and the reverse entries. Every filled entry
	// corresponds to one "inform the relevant child" message and one
	// response to the new node.
	child.resizeRoutingTables()
	for i := range child.leftRT {
		if q, ok := child.pos.NeighbourIn(m, Left, RTDistance(m, i)); ok {
			if nb := nw.positions[q]; nb != nil {
				child.leftRT[i] = nb
				nw.setReverseRT(nb, child, Right)
				if charge {
					nw.send(nb, stats.MsgNotifyChild, catUpdate)
					nw.send(child, stats.MsgReply, catUpdate)
				}
			}
		}
	}
	for i := range child.rightRT {
		if q, ok := child.pos.NeighbourIn(m, Right, RTDistance(m, i)); ok {
			if nb := nw.positions[q]; nb != nil {
				child.rightRT[i] = nb
				nw.setReverseRT(nb, child, Left)
				if charge {
					nw.send(nb, stats.MsgNotifyChild, catUpdate)
					nw.send(child, stats.MsgReply, catUpdate)
				}
			}
		}
	}
}

// setReverseRT installs child into nb's routing table on the given side (nb
// gained a new same-level neighbour).
func (nw *Network) setReverseRT(nb, child *Node, side Side) {
	rt := nb.RoutingTable(side)
	for i := range rt {
		if q, ok := nb.pos.NeighbourIn(nw.fanout, side, RTDistance(nw.fanout, i)); ok && q == child.pos {
			rt[i] = child
			return
		}
	}
}
