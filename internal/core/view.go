package core

import "baton/internal/keyspace"

// Link is what a peer holds about another peer: its identity and the key
// range it managed when the link was last refreshed. The paper's links carry
// the target's range so that a peer can route without asking.
type Link struct {
	ID    PeerID
	Lower keyspace.Key
	Upper keyspace.Key
}

// Owns reports whether the linked peer's range contains key.
func (l *Link) Owns(key keyspace.Key) bool { return l.Lower <= key && key < l.Upper }

// View is one peer's local view of the overlay: the links it holds, nil
// where a slot or table entry is empty. The per-peer rules of the protocol
// (ForwardCandidates, RoutingTablesFull, FreeChildSlot) are functions of a
// View alone, so the simulator and the live peers make the same decision
// from the same links.
type View struct {
	Parent *Link
	// Children holds the child slots in tree order: slot 0 is the leftmost
	// child, slot m-1 the rightmost. Its length is the fanout m.
	Children []*Link
	Adj      [2]*Link   // adjacent peers, indexed by Side
	RT       [2][]*Link // sideways routing tables, indexed by Side
}

// ForwardCandidates appends to out the links along which a peer whose range
// is self forwards a search_exact request for key (Section IV-A), best
// first, and returns the extended slice. For a key at or right of
// self.Upper the order is:
//
//  1. the right routing-table entries whose lower bound does not pass key,
//     farthest first;
//  2. the last child (the only child subtree right of the peer), then the
//     right adjacent peer;
//  3. as fault-tolerance fallbacks: the parent; the right entries that
//     overshoot key, farthest first; the other children from slot m-2 down
//     to 0; the left adjacent peer; the left routing table in entry order.
//
// For any other key (left of self or inside it) the order mirrors this:
// left entries whose upper bound exceeds key, farthest first; the children
// in slots m-2 down to 0 (all left of the peer, nearest first); the left
// adjacent peer; then the parent, the left entries with upper bound at or
// below key, the last child, the right adjacent peer and the right routing
// table. The filtered routing-table entries are never nil; the other links
// are appended as they are, nil for an empty slot or entry, and callers
// skip those. Callers back out with a stack array, so a hop allocates
// nothing.
func ForwardCandidates(v *View, self keyspace.Range, key keyspace.Key, out []*Link) []*Link {
	last := len(v.Children) - 1
	if key >= self.Upper {
		rt := v.RT[Right]
		for i := len(rt) - 1; i >= 0; i-- {
			if rt[i] != nil && rt[i].Lower <= key {
				out = append(out, rt[i])
			}
		}
		out = append(out, v.Children[last], v.Adj[Right], v.Parent)
		for i := len(rt) - 1; i >= 0; i-- {
			if rt[i] != nil && rt[i].Lower > key {
				out = append(out, rt[i])
			}
		}
		for s := last - 1; s >= 0; s-- {
			out = append(out, v.Children[s])
		}
		out = append(out, v.Adj[Left])
		return append(out, v.RT[Left]...)
	}
	rt := v.RT[Left]
	for i := len(rt) - 1; i >= 0; i-- {
		if rt[i] != nil && rt[i].Upper > key {
			out = append(out, rt[i])
		}
	}
	for s := last - 1; s >= 0; s-- {
		out = append(out, v.Children[s])
	}
	out = append(out, v.Adj[Left], v.Parent)
	for i := len(rt) - 1; i >= 0; i-- {
		if rt[i] != nil && rt[i].Upper <= key {
			out = append(out, rt[i])
		}
	}
	out = append(out, v.Children[last], v.Adj[Right])
	return append(out, v.RT[Right]...)
}

// RoutingTablesFull reports whether every routing-table entry that stands
// for a valid same-level position (within 1..m^level) holds a link, on both
// sides: the Full(RoutingTable) predicate of Algorithm 1 and Theorem 1. pos
// is the peer's own position. A link to a failed peer counts as filled: the
// peer stays part of the structure until its failure is repaired.
func (v *View) RoutingTablesFull(pos Position) bool {
	m := len(v.Children)
	for s, rt := range v.RT {
		for i, l := range rt {
			if l != nil {
				continue
			}
			if _, ok := pos.NeighbourIn(m, Side(s), RTDistance(m, i)); ok {
				return false
			}
		}
	}
	return true
}

// FreeChildSlot returns the lowest empty child slot (the leftmost, which at
// fanout 2 is the paper's "prefer the left child") and whether any slot is
// free.
func (v *View) FreeChildSlot() (int, bool) {
	for s, l := range v.Children {
		if l == nil {
			return s, true
		}
	}
	return 0, false
}

// viewBuf is the simulator's scratch for one node's View: the links it
// points into and the nodes they stand for, reused from hop to hop so a
// walk allocates its buffers once.
type viewBuf struct {
	view  View
	links []Link
	nodes []*Node // nodes[i] is the node links[i] stands for
	cands []*Link
}

// fill makes buf's View the view of n, each link carrying the linked node's
// current range, and returns it. It is valid until the next fill.
func (b *viewBuf) fill(n *Node) *View {
	if need := 3 + len(n.children) + len(n.leftRT) + len(n.rightRT); cap(b.links) < need {
		b.links = make([]Link, 0, need)
		b.nodes = make([]*Node, 0, need)
	}
	b.links, b.nodes = b.links[:0], b.nodes[:0]
	to := func(m *Node) *Link {
		if m == nil {
			return nil
		}
		b.links = append(b.links, Link{ID: m.id, Lower: m.nodeRange.Lower, Upper: m.nodeRange.Upper})
		b.nodes = append(b.nodes, m)
		return &b.links[len(b.links)-1]
	}
	v := &b.view
	v.Parent = to(n.parent)
	v.Children = v.Children[:0]
	for _, c := range n.children {
		v.Children = append(v.Children, to(c))
	}
	v.Adj = [2]*Link{to(n.leftAdj), to(n.rightAdj)}
	for s, rt := range [2][]*Node{n.leftRT, n.rightRT} {
		v.RT[s] = v.RT[s][:0]
		for _, m := range rt {
			v.RT[s] = append(v.RT[s], to(m))
		}
	}
	return v
}

// node maps a link of the current view back to the node it stands for.
func (b *viewBuf) node(l *Link) *Node {
	for i := range b.links {
		if &b.links[i] == l {
			return b.nodes[i]
		}
	}
	panic("core: link not in the current view")
}
