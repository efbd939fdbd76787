package core

import (
	"fmt"

	"baton/internal/keyspace"
	"baton/internal/store"
)

// PeerID is the stable physical identity of a peer (the paper's "physical
// id", an IP address in a deployment). It never changes, while the peer's
// logical Position may change through replacement or restructuring.
type PeerID int64

// NoPeer is the zero PeerID, never assigned to a live peer.
const NoPeer PeerID = 0

// Node is one peer of the overlay together with the state the BATON protocol
// requires it to keep: its tree position, its key range and local data store,
// the parent / child / adjacent links and the two sideways routing tables.
// The node's link shape is fanout-parametric: m child slots and routing
// tables at the BATON* distances j*m^i; at the default fanout 2 this is
// exactly the binary protocol of the paper.
//
// Node values are owned by a Network and must only be manipulated through
// Network methods.
type Node struct {
	id     PeerID
	pos    Position
	fanout int

	parent *Node
	// children holds the fanout child slots in tree order; slot 0 is the
	// leftmost child and slot fanout-1 the rightmost.
	children []*Node
	leftAdj  *Node
	rightAdj *Node

	// leftRT[k] / rightRT[k] link to the node at the same level whose number
	// is smaller / greater by RTDistance(fanout, k), or nil when that
	// position is unoccupied ("an entry is still made in the routing table,
	// but marked as null").
	leftRT  []*Node
	rightRT []*Node

	nodeRange keyspace.Range
	data      *store.Store

	alive bool

	// msgsHandled counts every protocol message delivered to this peer; the
	// per-level access-load figure (8f) aggregates it.
	msgsHandled int64
}

func newNode(m int, id PeerID, pos Position, r keyspace.Range) *Node {
	n := &Node{
		id:        id,
		pos:       pos,
		fanout:    m,
		children:  make([]*Node, m),
		nodeRange: r,
		data:      store.New(),
		alive:     true,
	}
	n.resizeRoutingTables()
	return n
}

// resizeRoutingTables adjusts the routing table slices to the node's current
// level, preserving nothing (callers rebuild entries afterwards).
func (n *Node) resizeRoutingTables() {
	size := RoutingTableSizeIn(n.fanout, n.pos.Level)
	n.leftRT = make([]*Node, size)
	n.rightRT = make([]*Node, size)
}

// ID returns the peer's stable identity.
func (n *Node) ID() PeerID { return n.id }

// Position returns the peer's current tree position.
func (n *Node) Position() Position { return n.pos }

// Level returns the peer's current tree level.
func (n *Node) Level() int { return n.pos.Level }

// Range returns the key range the peer currently manages.
func (n *Node) Range() keyspace.Range { return n.nodeRange }

// DataCount returns the number of data items stored at the peer.
func (n *Node) DataCount() int { return n.data.Len() }

// Alive reports whether the peer is up. Failed peers remain in the Network's
// registry until their failure has been repaired.
func (n *Node) Alive() bool { return n.alive }

// MessagesHandled returns the number of protocol messages delivered to the
// peer since the network was created.
func (n *Node) MessagesHandled() int64 { return n.msgsHandled }

// IsLeaf reports whether the peer currently has no children.
func (n *Node) IsLeaf() bool {
	for _, c := range n.children {
		if c != nil {
			return false
		}
	}
	return true
}

// Parent returns the parent peer, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Child returns the child on the given side — the leftmost child slot for
// Left, the rightmost for Right — or nil.
func (n *Node) Child(side Side) *Node { return n.children[slotFor(n.fanout, side)] }

// ChildSlot returns the child in slot s (0-based), or nil.
func (n *Node) ChildSlot(s int) *Node { return n.children[s] }

// Fanout returns the node's tree fanout.
func (n *Node) Fanout() int { return n.fanout }

// Adjacent returns the in-order neighbouring peer on the given side, or nil
// at the ends of the in-order chain.
func (n *Node) Adjacent(side Side) *Node {
	if side == Left {
		return n.leftAdj
	}
	return n.rightAdj
}

// RoutingTable returns the sideways routing table for the given side. The
// returned slice is the node's live table; callers must not modify it.
func (n *Node) RoutingTable(side Side) []*Node {
	if side == Left {
		return n.leftRT
	}
	return n.rightRT
}

// hasFreeChildSlot reports whether any of the node's child slots is empty.
func (n *Node) hasFreeChildSlot() bool {
	for _, c := range n.children {
		if c == nil {
			return true
		}
	}
	return false
}

// freeChildSide returns the side on which a forced insert next to the node
// lands in a free slot: Left when the slot in-order immediately before the
// node can be free (the last leading slot, m-2, is empty), Right when only
// the last slot is empty. For fanout 2 this is "the left child side if the
// left child is free, else the right". ok is false when neither side has a
// free slot (a forced insert then restructures).
func (n *Node) freeChildSide() (Side, bool) {
	if n.children[n.fanout-2] == nil {
		return Left, true
	}
	if n.children[n.fanout-1] == nil {
		return Right, true
	}
	return Left, false
}

// setChild sets the child pointer in slot s.
func (n *Node) setChild(s int, c *Node) { n.children[s] = c }

// String renders a short description of the peer for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("peer %d at %s range %s (%d items)", n.id, n.pos, n.nodeRange, n.data.Len())
}

// NodeInfo is a read-only snapshot of a peer's public state, returned by
// Network accessors so callers outside the package cannot mutate live
// protocol state.
type NodeInfo struct {
	ID        PeerID
	Position  Position
	Range     keyspace.Range
	DataCount int
	IsLeaf    bool
	Alive     bool
	Messages  int64
}

// info builds a snapshot of the node.
func (n *Node) info() NodeInfo {
	return NodeInfo{
		ID:        n.id,
		Position:  n.pos,
		Range:     n.nodeRange,
		DataCount: n.data.Len(),
		IsLeaf:    n.IsLeaf(),
		Alive:     n.alive,
		Messages:  n.msgsHandled,
	}
}
