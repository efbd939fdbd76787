package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"baton/internal/keyspace"
	"baton/internal/stats"
)

// Errors returned by Network operations.
var (
	// ErrUnknownPeer is returned when an operation names a peer that is not
	// part of the network.
	ErrUnknownPeer = errors.New("baton: unknown peer")
	// ErrPeerDown is returned when an operation is addressed to a failed
	// peer.
	ErrPeerDown = errors.New("baton: peer is down")
	// ErrEmptyNetwork is returned when an operation requires at least one
	// live peer.
	ErrEmptyNetwork = errors.New("baton: network is empty")
	// ErrLastPeer is returned when the only remaining peer tries to leave.
	ErrLastPeer = errors.New("baton: cannot remove the last peer")
	// ErrHopLimit is returned when a request was forwarded more times than
	// the protocol's O(log N) bound allows; it indicates either a corrupted
	// overlay or a bug and is surfaced rather than silently absorbed.
	ErrHopLimit = errors.New("baton: hop limit exceeded")
	// ErrNeedsReplacement is returned by LeaveWith when the departing peer
	// cannot leave by the safe-leaf protocol and a replacement leaf must be
	// found (Algorithm 2).
	ErrNeedsReplacement = errors.New("baton: departure needs a replacement leaf")
)

// Config configures a simulated BATON network.
type Config struct {
	// Domain is the key domain partitioned across peers. The zero value
	// means the paper's default [1, 10^9).
	Domain keyspace.Range
	// Fanout is the tree fanout m: each node has m child slots and sideways
	// routing tables at the BATON* distances j*m^i. The zero value means 2,
	// the binary protocol of the original paper (and m=2 reproduces it
	// exactly). NewNetwork panics on fanouts outside 2..MaxFanout.
	Fanout int
	// Seed seeds the network's deterministic random source (used for
	// choices the protocol leaves open, e.g. which adjacent node receives a
	// forwarded JOIN).
	Seed int64
	// NoSidewaysRouting disables the use (and message accounting) of the
	// sideways routing tables: queries climb towards the root until the
	// current subtree covers the key and then descend, probing children in
	// slot order, exactly like the multiway-tree baseline of Liau et al.
	// (DBISP2P 2004). This is the degenerate no-long-links case of BATON*
	// (package multiway wraps it); the tables are still maintained
	// internally so the structural audits hold, but they are never
	// consulted for routing and their maintenance messages are not charged.
	NoSidewaysRouting bool
	// LoadBalance configures the load balancing scheme of Section IV-D.
	// The zero value disables automatic load balancing.
	LoadBalance LoadBalanceConfig
}

// Network is an in-process simulation of a BATON overlay. It owns every peer,
// delivers protocol messages between them (counting each one), and exposes
// the operations of the paper: Join, Leave, Fail/Repair, Insert, Delete,
// SearchExact, SearchRange and LoadBalance.
//
// Operations are executed one at a time, exactly like the message-counting
// simulator used for the paper's evaluation; Network is not safe for
// concurrent use. The live, goroutine-per-peer implementation lives in
// package p2p.
type Network struct {
	cfg     Config
	domain  keyspace.Range
	fanout  int
	rng     *rand.Rand
	metrics *stats.Metrics
	load    *stats.LevelLoad

	nodes     map[PeerID]*Node
	positions map[Position]*Node
	root      *Node
	nextID    PeerID

	// failed holds peers that are down but whose failure has not been
	// repaired yet.
	failed map[PeerID]*Node

	// inflight marks peers whose routing information has not yet propagated
	// (used by the network-dynamics experiment, Figure 8i); messages routed
	// through them cost an extra redirect.
	inflight map[PeerID]bool

	// walk is the view scratch of the charged walks (routeToKey, join
	// locate), reused across operations; RoutePath keeps its own.
	walk viewBuf

	// curOp accumulates the cost of the operation in progress.
	curOp *stats.OpCost
	// curOpKind is the operation kind attributed to per-level access load.
	curOpKind stats.OpKind

	// lbStats accumulates load balancing measurements (Figures 8g and 8h).
	lbMessages   int64
	lbEvents     int64
	lbShiftSizes *stats.Histogram
}

// NewNetwork creates a network with a single peer (the root) owning the whole
// key domain.
func NewNetwork(cfg Config) *Network {
	domain := cfg.Domain
	if domain.IsEmpty() {
		domain = keyspace.FullDomain()
	}
	fanout := normFanout(cfg.Fanout)
	if !ValidFanout(fanout) {
		panic(fmt.Sprintf("core: invalid fanout %d (want 2..%d)", cfg.Fanout, MaxFanout))
	}
	nw := &Network{
		cfg:          cfg,
		domain:       domain,
		fanout:       fanout,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		metrics:      stats.NewMetrics(),
		load:         stats.NewLevelLoad(),
		nodes:        make(map[PeerID]*Node),
		positions:    make(map[Position]*Node),
		failed:       make(map[PeerID]*Node),
		inflight:     make(map[PeerID]bool),
		nextID:       1,
		lbShiftSizes: stats.NewHistogram(),
	}
	root := newNode(fanout, nw.allocID(), RootPosition, domain)
	nw.nodes[root.id] = root
	nw.positions[root.pos] = root
	nw.root = root
	return nw
}

func (nw *Network) allocID() PeerID {
	id := nw.nextID
	nw.nextID++
	return id
}

// Size returns the number of live peers in the network.
func (nw *Network) Size() int { return len(nw.nodes) }

// Root returns a snapshot of the peer currently occupying the root position.
func (nw *Network) Root() NodeInfo { return nw.root.info() }

// Domain returns the key domain managed by the network.
func (nw *Network) Domain() keyspace.Range { return nw.domain }

// Fanout returns the network's tree fanout m (2 for the paper's binary
// protocol).
func (nw *Network) Fanout() int { return nw.fanout }

// Metrics returns the network's message counters.
func (nw *Network) Metrics() *stats.Metrics { return nw.metrics }

// LevelLoad returns the per-level access load counters (Figure 8f).
func (nw *Network) LevelLoad() *stats.LevelLoad { return nw.load }

// Height returns the height of the tree: the number of levels that currently
// hold at least one peer.
func (nw *Network) Height() int {
	max := 0
	for p := range nw.positions {
		if p.Level > max {
			max = p.Level
		}
	}
	return max + 1
}

// Peer returns a snapshot of the peer with the given ID.
func (nw *Network) Peer(id PeerID) (NodeInfo, error) {
	n, ok := nw.nodes[id]
	if !ok {
		if f, down := nw.failed[id]; down {
			return f.info(), nil
		}
		return NodeInfo{}, fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	return n.info(), nil
}

// Peers returns snapshots of all live peers, ordered by their in-order
// position (i.e. by key range).
func (nw *Network) Peers() []NodeInfo {
	out := make([]NodeInfo, 0, len(nw.nodes))
	for _, n := range nw.inOrderNodes() {
		out = append(out, n.info())
	}
	return out
}

// PeerIDs returns the IDs of all live peers in no particular order.
func (nw *Network) PeerIDs() []PeerID {
	out := make([]PeerID, 0, len(nw.nodes))
	for id := range nw.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RandomPeer returns the ID of a uniformly random live peer. It is the usual
// entry point for operations in the experiments ("a node issues a query").
func (nw *Network) RandomPeer() PeerID {
	ids := nw.PeerIDs()
	if len(ids) == 0 {
		return NoPeer
	}
	return ids[nw.rng.Intn(len(ids))]
}

// PeerAtLevel returns the IDs of all live peers at the given tree level.
func (nw *Network) PeerAtLevel(level int) []PeerID {
	var out []PeerID
	for id, n := range nw.nodes {
		if n.pos.Level == level {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalItems returns the total number of data items stored across all live
// peers.
func (nw *Network) TotalItems() int {
	total := 0
	for _, n := range nw.nodes {
		total += n.data.Len()
	}
	return total
}

// node returns the live node for id.
func (nw *Network) node(id PeerID) (*Node, error) {
	n, ok := nw.nodes[id]
	if !ok {
		if _, down := nw.failed[id]; down {
			return nil, fmt.Errorf("%w: %d", ErrPeerDown, id)
		}
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	if !n.alive {
		return nil, fmt.Errorf("%w: %d", ErrPeerDown, id)
	}
	return n, nil
}

// inOrderNodes returns all live nodes sorted by in-order position.
func (nw *Network) inOrderNodes() []*Node {
	out := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos.InOrderBeforeIn(nw.fanout, out[j].pos) })
	return out
}

// --- message accounting ---------------------------------------------------

// beginOp starts accounting for a new user-level operation.
func (nw *Network) beginOp(kind stats.OpKind) {
	nw.curOp = &stats.OpCost{Kind: kind}
	nw.curOpKind = kind
}

// endOp finishes the current operation and records it in the metrics.
func (nw *Network) endOp() stats.OpCost {
	cost := *nw.curOp
	nw.metrics.RecordOp(cost)
	nw.curOp = nil
	return cost
}

// msgCategory attributes a message to one of the cost components of OpCost.
type msgCategory int

const (
	catLocate msgCategory = iota
	catUpdate
	catData
	catExtra
	catOther
)

// send accounts for one protocol message delivered to dst. src may be nil
// for messages originating outside the overlay (a new peer's initial JOIN).
func (nw *Network) send(dst *Node, t stats.MsgType, cat msgCategory) {
	nw.metrics.CountMessage(t)
	if dst != nil {
		dst.msgsHandled++
		nw.load.Record(nw.curOpKind, dst.pos.Level)
	}
	if nw.curOp == nil {
		return
	}
	nw.curOp.Messages++
	switch cat {
	case catLocate:
		nw.curOp.LocateMessages++
	case catUpdate:
		nw.curOp.UpdateMessages++
	case catData:
		nw.curOp.DataMessages++
	case catExtra:
		nw.curOp.ExtraMessages++
	case catOther:
		// Counted in the operation's total above; no per-component bucket.
	}
}

// hopLimit is the maximum number of forwarding steps any request may take.
// The protocol guarantees O(log N); the generous bound catches corruption.
// It is taken over the peer count rather than Height, which ranges over
// every position: every level down to the deepest holds a peer, so the
// count is never below the height, and reading it costs nothing per walk.
func (nw *Network) hopLimit() int {
	limit := 6*len(nw.positions) + 16
	if limit < 64 {
		limit = 64
	}
	return limit
}

// --- structural helpers on the position map --------------------------------

// subtreeHeight returns the height (number of levels) of the subtree rooted
// at position p, counting only occupied positions. An unoccupied position has
// height 0, a single occupied leaf has height 1.
func (nw *Network) subtreeHeight(p Position) int {
	if nw.positions[p] == nil {
		return 0
	}
	max := 0
	for s := 0; s < nw.fanout; s++ {
		if h := nw.subtreeHeight(p.ChildIn(nw.fanout, s)); h > max {
			max = h
		}
	}
	return max + 1
}

// isBalanced reports whether the occupied positions form a height-balanced
// m-ary tree (Definition 1 of the paper, generalised: at every node the
// heights of the m child subtrees pairwise differ by at most one).
func (nw *Network) isBalanced() bool {
	_, ok := nw.checkBalance(RootPosition)
	return ok
}

func (nw *Network) checkBalance(p Position) (height int, balanced bool) {
	if nw.positions[p] == nil {
		return 0, true
	}
	minH, maxH := -1, 0
	for s := 0; s < nw.fanout; s++ {
		h, ok := nw.checkBalance(p.ChildIn(nw.fanout, s))
		if !ok {
			return 0, false
		}
		if h > maxH {
			maxH = h
		}
		if minH < 0 || h < minH {
			minH = h
		}
	}
	if maxH-minH > 1 {
		return 0, false
	}
	return maxH + 1, true
}

// balancedWithChange reports whether the tree would remain height-balanced if
// the occupancy of the given positions were toggled: every position in added
// becomes occupied and every position in removed becomes free. The check is
// performed on the ancestors of the affected positions only.
func (nw *Network) balancedWithChange(added, removed []Position) bool {
	override := make(map[Position]int, len(added)+len(removed))
	for _, p := range added {
		override[p] = +1
	}
	for _, p := range removed {
		override[p] = -1
	}
	var balanced func(p Position) (int, bool)
	balanced = func(p Position) (int, bool) {
		occupied := nw.positions[p] != nil
		switch override[p] {
		case +1:
			occupied = true
		case -1:
			occupied = false
		}
		if !occupied {
			return 0, true
		}
		minH, maxH := -1, 0
		for s := 0; s < nw.fanout; s++ {
			h, ok := balanced(p.ChildIn(nw.fanout, s))
			if !ok {
				return 0, false
			}
			if h > maxH {
				maxH = h
			}
			if minH < 0 || h < minH {
				minH = h
			}
		}
		if maxH-minH > 1 {
			return 0, false
		}
		return maxH + 1, true
	}
	_, ok := balanced(RootPosition)
	return ok
}

// minOfSubtree returns the in-order minimum occupied position of the subtree
// rooted at occupied position q. The node itself comes after its first m-1
// child subtrees, so the minimum descends through the lowest occupied slot
// among 0..m-2 (for m=2 the left-child chain).
func (nw *Network) minOfSubtree(q Position) Position {
	m := nw.fanout
descend:
	for {
		for s := 0; s < m-1; s++ {
			if c := q.ChildIn(m, s); nw.positions[c] != nil {
				q = c
				continue descend
			}
		}
		return q
	}
}

// maxOfSubtree returns the in-order maximum occupied position of the subtree
// rooted at occupied position q: the node only precedes its last child
// subtree, so the maximum descends the slot m-1 chain (for m=2 the
// right-child chain).
func (nw *Network) maxOfSubtree(q Position) Position {
	m := nw.fanout
	for nw.positions[q.ChildIn(m, m-1)] != nil {
		q = q.ChildIn(m, m-1)
	}
	return q
}

// inOrderPredecessorPos returns the occupied position that immediately
// precedes p in the in-order traversal, and whether one exists.
func (nw *Network) inOrderPredecessorPos(p Position) (Position, bool) {
	m := nw.fanout
	// The node comes right after its first m-1 child subtrees: if any of
	// slots 0..m-2 is occupied, the predecessor is the maximum of the highest
	// such subtree (for m=2: the rightmost occupied position of the left
	// subtree).
	for s := m - 2; s >= 0; s-- {
		if c := p.ChildIn(m, s); nw.positions[c] != nil {
			return nw.maxOfSubtree(c), true
		}
	}
	// Otherwise walk up. At each step q sits in slot s of its parent: if s is
	// the last slot the parent itself immediately precedes q's subtree; if an
	// earlier sibling subtree is occupied its maximum does; otherwise nothing
	// in the parent's subtree precedes q and the climb continues.
	q := p
	for !q.IsRoot() {
		parent := q.ParentIn(m)
		s := q.SlotIn(m)
		if s == m-1 {
			if nw.positions[parent] != nil {
				return parent, true
			}
			// An unoccupied ancestor cannot happen in a valid BATON tree
			// (ancestors of occupied positions are always occupied), but be
			// defensive.
			q = parent
			continue
		}
		for t := s - 1; t >= 0; t-- {
			if c := parent.ChildIn(m, t); nw.positions[c] != nil {
				return nw.maxOfSubtree(c), true
			}
		}
		q = parent
	}
	return Position{}, false
}

// inOrderSuccessorPos returns the occupied position that immediately follows
// p in the in-order traversal, and whether one exists.
func (nw *Network) inOrderSuccessorPos(p Position) (Position, bool) {
	m := nw.fanout
	// Only the last child subtree follows the node itself.
	if c := p.ChildIn(m, m-1); nw.positions[c] != nil {
		return nw.minOfSubtree(c), true
	}
	// Walk up. At each step q sits in slot s of its parent: a later sibling
	// in slots s+1..m-2 comes next if occupied, then the parent itself; from
	// the last slot nothing in the parent's subtree follows q.
	q := p
	for !q.IsRoot() {
		parent := q.ParentIn(m)
		s := q.SlotIn(m)
		if s < m-1 {
			for t := s + 1; t < m-1; t++ {
				if c := parent.ChildIn(m, t); nw.positions[c] != nil {
					return nw.minOfSubtree(c), true
				}
			}
			if nw.positions[parent] != nil {
				return parent, true
			}
			q = parent
			continue
		}
		q = parent
	}
	return Position{}, false
}

// rebuildLinks recomputes every link of the node occupying position p from
// the position map: parent, children, adjacent nodes and both routing
// tables. It is used after restructuring and replacement, where a peer's
// position (and therefore its whole link set) changes.
func (nw *Network) rebuildLinks(n *Node) {
	m := nw.fanout
	p := n.pos
	if p.IsRoot() {
		n.parent = nil
	} else {
		n.parent = nw.positions[p.ParentIn(m)]
	}
	for s := 0; s < m; s++ {
		n.children[s] = nw.positions[p.ChildIn(m, s)]
	}
	if pred, ok := nw.inOrderPredecessorPos(p); ok {
		n.leftAdj = nw.positions[pred]
	} else {
		n.leftAdj = nil
	}
	if succ, ok := nw.inOrderSuccessorPos(p); ok {
		n.rightAdj = nw.positions[succ]
	} else {
		n.rightAdj = nil
	}
	n.resizeRoutingTables()
	for i := range n.leftRT {
		if q, ok := p.NeighbourIn(m, Left, RTDistance(m, i)); ok {
			n.leftRT[i] = nw.positions[q]
		}
	}
	for i := range n.rightRT {
		if q, ok := p.NeighbourIn(m, Right, RTDistance(m, i)); ok {
			n.rightRT[i] = nw.positions[q]
		}
	}
}

// affectedByPositions returns the set of live nodes whose link sets can refer
// to any of the given positions: the occupants themselves plus their
// parents, children, in-order neighbours and same-level 2^i neighbours.
func (nw *Network) affectedByPositions(positions []Position) map[PeerID]*Node {
	out := make(map[PeerID]*Node)
	add := func(n *Node) {
		if n != nil {
			out[n.id] = n
		}
	}
	m := nw.fanout
	for _, p := range positions {
		add(nw.positions[p])
		if !p.IsRoot() {
			add(nw.positions[p.ParentIn(m)])
		}
		for s := 0; s < m; s++ {
			add(nw.positions[p.ChildIn(m, s)])
		}
		if pred, ok := nw.inOrderPredecessorPos(p); ok {
			add(nw.positions[pred])
		}
		if succ, ok := nw.inOrderSuccessorPos(p); ok {
			add(nw.positions[succ])
		}
		for i := 0; i < RoutingTableSizeIn(m, p.Level); i++ {
			if q, ok := p.NeighbourIn(m, Left, RTDistance(m, i)); ok {
				add(nw.positions[q])
			}
			if q, ok := p.NeighbourIn(m, Right, RTDistance(m, i)); ok {
				add(nw.positions[q])
			}
		}
	}
	return out
}

// rebuildAffected rebuilds the links of every node whose links can refer to
// the given positions. It returns the number of nodes whose links were
// rebuilt (used for message accounting).
func (nw *Network) rebuildAffected(positions []Position) int {
	affected := nw.affectedByPositions(positions)
	for _, n := range affected {
		nw.rebuildLinks(n)
	}
	return len(affected)
}

// SetInflight marks or clears a peer as "in flight": its routing information
// has not yet propagated through the network, so requests that reach it or
// try to use it as a routing target pay an extra redirect message. The
// network-dynamics experiment (Figure 8i) uses this to model concurrent
// joins and leaves.
func (nw *Network) SetInflight(id PeerID, inflight bool) {
	if inflight {
		nw.inflight[id] = true
	} else {
		delete(nw.inflight, id)
	}
}

// ClearInflight clears all in-flight marks.
func (nw *Network) ClearInflight() {
	nw.inflight = make(map[PeerID]bool)
}

// chargeIfInflight counts an extra redirect message when the given node is
// currently marked in flight.
func (nw *Network) chargeIfInflight(n *Node) {
	if n != nil && nw.inflight[n.id] {
		nw.send(n, stats.MsgRedirect, catExtra)
	}
}
