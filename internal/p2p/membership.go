// Live membership: online join (Section III-A), graceful departure
// (Section III-B) and the adjacent-peer load-balance shuffle (Section V)
// for the running cluster.
//
// The protocol phases that are genuinely distributed — locating the accept
// node for a join, walking down to a replacement leaf for a departure —
// run as real messages between the peers, over each peer's own
// link state (membership.go's handlers). The resulting structural change is
// validated and applied on the cluster's data-less core.Network mirror, and
// handoff.go then pushes the delta back out to the live peers as messages.
package p2p

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/stats"
	"baton/internal/transport"
)

// peerState is the structural state a kindUpdate message installs at a
// peer: its position, range and full link set, all derived from the mirror.
type peerState struct {
	pos  core.Position
	rng  keyspace.Range
	view core.View
}

// handoffMove instructs a source peer to extract the items of region and
// send them to dst as one batched kindHandoff message; the receiving peer
// acknowledges on ack so the coordinator knows when the migration landed.
type handoffMove struct {
	region keyspace.Range
	dst    core.PeerID
	ack    chan response
	// Wire representation (wire.go / node.go): dstNode names the node
	// hosting dst — carried inside the move so a source peer on another
	// process can deliver the handoff before the topology broadcast that
	// names a freshly spawned destination reaches it — and ackCorr/ackNode
	// replace the ack channel when the kindUpdate crosses a process
	// boundary: the source acknowledges by wire-replying to that
	// correlation at the coordinator.
	dstNode transport.NodeID
	ackCorr uint64
	ackNode transport.NodeID
}

// Join adds a brand-new peer to the running cluster. The join request
// enters the overlay at peer via and is forwarded peer-to-peer following
// Algorithm 1 until a peer that may accept a child answers; that peer's
// range is split, the handed-off half's items migrate to the new peer as a
// batched data message, and every peer whose links change is updated.
// Get/Put/Delete/Range traffic keeps flowing throughout: requests for keys
// in mid-handoff are buffered at the new peer and answered as soon as the
// data lands. Join returns the new peer's ID.
func (c *Cluster) Join(via core.PeerID) (core.PeerID, error) {
	if err := c.requireCoordinator(); err != nil {
		return core.NoPeer, err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.journalBegin("join", core.NoPeer)
	id, err := c.joinLocked(via)
	c.journalSetPeer(id)
	c.journalEnd(err)
	return id, err
}

// joinLocked is the body of Join; the caller holds memberMu.
func (c *Cluster) joinLocked(via core.PeerID) (core.PeerID, error) {
	if c.stopped.Load() {
		return core.NoPeer, ErrStopped
	}
	t := c.topo.Load()
	if !t.members[via] {
		return core.NoPeer, fmt.Errorf("%w: %d", ErrUnknownPeer, via)
	}

	newID := core.NoPeer
	if acc, slot, err := c.locateJoin(via); err == nil {
		if id, _, err := c.mirror.JoinAtSlot(acc, slot); err == nil {
			newID = id
		}
	}
	if newID == core.NoPeer {
		// The message walk dead-ended (possible when kills have eaten the
		// links Algorithm 1 relies on): scan the structure for any viable
		// alive acceptor instead, the live counterpart of the simulator's
		// join fallback.
		for _, cand := range c.joinAcceptors() {
			if id, _, err := c.mirror.JoinAtSlot(cand.id, cand.slot); err == nil {
				newID = id
				break
			}
		}
	}
	if newID == core.NoPeer {
		return core.NoPeer, fmt.Errorf("p2p: no peer can accept a join: %w", ErrUnreachable)
	}
	if _, err := c.applyMirrorDiffLocked(nil); err != nil {
		return core.NoPeer, err
	}
	return newID, nil
}

// Depart removes the peer with the given ID gracefully: a safe leaf hands
// its range and items to its parent and leaves; any other peer finds a
// replacement leaf by walking FINDREPLACEMENT messages down the live tree
// (Algorithm 2), and the replacement vacates its own position, takes over
// the leaving peer's position and range, and receives its items. All data
// handoffs are batched messages acknowledged before Depart returns, so no
// acknowledged write is lost. The departed peer remains as a
// tombstone that forwards stragglers to the peer that absorbed its range.
func (c *Cluster) Depart(id core.PeerID) error {
	if err := c.requireCoordinator(); err != nil {
		return err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.journalBegin("depart", id)
	err := c.departLocked(id)
	c.journalEnd(err)
	return err
}

// departLocked is the body of Depart; the caller holds memberMu.
func (c *Cluster) departLocked(id core.PeerID) error {
	if c.stopped.Load() {
		return ErrStopped
	}
	t := c.topo.Load()
	if !t.members[id] {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	if !t.peers[id].alive.Load() {
		return fmt.Errorf("%w: cannot depart killed peer %d", ErrOwnerDown, id)
	}
	if len(t.ids) == 1 {
		return core.ErrLastPeer
	}
	done, err := c.leaveMirror(id, c.mirror.LeaveWith)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("p2p: no viable replacement leaf for peer %d: %w", id, ErrUnreachable)
	}
	_, err = c.applyMirrorDiffLocked(nil)
	return err
}

// leaveMirror removes departing peer id from the mirror with leave
// (LeaveWith for a graceful departure, CrashLeaveWith for a crash repair),
// trying three ways in turn: a safe-leaf departure, whose absorbing parent
// must be alive to receive the data; Algorithm 2's walk over live messages;
// then the mirror's deepest viable leaves. It reports whether one
// succeeded, or returns the mirror's ErrLastPeer, which no way avoids.
func (c *Cluster) leaveMirror(id core.PeerID, leave func(x, y core.PeerID) (stats.OpCost, error)) (bool, error) {
	ps := c.states[id]
	if !ps.HasChildren() && ps.Parent != core.NoPeer && c.Alive(ps.Parent) {
		_, err := leave(id, core.NoPeer)
		if err == nil {
			return true, nil
		}
		if errors.Is(err, core.ErrLastPeer) {
			return false, err
		}
	}
	viable := func(y core.PeerID) bool { return c.viableReplacement(id, y) }
	if y := c.locateReplacement(id); viable(y) {
		if _, err := leave(id, y); err == nil {
			return true, nil
		}
	}
	for _, y := range c.mirror.ReplacementLeaves(id, viable) {
		if _, err := leave(id, y); err == nil {
			return true, nil
		}
	}
	return false, nil
}

// LoadBalance performs the adjacent-peer data shuffle of Section V on
// behalf of the given peer: it measures the peer's and its adjacent peers'
// stored-item counts, and if the peer holds at least two more items than
// its lighter neighbour, moves the boundary between them so that about half
// the imbalance changes hands. It returns the number of items that moved
// (zero when the loads were already balanced, or when no key strictly
// inside the peer's range separates the two shares — the shuffle never
// leaves either side of the boundary with an empty range).
func (c *Cluster) LoadBalance(id core.PeerID) (int, error) {
	if err := c.requireCoordinator(); err != nil {
		return 0, err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return 0, ErrStopped
	}
	t := c.topo.Load()
	if !t.members[id] {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	if !t.peers[id].alive.Load() {
		return 0, fmt.Errorf("%w: %d", ErrOwnerDown, id)
	}
	return c.loadBalanceLocked(id)
}

// loadBalanceLocked is the body of LoadBalance; the caller holds memberMu
// and has validated that id is an alive member. It journals the shuffle —
// the balancer's BalanceOnce reaches the journal through here too.
func (c *Cluster) loadBalanceLocked(id core.PeerID) (int, error) {
	c.journalBegin("balance-shuffle", id)
	n, err := c.shuffleLocked(id)
	c.journalEnd(err)
	return n, err
}

// shuffleLocked measures the peer and its neighbours and performs the
// boundary shift; the caller holds memberMu.
func (c *Cluster) shuffleLocked(id core.PeerID) (int, error) {
	ps := c.states[id]
	cx, err := c.peerCountRetry(id)
	if err != nil {
		return 0, err
	}
	// Pick the lighter alive adjacent peer. A neighbour whose count probe
	// fails transiently is retried once (peerCountRetry) before it is
	// excluded — silently skipping it would shuffle towards the wrong side.
	bestSide, bestCount := core.Left, math.MaxInt
	for _, cand := range []struct {
		side core.Side
		id   core.PeerID
	}{{core.Left, ps.LeftAdjacent}, {core.Right, ps.RightAdjacent}} {
		if cand.id == core.NoPeer || !c.Alive(cand.id) {
			continue
		}
		ca, err := c.peerCountRetry(cand.id)
		if err != nil {
			continue
		}
		if ca < bestCount {
			bestSide, bestCount = cand.side, ca
		}
	}
	if bestCount == math.MaxInt {
		return 0, fmt.Errorf("p2p: peer %d has no alive adjacent peer to balance with: %w", id, ErrUnreachable)
	}
	shift := (cx - bestCount) / 2
	if shift < 1 {
		// Loads already balanced. (shift < 1 implies cx <= bestCount+1, so a
		// separate cx == 0 guard would be dead code.)
		return 0, nil
	}
	boundary, ok, err := c.peerSplitKey(id, shuffleFrac(cx, shift, bestSide))
	if err != nil {
		return 0, err
	}
	if !ok || !validShuffleBoundary(boundary, ps.Range) {
		// The local items cluster at the range edge (or lie outside the
		// domain, which the extreme peers store): no key strictly inside the
		// range separates the shares, and shifting to the edge would leave
		// one side with an empty range — reject rather than shuffle nothing.
		return 0, nil
	}
	if _, err := c.mirror.ShiftBoundary(id, bestSide, boundary); err != nil {
		return 0, err
	}
	return c.applyMirrorDiffLocked(nil)
}

// shuffleFrac returns the KeyAtFraction argument that selects the boundary
// item of the shuffle: for a right-hand shuffle the peer keeps its lowest
// cx-shift items, for a left-hand shuffle it gives away its lowest shift
// items, so the boundary is the item at index cx-shift resp. shift. The
// +0.5 centres the fraction inside that index's cell: a bare target/cx can
// round down across the float64 round-trip (int(float64(1)/3*3) == 0) and
// silently select the neighbouring index, shuffling one item too few — or,
// at index 0, nothing at all.
func shuffleFrac(cx, shift int, side core.Side) float64 {
	target := shift
	if side == core.Right {
		target = cx - shift
	}
	return (float64(target) + 0.5) / float64(cx)
}

// validShuffleBoundary reports whether the boundary key splits the range
// into two non-empty sides, the precondition of ShiftBoundary.
func validShuffleBoundary(boundary keyspace.Key, rng keyspace.Range) bool {
	return boundary > rng.Lower && boundary < rng.Upper
}

// --- live locate protocols -------------------------------------------------

// locateJoin routes a JOIN message into the overlay at via and returns the
// accepting peer and the free child slot it answered with.
func (c *Cluster) locateJoin(via core.PeerID) (core.PeerID, int, error) {
	resp, err := c.issue(via, nil, request{kind: kindJoinLocate})
	if err != nil {
		return core.NoPeer, 0, err
	}
	if resp.err != nil {
		return core.NoPeer, 0, resp.err
	}
	if resp.peerID == core.NoPeer || !c.Alive(resp.peerID) {
		return core.NoPeer, 0, ErrUnreachable
	}
	return resp.peerID, resp.slot, nil
}

// handleJoinLocate is Algorithm 1 at peer p: accept if both routing tables
// are full and a child slot is free (Theorem 1's condition), otherwise
// forward — to the parent when a routing table is incomplete, sideways to a
// routing-table neighbour, or to an adjacent peer.
func (c *Cluster) handleJoinLocate(p *peer, req *request) *peer {
	v := &p.view
	full := v.RoutingTablesFull(p.pos)
	if slot, free := v.FreeChildSlot(); free && full {
		c.respond(*req, response{peerID: p.id, slot: slot, hops: req.hops})
		return nil
	}
	req.visited.add(p.id)
	var cands []*core.Link
	if !full {
		// Rule 2: an incomplete routing table means the parent of a missing
		// neighbour can accept; climb.
		cands = append(cands, v.Parent)
	}
	// Rule 3: sideways to routing-table neighbours (each checks its own
	// child slots on receipt — links do not carry child occupancy).
	cands = append(cands, v.RT[core.Left]...)
	cands = append(cands, v.RT[core.Right]...)
	// Rule 4: the adjacent peers, then the parent as a last resort.
	cands = append(cands, v.Adj[core.Left], v.Adj[core.Right], v.Parent)
	for _, l := range cands {
		if l == nil || req.visited.has(l.ID) || !c.Alive(l.ID) {
			continue
		}
		if next, ok := c.handTo(l.ID, req); ok {
			return next
		}
	}
	c.refuse(p, *req, ErrUnreachable)
	return nil
}

// joinAcceptors scans the structural snapshot for alive peers that could
// accept a child, Theorem-1 acceptors first (both routing tables full),
// then any peer with a free slot as a desperation tier; within a tier,
// shallower peers first so the tree stays compact. The mirror re-validates
// balance for every candidate, so the ordering is a preference, not a
// correctness requirement.
func (c *Cluster) joinAcceptors() []struct {
	id   core.PeerID
	slot int
} {
	type cand struct {
		id    core.PeerID
		slot  int
		full  bool
		level int
	}
	var cands []cand
	for id, ps := range c.states {
		if !c.Alive(id) {
			continue
		}
		v := &buildState(ps, c.states).view
		slot, free := v.FreeChildSlot()
		if !free {
			continue
		}
		cands = append(cands, cand{id: id, slot: slot, full: v.RoutingTablesFull(ps.Position), level: ps.Position.Level})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].full != cands[j].full {
			return cands[i].full
		}
		if cands[i].level != cands[j].level {
			return cands[i].level < cands[j].level
		}
		return cands[i].id < cands[j].id
	})
	out := make([]struct {
		id   core.PeerID
		slot int
	}, len(cands))
	for i, cn := range cands {
		out[i].id, out[i].slot = cn.id, cn.slot
	}
	return out
}

// locateReplacement walks a FINDREPLACEMENT message down the live tree from
// the mirror's start point for departing peer x (Algorithm 2) and returns
// the leaf it ended at, or NoPeer when the walk dead-ended. Where the
// simulator starts at x itself for want of a start point, the live walk
// does not run at all: the coordinator goes on to the structure scan.
func (c *Cluster) locateReplacement(x core.PeerID) core.PeerID {
	start := c.mirror.ReplacementStart(x)
	if start == core.NoPeer || !c.Alive(start) {
		return core.NoPeer
	}
	resp, err := c.issue(start, nil, request{kind: kindFindReplacement})
	if err != nil || resp.err != nil {
		return core.NoPeer
	}
	return resp.peerID
}

// handleFindReplacement walks the request down to a leaf: descend into an
// alive child while one exists; a peer with no children at all is a
// candidate replacement; a peer whose children are all dead is a dead end
// (the coordinator falls back to a structure scan). A child in visited was
// refused on an earlier run here (walk marks it), so the walk moves on.
func (c *Cluster) handleFindReplacement(p *peer, req *request) *peer {
	found := p.id
	for _, l := range p.view.Children {
		if l == nil {
			continue
		}
		found = core.NoPeer
		if c.Alive(l.ID) && !req.visited.has(l.ID) {
			if next, ok := c.handTo(l.ID, req); ok {
				return next
			}
		}
	}
	c.respond(*req, response{peerID: found, hops: req.hops})
	return nil
}

// viableReplacement reports whether y can serve as the replacement for
// departing peer x from the live cluster's point of view: y must be an
// alive member, and the peer that will absorb y's vacated range — y's
// parent, unless that is x itself — must be alive to receive the data. The
// mirror separately validates the structural side (leaf, balance).
func (c *Cluster) viableReplacement(x, y core.PeerID) bool {
	if y == x || !c.Alive(y) {
		return false
	}
	ps, ok := c.states[y]
	if !ok {
		return false
	}
	return ps.Parent != core.NoPeer && (ps.Parent == x || c.Alive(ps.Parent))
}

// --- control-message helpers ----------------------------------------------

// control sends a request directly to the given peer (no routing) and waits
// for its reply.
func (c *Cluster) control(id core.PeerID, req request) (response, error) {
	req.reply = make(chan response, 1)
	if !c.sendAny(id, req) {
		if c.stopped.Load() {
			return response{}, ErrStopped
		}
		return response{}, fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	select {
	case resp := <-req.reply:
		if resp.err != nil {
			return resp, resp.err
		}
		return resp, nil
	case <-c.done:
		return response{}, ErrStopped
	}
}

// peerCount asks the peer for its stored-item count.
func (c *Cluster) peerCount(id core.PeerID) (int, error) {
	resp, err := c.control(id, request{kind: kindStats})
	if err != nil {
		return 0, err
	}
	return resp.count, nil
}

// peerCountRetry is peerCount with one retry: a count probe can fail
// transiently (the peer died and was repaired between the topology load and
// the delivery, or a tombstone was retired mid-send), and load-balancing
// decisions that silently exclude a peer on a transient error would shuffle
// data towards the wrong neighbour.
func (c *Cluster) peerCountRetry(id core.PeerID) (int, error) {
	n, err := c.peerCount(id)
	if err == nil || c.stopped.Load() {
		return n, err
	}
	return c.peerCount(id)
}

// peerSplitKey asks the peer for the key at the given fraction of its
// stored items in key order.
func (c *Cluster) peerSplitKey(id core.PeerID, frac float64) (keyspace.Key, bool, error) {
	resp, err := c.control(id, request{kind: kindSplitKey, frac: frac})
	if err != nil {
		return 0, false, err
	}
	return resp.splitKey, resp.found, nil
}
