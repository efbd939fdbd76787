// Structural-delta application and data migration for live membership: the
// mirror (a data-less core.Network) is the authority for what the overlay
// should look like after a Join/Depart/LoadBalance, and applyMirrorDiffLocked
// pushes the difference out to the live peers as messages, migrating the
// affected items in batched handoffs without ever dropping a key.
package p2p

import (
	"fmt"
	"math"
	"sort"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/store"
)

// applyMirrorDiffLocked reconciles the live peers with the mirror after a
// structural operation. It compares the mirror's state against c.states
// (the snapshot from before the operation), derives which key regions moved
// between which peers, and orchestrates the change in phases:
//
//  1. New peers are spawned with their final state, already buffering
//     requests for the regions whose items are still in flight.
//  2. Existing peers that gain regions are prepared the same way — range,
//     links and pending regions — and acknowledge before any source stops
//     serving those keys, so there is never a moment when a key region has
//     no peer accepting (or buffering) its requests.
//  3. Source peers adopt their shrunk state, extract the moved items and
//     send them as one batched kindHandoff message per region straight to
//     the receiving peer; a peer that is leaving altogether becomes a
//     forwarding tombstone. A source listed in salvage has crashed — its
//     store is wiped — so the coordinator plays its part instead, sending
//     the salvaged replica items (the surviving copy recovery fetched from
//     the dead peer's holder) to each region's new owner.
//  4. Every other peer whose links changed receives its new link set, and
//     the coordinator waits until every handoff has been absorbed.
//  5. Peers whose place in the overlay changed re-ship their full item set
//     to their (possibly new) replica holder, so the replication invariant
//     — core.VerifyReplication — holds again when the operation returns.
//
// Only then is the new composition published to clients (ring, member IDs).
// The whole sequence runs under memberMu; data traffic flows throughout.
// It returns the number of items that migrated. An acknowledgement carrying
// an error does not stop the sequence (there is no rollback): the change
// is still published, and the first such error is returned at the end.
//
// The reconcile itself is O(total peers) per operation — full mirror
// snapshot, per-peer comparison, ring rebuild — though only the O(log N)
// affected peers receive messages. At the cluster sizes the benchmark and
// the tests run this is dwarfed by the data handoff; pushing membership throughput
// further means diffing only the region the mirror knows changed.
func (c *Cluster) applyMirrorDiffLocked(salvage map[core.PeerID][]store.Item) (int, error) {
	c.reapTombstones()
	nextList := core.Snapshot(c.mirror)
	next := snapshotMap(nextList)
	prev := c.states

	// Derive the data movements from the range delta: every region a peer
	// lost is now owned by exactly the peers whose new ranges cover it.
	type move struct {
		src, dst core.PeerID
		region   keyspace.Range
	}
	var moves []move
	gains := make(map[core.PeerID][]keyspace.Range)
	lose := func(src core.PeerID, region keyspace.Range) error {
		for !region.IsEmpty() {
			owner := core.NoPeer
			for id, ns := range next {
				if ns.Range.Contains(region.Lower) {
					owner = id
					break
				}
			}
			if owner == core.NoPeer {
				return fmt.Errorf("p2p: no peer owns region %v after the structural change", region)
			}
			part := region
			if up := next[owner].Range.Upper; up < part.Upper {
				part.Upper = up
			}
			w := c.widen(part)
			moves = append(moves, move{src: src, dst: owner, region: w})
			gains[owner] = append(gains[owner], w)
			region.Lower = part.Upper
		}
		return nil
	}
	for id, ps := range prev {
		ns, ok := next[id]
		if !ok {
			if err := lose(id, ps.Range); err != nil {
				return 0, err
			}
			continue
		}
		for _, r := range subtract(ps.Range, ns.Range) {
			if err := lose(id, r); err != nil {
				return 0, err
			}
		}
	}

	// Phase 1: spawn new peers, registered for delivery before any request
	// or handoff can be addressed to them.
	phaseStart := time.Now()
	base := c.topo.Load()
	var spawned, remoteSpawned []*peer
	for id, ns := range next {
		if _, existed := prev[id]; existed {
			continue
		}
		if c.spawnAt != 0 && c.net != nil {
			// A remote-requested join: the real peer will live on the
			// requesting node; here it is represented by a stub so every
			// later phase (updates, handoffs) addresses it as usual.
			p := newStub(id, c.spawnAt, c.fanout)
			p.rng = ns.Range
			p.alive.Store(true)
			remoteSpawned = append(remoteSpawned, p)
			continue
		}
		p := newPeer(id, c.fanout)
		p.installState(buildState(ns, next))
		p.pending = gains[id]
		p.alive.Store(true)
		spawned = append(spawned, p)
	}
	if len(spawned)+len(remoteSpawned) > 0 {
		nt := base.clone()
		for _, p := range spawned {
			nt.peers[p.id] = p
		}
		for _, p := range remoteSpawned {
			nt.peers[p.id] = p
		}
		c.topo.Store(nt)
		// Synchronous ctlSpawn after the stubs are registered: the hosting
		// node's peer is provably serving (buffering its pending regions)
		// before any handoff can be addressed to it.
		for _, p := range remoteSpawned {
			ns := next[p.id]
			if err := c.net.spawnRemote(c.spawnAt, p.id, buildState(ns, next), gains[p.id]); err != nil {
				return 0, err
			}
		}
	}

	// refused keeps the first error an acknowledgement carried: the
	// operation still runs to the end and publishes, then reports it.
	var refused error

	// Phase 2: prepare the existing absorbers. They must be buffering their
	// gained regions before any source stops serving those keys.
	sentState := make(map[core.PeerID]bool)
	var acks []chan response
	for id, gs := range gains {
		if _, existed := prev[id]; !existed {
			continue // new peers were configured at spawn
		}
		ch := make(chan response, 1)
		if !c.sendAny(id, request{kind: kindUpdate, state: buildState(next[id], next), gains: gs, reply: ch}) {
			return 0, ErrStopped
		}
		sentState[id] = true
		acks = append(acks, ch)
	}
	if err := c.waitAcks(acks, &refused); err != nil {
		return 0, err
	}
	acks = acks[:0]
	c.journalPhase("prepare", phaseStart)

	// Phase 3: the sources shrink, extract and hand off.
	phaseStart = time.Now()
	handoffAck := make(chan response, len(moves))
	srcMoves := make(map[core.PeerID][]handoffMove)
	for _, mv := range moves {
		srcMoves[mv.src] = append(srcMoves[mv.src], handoffMove{region: mv.region, dst: mv.dst, ack: handoffAck})
	}
	for id, mvs := range srcMoves {
		if items, crashed := salvage[id]; crashed {
			// The source has crashed: its store is wiped, so the coordinator
			// sends each region's surviving replica items itself, and the
			// dead peer is only told to become a forwarding tombstone (a
			// control update it handles even though it is dead).
			req := request{kind: kindUpdate, departTo: mvs[0].dst, reply: make(chan response, 1)}
			sentState[id] = true
			if !c.sendAny(id, req) {
				return 0, ErrStopped
			}
			acks = append(acks, req.reply)
			for _, mv := range mvs {
				restore := request{kind: kindHandoff, rng: mv.region, bulk: itemsWithin(items, mv.region), reply: mv.ack}
				if !c.sendAny(mv.dst, restore) {
					return 0, ErrStopped
				}
			}
			continue
		}
		req := request{kind: kindUpdate, moves: mvs, reply: make(chan response, 1)}
		if ns, ok := next[id]; ok {
			if !sentState[id] {
				req.state = buildState(ns, next)
				sentState[id] = true
			}
		} else {
			// The peer is leaving the overlay: everything it still receives
			// belongs to the peer that took over its range.
			req.departTo = mvs[0].dst
			sentState[id] = true
		}
		if !c.sendAny(id, req) {
			return 0, ErrStopped
		}
		acks = append(acks, req.reply)
	}
	if err := c.waitAcks(acks, &refused); err != nil {
		return 0, err
	}
	acks = acks[:0]
	c.journalPhase("extract", phaseStart)

	// Phase 4: new link sets for every other affected peer. Affected means
	// the link IDs changed, or — the paper's notifyRangeChange — a linked
	// peer's range changed: links cache the target's range bounds, and a
	// stale cached range would make forward()'s dead-owner refusal rule
	// misattribute a migrated key to a peer killed later.
	phaseStart = time.Now()
	rangeChanged := make(map[core.PeerID]bool)
	for id, ns := range next {
		if ps, ok := prev[id]; !ok || ps.Range != ns.Range {
			rangeChanged[id] = true
		}
	}
	for id, ns := range next {
		if sentState[id] {
			continue
		}
		prevSnap, existed := prev[id]
		if !existed || (statesEqual(prevSnap, ns) && !linksAny(ns, rangeChanged)) {
			continue
		}
		ch := make(chan response, 1)
		if !c.sendAny(id, request{kind: kindUpdate, state: buildState(ns, next), reply: ch}) {
			return 0, ErrStopped
		}
		acks = append(acks, ch)
	}
	if err := c.waitAcks(acks, &refused); err != nil {
		return 0, err
	}
	c.journalPhase("link-update", phaseStart)

	// Phase 5: wait for every handoff to be absorbed, so the operation is
	// fully settled — and the no-lost-write guarantee holds — by the time
	// the structural call returns.
	phaseStart = time.Now()
	migrated := 0
	for range moves {
		select {
		case resp := <-handoffAck:
			migrated += resp.count
			if refused == nil {
				refused = resp.err
			}
		case <-c.done:
			return migrated, ErrStopped
		}
	}
	c.journalPhase("handoff", phaseStart)
	c.journalMigrated(migrated)

	// Publish the new composition to clients, and queue freshly departed
	// peers for retirement at a later structural operation.
	t := c.topo.Load()
	for id := range prev {
		if _, ok := next[id]; !ok {
			tp := t.peers[id]
			c.tombstones = append(c.tombstones, tp)
			if tp != nil && tp.node != 0 {
				// A remotely hosted peer left the overlay: its real
				// tombstone forwards on the hosting node, but this stub
				// must accept deliveries from stale local routing state
				// too — up, like any tombstone, whatever killed it.
				tp.alive.Store(true)
			}
		}
	}
	c.states = next
	c.publishTopology(nextList)
	if c.net != nil {
		c.net.broadcastTopoLocked(c)
	}

	// Phase 6: re-seat the replicas. Every peer whose range or adjacent
	// links changed — the sole determinants of what its replica contains
	// and who holds it — re-ships its full item set to its current holder
	// (a wholesale sync, so stale keys from the old range disappear), and
	// holders of peers that left the overlay drop their sets. Peers whose
	// snapshot changed only in routing tables are skipped: their replica
	// placement and content are untouched, and re-shipping whole stores on
	// every sideways link update would make each membership operation pay
	// O(neighbourhood data) for nothing. Synchronous, like the handoffs:
	// when the structural call returns, the replication invariant holds
	// again.
	var resync []core.PeerID
	for _, ns := range nextList {
		ps, existed := prev[ns.ID]
		if !existed || ps.Range != ns.Range ||
			ps.LeftAdjacent != ns.LeftAdjacent || ps.RightAdjacent != ns.RightAdjacent {
			resync = append(resync, ns.ID)
		}
	}
	for id, ps := range prev {
		if _, ok := next[id]; ok {
			continue
		}
		if h := core.ReplicaHolderOf(ps); h != core.NoPeer {
			// Only a holder that is still a member: a tombstone would forward
			// the drop to its range absorber, deleting an unrelated set there.
			if _, stillMember := next[h]; stillMember {
				c.send(h, request{kind: kindReplicaDrop, src: id})
			}
		}
	}
	// A dead member cannot re-ship its replica. If this operation moved its
	// adjacent links (a shuffle, rejoin or restructuring next to the crash,
	// or the departure of its holder), the surviving copy of its items is
	// still at the old holder while a later Recover will look for it at the
	// new one — so the coordinator moves the set itself: fetch from the old
	// holder (a holder departing in this very operation answers from its
	// tombstone, which retains its replica sets), install at the new
	// holder, then drop the stale copy. Synchronous like the resyncs. The
	// migration only runs when the fetch succeeds: when the old holder is
	// dead too the data is already gone (the double-crash case), and
	// installing an empty set while dropping the original would turn a
	// retrievable copy into a lost one. The drop is only sent to a holder
	// that is still a member — a tombstone would forward it, and the
	// forwarding target can be the new holder itself, which must not
	// discard the set just installed; tombstone-held sets die at the reap.
	for _, ns := range nextList {
		ps, existed := prev[ns.ID]
		if !existed || c.Alive(ns.ID) {
			continue
		}
		oldHolder, newHolder := core.ReplicaHolderOf(ps), core.ReplicaHolderOf(ns)
		if oldHolder == newHolder || newHolder == core.NoPeer || !c.Alive(newHolder) {
			continue
		}
		var moved []store.Item
		fetched := false
		if oldHolder != core.NoPeer && c.Alive(oldHolder) {
			if resp, err := c.control(oldHolder, request{kind: kindReplicaFetch, src: ns.ID}); err == nil {
				moved, fetched = resp.items, true
			}
		}
		if !fetched {
			continue
		}
		ch := make(chan response, 1)
		if !c.send(newHolder, request{kind: kindReplicaSync, src: ns.ID, bulk: moved, reply: ch}) {
			continue
		}
		if err := c.waitAcks([]chan response{ch}, &refused); err != nil {
			return migrated, err
		}
		if _, stillMember := next[oldHolder]; stillMember {
			c.send(oldHolder, request{kind: kindReplicaDrop, src: ns.ID})
		}
	}
	if len(resync) > 0 {
		if err := c.resyncReplicas(resync); err != nil {
			return migrated, err
		}
	}
	if refused != nil {
		return migrated, fmt.Errorf("p2p: structural change published, but a peer refused its part: %w", refused)
	}
	return migrated, nil
}

// reapTombstones retires departed peers in two stages across structural
// operations (memberMu held throughout, so the stages are ordered): first a
// tombstone's gone flag is set, after which deliver refuses new sends to it
// — no live routing state references a tombstone, so only a client holding
// a very old topology snapshot can even try, and it fails over as for a
// dead peer. At a later operation, once the in-flight count has drained to
// zero (it can no longer grow) and nothing is queued or running there
// (busy is zero, so no drainer walks its queue), the peer is dropped from
// the delivery map. Without this, a long-lived cluster under steady churn
// would accumulate one peer object and queue per departure forever.
func (c *Cluster) reapTombstones() {
	if len(c.tombstones) == 0 {
		return
	}
	var keep, reaped []*peer
	for _, p := range c.tombstones {
		if !p.gone.Load() {
			p.gone.Store(true) // stage 1: stop accepting new deliveries
			keep = append(keep, p)
			continue
		}
		// stage 2. inflight is read first: a delivery counts itself in
		// busy before it leaves inflight, so busy read after a zero is
		// exact.
		if p.inflight.Load() != 0 || p.busy.Load() != 0 {
			keep = append(keep, p) // a delivery is still settling; next time
			continue
		}
		reaped = append(reaped, p)
	}
	c.tombstones = keep
	if len(reaped) == 0 {
		return
	}
	// The snapshot that drops the reaped peers carries a fresh retired
	// block with their counters folded in, so cluster totals (Messages,
	// StaleRoutes, Metrics) read from one snapshot count each of them
	// exactly once and never go backwards.
	old := c.topo.Load()
	nt := old.clone()
	nt.retired = obs.NewPeerMetrics(numKinds)
	nt.retired.Absorb(old.retired)
	for _, p := range reaped {
		nt.retired.Absorb(p.met)
		delete(nt.peers, p.id)
	}
	c.topo.Store(nt)
}

// waitAcks waits for one reply per channel, bailing out at cluster stop. A
// reply's error does not cut the wait short: the first one is stored in
// *first unless *first already holds one.
func (c *Cluster) waitAcks(chs []chan response, first *error) error {
	for _, ch := range chs {
		select {
		case resp := <-ch:
			if *first == nil {
				*first = resp.err
			}
		case <-c.done:
			return ErrStopped
		}
	}
	return nil
}

// publishTopology swaps in a new client-visible composition: member set,
// key-ordered ring and sorted ID list. The peers map is carried over — it
// already contains every member plus the tombstones and is never mutated
// after publication. The epoch bump invalidates every route-cache tag issued
// under the old composition (routecache.go).
func (c *Cluster) publishTopology(nextList []core.PeerSnapshot) {
	old := c.topo.Load()
	nt := old.clone()
	nt.epoch = old.epoch + 1
	nt.members = make(map[core.PeerID]bool, len(nextList))
	nt.ring = make([]ringEntry, 0, len(nextList))
	nt.ids = make([]core.PeerID, 0, len(nextList))
	for _, ps := range nextList {
		nt.members[ps.ID] = true
		nt.ring = append(nt.ring, ringEntry{id: ps.ID, lower: ps.Range.Lower, p: old.peers[ps.ID]})
		nt.ids = append(nt.ids, ps.ID)
	}
	sort.Slice(nt.ring, func(i, j int) bool { return nt.ring[i].lower < nt.ring[j].lower })
	sort.Slice(nt.ids, func(i, j int) bool { return nt.ids[i] < nt.ids[j] })
	if hc := 8 * (len(nextList) + 4); hc > nt.hopCap {
		nt.hopCap = hc
	}
	c.topo.Store(nt)
}

// widen stretches a migrating region that touches a domain edge out to the
// key type's limits: the extreme peers store keys outside the domain (the
// owns rule), and those items must migrate with the edge region
// instead of being stranded.
func (c *Cluster) widen(r keyspace.Range) keyspace.Range {
	if r.Lower == c.domain.Lower {
		r.Lower = keyspace.Key(math.MinInt64)
	}
	if r.Upper == c.domain.Upper {
		r.Upper = keyspace.Key(math.MaxInt64)
	}
	return r
}

// subtract returns the parts of r not covered by s (zero, one or two
// ranges).
func subtract(r, s keyspace.Range) []keyspace.Range {
	if r.IsEmpty() {
		return nil
	}
	if !r.Intersects(s) {
		return []keyspace.Range{r}
	}
	var out []keyspace.Range
	if r.Lower < s.Lower {
		out = append(out, keyspace.Range{Lower: r.Lower, Upper: s.Lower})
	}
	if s.Upper < r.Upper {
		out = append(out, keyspace.Range{Lower: s.Upper, Upper: r.Upper})
	}
	return out
}

// buildState assembles the peerState a kindUpdate installs, resolving every
// link against the post-operation structure.
func buildState(ns core.PeerSnapshot, next map[core.PeerID]core.PeerSnapshot) *peerState {
	tl := func(id core.PeerID) *core.Link {
		t, ok := next[id]
		if id == core.NoPeer || !ok {
			return nil
		}
		return &core.Link{ID: id, Lower: t.Range.Lower, Upper: t.Range.Upper}
	}
	st := &peerState{pos: ns.Position, rng: ns.Range}
	v := &st.view
	v.Parent = tl(ns.Parent)
	for _, id := range ns.ChildSlots() {
		v.Children = append(v.Children, tl(id))
	}
	v.Adj = [2]*core.Link{tl(ns.LeftAdjacent), tl(ns.RightAdjacent)}
	for s, ids := range [2][]core.PeerID{ns.LeftRouting, ns.RightRouting} {
		for _, id := range ids {
			v.RT[s] = append(v.RT[s], tl(id))
		}
	}
	return st
}

// installState adopts a peerState; called either at spawn (before the peer
// is published) or under the peer's token (applyUpdate).
func (p *peer) installState(st *peerState) { p.peerState = *st }

// linksAny reports whether the snapshot links to any of the given peers.
func linksAny(ns core.PeerSnapshot, ids map[core.PeerID]bool) bool {
	if ids[ns.Parent] || ids[ns.LeftAdjacent] || ids[ns.RightAdjacent] {
		return true
	}
	for _, id := range ns.ChildSlots() {
		if ids[id] {
			return true
		}
	}
	for _, id := range ns.LeftRouting {
		if ids[id] {
			return true
		}
	}
	for _, id := range ns.RightRouting {
		if ids[id] {
			return true
		}
	}
	return false
}

// statesEqual reports whether two structural snapshots describe the same
// position, range and link set (items are irrelevant here).
func statesEqual(a, b core.PeerSnapshot) bool {
	if a.Position != b.Position || a.Range != b.Range ||
		a.Parent != b.Parent || a.LeftChild != b.LeftChild || a.RightChild != b.RightChild ||
		a.LeftAdjacent != b.LeftAdjacent || a.RightAdjacent != b.RightAdjacent {
		return false
	}
	if len(a.MidChildren) != len(b.MidChildren) {
		return false
	}
	for i := range a.MidChildren {
		if a.MidChildren[i] != b.MidChildren[i] {
			return false
		}
	}
	if len(a.LeftRouting) != len(b.LeftRouting) || len(a.RightRouting) != len(b.RightRouting) {
		return false
	}
	for i := range a.LeftRouting {
		if a.LeftRouting[i] != b.LeftRouting[i] {
			return false
		}
	}
	for i := range a.RightRouting {
		if a.RightRouting[i] != b.RightRouting[i] {
			return false
		}
	}
	return true
}

// applyUpdate runs under the peer's token and executes one kindUpdate:
// adopt the new structural state, start buffering gained regions, extract
// and hand off moved regions, and/or become a forwarding tombstone.
func (c *Cluster) applyUpdate(p *peer, req request) {
	if req.state != nil {
		p.installState(req.state)
	}
	p.pending = append(p.pending, req.gains...)
	if len(req.moves) > 0 {
		for _, mv := range req.moves {
			items := p.data.ExtractRange(mv.region)
			h := request{kind: kindHandoff, rng: mv.region, bulk: items, reply: mv.ack}
			if mv.ack == nil && mv.ackCorr != 0 {
				// The update crossed the wire: the destination acknowledges
				// to the coordinator's correlation instead of a channel.
				h.rcorr, h.rnode = mv.ackCorr, mv.ackNode
			}
			if !c.sendAny(mv.dst, h) && c.net != nil && h.rcorr != 0 &&
				!c.net.sendRequestTo(mv.dstNode, mv.dst, h, true) {
				// A freshly spawned destination on another node may not be
				// in this node's stub table yet — the coordinator named its
				// hosting node in the move for exactly this case. If that
				// also fails, answer the coordinator's ack so the structural
				// operation observes the failure instead of hanging.
				c.net.replyWire(h.rnode, h.rcorr, response{err: ErrOwnerDown})
			}
		}
		p.noteItems()
	}
	if req.departTo != core.NoPeer {
		p.departed = true
		p.departTo = req.departTo
		// A tombstone only forwards, so it is "up" again whatever happened
		// to it before: a crashed peer that recovery just repaired out of
		// the overlay must accept deliveries from stale routing state and
		// pass them to its successor, not bounce them off the dead flag.
		p.alive.Store(true)
	}
	c.respond(req, response{hops: req.hops})
	// Shrinking the range may strand held requests this peer no longer
	// owns; replay them so they are forwarded to the new owner.
	c.replayHeld(p)
}

// applyHandoff runs under the peer's token: absorb the migrated items,
// retire the matching pending region, acknowledge to the coordinator and
// replay everything that was buffered while the region was in flight.
func (c *Cluster) applyHandoff(p *peer, req request) {
	if p.departed {
		// A tombstone can still be the recorded destination if it departed
		// in a later operation while this handoff was in flight; pass the
		// items (and the coordinator's ack) along to its successor.
		if !c.send(p.departTo, req) {
			c.refuse(p, req, ErrOwnerDown)
		}
		return
	}
	p.data.Absorb(req.bulk)
	p.noteItems()
	// The absorbed items are new local writes as far as replication is
	// concerned: ship the delta to the holder (the synchronous phase-6
	// resync of the coordinating operation makes it exact afterwards).
	c.replicateWrite(p, req.bulk, nil)
	for i, r := range p.pending {
		if r == req.rng {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			break
		}
	}
	c.respond(req, response{count: len(req.bulk), hops: req.hops})
	c.replayHeld(p)
}

// replayHeld re-handles every buffered request; those still touching a
// pending region are buffered again by handle. Replays are walked on under
// p's token; one whose next hop died is queued back at p, which re-chooses.
func (c *Cluster) replayHeld(p *peer) {
	held := p.held
	p.held = nil
	for i := range held {
		c.walk(p, c.handle(p, &held[i]), &held[i])
	}
}

// snapshot exports the peer's protocol state; runs under the peer's token.
func (p *peer) snapshot() *core.PeerSnapshot {
	linkID := func(l *core.Link) core.PeerID {
		if l == nil {
			return core.NoPeer
		}
		return l.ID
	}
	v := &p.view
	last := len(v.Children) - 1
	ps := &core.PeerSnapshot{
		ID:            p.id,
		Position:      p.pos,
		Range:         p.rng,
		Items:         p.data.Items(),
		Parent:        linkID(v.Parent),
		LeftChild:     linkID(v.Children[0]),
		RightChild:    linkID(v.Children[last]),
		LeftAdjacent:  linkID(v.Adj[core.Left]),
		RightAdjacent: linkID(v.Adj[core.Right]),
	}
	for s := 1; s < last; s++ {
		ps.MidChildren = append(ps.MidChildren, linkID(v.Children[s]))
	}
	for _, l := range v.RT[core.Left] {
		ps.LeftRouting = append(ps.LeftRouting, linkID(l))
	}
	for _, l := range v.RT[core.Right] {
		ps.RightRouting = append(ps.RightRouting, linkID(l))
	}
	return ps
}

// Snapshot exports the protocol state of every member peer — positions,
// ranges, items and the full link sets, killed members included — as the
// same snapshot format the simulator produces, so the live structure can be
// audited with core.VerifySnapshot (or rebuilt into a core.Network with
// core.FromSnapshot). Snapshot holds the membership lock, so the structure
// is quiescent: no join, departure or shuffle is in progress and no handoff
// is in flight. Data traffic may keep running; each peer's items are
// captured atomically with respect to its own request handling.
func (c *Cluster) Snapshot() ([]core.PeerSnapshot, error) {
	if err := c.requireCoordinator(); err != nil {
		return nil, err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return nil, ErrStopped
	}
	t := c.topo.Load()
	waits := make([]chan response, 0, len(t.ids))
	for _, id := range t.ids {
		ch := make(chan response, 1)
		if !c.sendAny(id, request{kind: kindSnapshot, reply: ch}) {
			return nil, ErrStopped
		}
		waits = append(waits, ch)
	}
	out := make([]core.PeerSnapshot, 0, len(waits))
	for _, ch := range waits {
		select {
		case resp := <-ch:
			if resp.snap != nil {
				out = append(out, *resp.snap)
			}
		case <-c.done:
			return nil, ErrStopped
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Position.InOrderBeforeIn(c.fanout, out[j].Position) })
	return out, nil
}
