// Adjacent-peer replication: the data half of the fault-tolerance layer.
//
// Every peer keeps a full copy of its items at its replica holder — the
// right adjacent peer, or the left adjacent for the rightmost peer (the
// rule is core.ReplicaHolderOf, shared with the invariant audit). The copy
// is maintained on two paths:
//
//   - Write path, asynchronously: a Put/Delete/bulk write/handoff absorb is
//     applied locally, a kindReplicate message with the delta is fired at
//     the holder, and the client is acknowledged without waiting for it.
//     Replication therefore trails acknowledgement by at most the message
//     in flight; SyncReplicas is the barrier that closes that window.
//   - Membership path, synchronously: after every structural operation
//     (Join, Depart, LoadBalance, Recover) the coordinator tells every peer
//     whose position in the overlay changed to re-ship its full item set to
//     its current holder (kindReplicaResync -> kindReplicaSync), and waits
//     for the holders' acknowledgements before the operation returns. A
//     sync wholesale-replaces the holder's set for that source, so range
//     handoffs can never leave stale replica keys behind.
//
// Recovery (recovery.go) reads the surviving copy back with
// kindReplicaFetch when the source has crashed. One replica tolerates one
// crash between repairs: if a peer and its holder die together, the range
// is repaired but its data is gone (ErrReplicaLost).
package p2p

import (
	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/store"
)

// replicaTarget returns the peer that should hold this peer's replica,
// derived from the current adjacent links: the right adjacent, else the
// left adjacent, else nobody (single-peer overlay). It is the live-link
// counterpart of core.ReplicaHolderOf.
func (p *peer) replicaTarget() core.PeerID {
	if r := p.view.Adj[core.Right]; r != nil {
		return r.ID
	}
	if l := p.view.Adj[core.Left]; l != nil {
		return l.ID
	}
	return core.NoPeer
}

// replicaFor returns (creating if needed) the replica store this peer keeps
// for the given source peer. Runs under the peer's token.
func (p *peer) replicaFor(src core.PeerID) *store.Store {
	st := p.replicas[src]
	if st == nil {
		if p.replicas == nil {
			p.replicas = make(map[core.PeerID]*store.Store)
		}
		st = store.New()
		p.replicas[src] = st
	}
	return st
}

// replicateWrite fires the write-path delta (upserts and deletions this
// peer just applied to its own store) at the replica holder. It is
// asynchronous and unacknowledged: a dead holder simply drops the message,
// and the next structural resync re-ships the full set. Deltas from one
// source apply in order — the source sends them sequentially under its
// token, and delivery to a peer is FIFO across inline runs and its queue
// (deliverTo) — but a wholesale sync travels from a different goroutine
// (the structural coordinator's resync), so a delta sent before the sync
// was taken can still be delivered after it. Every
// message is therefore stamped with the source's monotonically increasing
// sequence number; without the stamp such a late delta would silently
// resurrect a deleted key (or regress a value) in the freshly synced set.
func (c *Cluster) replicateWrite(p *peer, ups []store.Item, dels []keyspace.Key) {
	to := p.replicaTarget()
	if to == core.NoPeer {
		return
	}
	p.replSeq++
	c.send(to, request{kind: kindReplicate, src: p.id, bulk: ups, dels: dels, seq: p.replSeq})
}

// applyReplicate folds an incremental replica delta into the holder's set
// for the source — unless the delta predates the last wholesale sync from
// that source, in which case its effect is already (correctly) absent from
// the synced set and applying it would corrupt the replica. Runs under the
// holder's token.
func (c *Cluster) applyReplicate(p *peer, req request) {
	if req.seq < p.replicaMin[req.src] {
		return // stale: delivered after a later wholesale sync was absorbed
	}
	st := p.replicaFor(req.src)
	for _, it := range req.bulk {
		st.Put(it.Key, it.Value)
	}
	for _, k := range req.dels {
		st.Delete(k)
	}
}

// applyReplicaSync wholesale-replaces the holder's replica set for the
// source with the shipped items and acknowledges to whoever is waiting
// (the coordinator of a structural operation, via the reply channel the
// source forwarded here). The sync's sequence number becomes the floor
// below which late incremental deltas from this source are discarded. A
// delta the source sent *after* the sync can still apply first and be
// overwritten by it — that only affects writes acknowledged after the
// barrier, which the next sync repairs; the SyncReplicas guarantee covers
// writes acknowledged before the barrier, and those are in the sync's
// content.
func (c *Cluster) applyReplicaSync(p *peer, req request) {
	st := store.New()
	st.Absorb(req.bulk)
	if p.replicas == nil {
		p.replicas = make(map[core.PeerID]*store.Store)
	}
	if p.replicaMin == nil {
		p.replicaMin = make(map[core.PeerID]int64)
	}
	p.replicas[req.src] = st
	p.replicaMin[req.src] = req.seq
	c.respond(req, response{count: len(req.bulk), hops: req.hops})
}

// handleReplicaResync runs at the source peer: ship the full local item set
// to the current replica target, telling the previous target (if it
// changed) to drop the stale set. The coordinator's reply channel rides on
// the sync message so the holder acknowledges straight back to it; when
// there is no holder, or the holder is dead, the source answers itself so
// the coordinator never hangs.
func (c *Cluster) handleReplicaResync(p *peer, req request) {
	target := p.replicaTarget()
	if p.replTo != core.NoPeer && p.replTo != target && c.topo.Load().members[p.replTo] {
		// Tell the previous holder to discard the stale set — but only while
		// it is still a member. A holder that departed in the operation that
		// moved this peer's adjacency is a tombstone now, and a tombstone
		// forwards everything to the peer that absorbed its range — which can
		// be exactly the NEW holder, so the forwarded drop would land after
		// the sync below and delete the freshly shipped set (losing the only
		// copy until the next resync). Tombstone-held sets die at the reap.
		c.send(p.replTo, request{kind: kindReplicaDrop, src: p.id})
	}
	p.replTo = target
	if target == core.NoPeer {
		c.respond(req, response{hops: req.hops})
		return
	}
	p.replSeq++
	// The coordinator's completion — reply channel or wire correlation —
	// rides on the sync so the holder acknowledges straight back to it.
	sync := request{kind: kindReplicaSync, src: p.id, bulk: p.data.Items(), seq: p.replSeq,
		reply: req.reply, rcorr: req.rcorr, rnode: req.rnode}
	if !c.send(target, sync) {
		// The holder is dead (or the cluster is stopping): this peer is
		// unprotected until the next structural change re-seats it.
		c.respond(req, response{hops: req.hops, err: ErrOwnerDown})
	}
}

// handleReplicaDump exports every replica set this peer holds (audit path).
func (c *Cluster) handleReplicaDump(p *peer, req request) {
	out := make(map[core.PeerID][]store.Item, len(p.replicas))
	for src, st := range p.replicas {
		out[src] = st.Items()
	}
	c.respond(req, response{replicaSets: out, hops: req.hops})
}

// applyCrash wipes the peer's stores — its own items, the replicas it held
// for others, and any buffered state: the process is gone, and recovery
// must be able to trust that nothing it restores came from the corpse.
// Held requests (there can be none outside a structural operation, and Kill
// serialises with those, but be defensive) are refused rather than dropped.
func (c *Cluster) applyCrash(p *peer, req request) {
	p.data.Clear()
	p.noteItems()
	p.replicas = nil
	p.replicaMin = nil
	p.replTo = core.NoPeer
	p.pending = nil
	held := p.held
	p.held = nil
	for _, h := range held {
		c.refuse(p, h, ErrOwnerDown)
	}
	c.respond(req, response{hops: req.hops})
}

// resyncReplicas tells each of the given peers (every member when ids is
// nil) to full-sync its items to its current replica holder, and waits for
// the holders' acknowledgements. Dead peers are skipped — their wiped
// stores have nothing to ship. Callers hold memberMu.
func (c *Cluster) resyncReplicas(ids []core.PeerID) error {
	if ids == nil {
		ids = c.topo.Load().ids
	}
	acks := make([]chan response, 0, len(ids))
	for _, id := range ids {
		ch := make(chan response, 1)
		if !c.send(id, request{kind: kindReplicaResync, reply: ch}) {
			continue
		}
		acks = append(acks, ch)
	}
	// An ack's error names a dead holder, which leaves its source
	// unprotected until a structural change re-seats it (see
	// handleReplicaResync) — not a failed resync.
	var deadHolder error
	return c.waitAcks(acks, &deadHolder)
}

// SyncReplicas forces every alive peer to re-ship its full item set to its
// replica holder and waits until every holder has absorbed it. It is the
// replication barrier: every write acknowledged before SyncReplicas was
// called is on its holder when SyncReplicas returns, so a single crash
// after the call loses nothing (the write path alone replicates
// asynchronously, trailing acknowledgement by the message in flight).
// SyncReplicas serialises with membership changes.
func (c *Cluster) SyncReplicas() error {
	if err := c.requireCoordinator(); err != nil {
		return err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return ErrStopped
	}
	return c.resyncReplicas(nil)
}

// Replicas exports, for every member peer, the replica sets it currently
// holds, keyed by holder and then by source peer. Together with Snapshot it
// feeds core.VerifyReplication, the audit that every peer's items are fully
// and exactly mirrored at its holder. Like Snapshot it holds the membership
// lock, so no handoff or resync is in flight; call SyncReplicas first to
// close the asynchronous write-path window.
func (c *Cluster) Replicas() (map[core.PeerID]map[core.PeerID][]store.Item, error) {
	if err := c.requireCoordinator(); err != nil {
		return nil, err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return nil, ErrStopped
	}
	t := c.topo.Load()
	type wait struct {
		id core.PeerID
		ch chan response
	}
	waits := make([]wait, 0, len(t.ids))
	for _, id := range t.ids {
		ch := make(chan response, 1)
		if !c.send(id, request{kind: kindReplicaDump, reply: ch}) {
			continue // dead peers hold nothing
		}
		waits = append(waits, wait{id: id, ch: ch})
	}
	out := make(map[core.PeerID]map[core.PeerID][]store.Item, len(waits))
	for _, w := range waits {
		select {
		case resp := <-w.ch:
			if resp.err == nil {
				out[w.id] = resp.replicaSets
			}
		case <-c.done:
			return nil, ErrStopped
		}
	}
	return out, nil
}

// itemsWithin returns the items whose keys fall inside r, preserving order.
func itemsWithin(items []store.Item, r keyspace.Range) []store.Item {
	out := make([]store.Item, 0, len(items))
	for _, it := range items {
		if r.Contains(it.Key) {
			out = append(out, it)
		}
	}
	return out
}
