package p2p

import (
	"fmt"
	"sort"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/store"
)

// BulkResult is the per-key outcome of a bulk operation. Results are
// returned in the order of the input keys. Err is ErrOwnerDown when the
// peer responsible for the key was dead, nil otherwise.
type BulkResult struct {
	Key   keyspace.Key
	Value []byte // BulkGet only
	Found bool   // BulkGet: key present; BulkDelete: key existed
	Err   error
}

// BulkGet looks up many keys at once. Keys are grouped by responsible peer
// and one batched message is pipelined per peer, so a batch of k keys costs
// one round trip per covering peer instead of k full routed lookups.
func (c *Cluster) BulkGet(keys []keyspace.Key) ([]BulkResult, error) {
	items := make([]store.Item, len(keys))
	for i, k := range keys {
		items[i] = store.Item{Key: k}
	}
	return c.bulk(kindBulkGet, items)
}

// BulkPut stores many items at once, grouped and pipelined by responsible
// peer like BulkGet.
func (c *Cluster) BulkPut(items []store.Item) ([]BulkResult, error) {
	return c.bulk(kindBulkPut, items)
}

// BulkDelete removes many keys at once, grouped and pipelined by
// responsible peer like BulkGet; each result's Found reports whether the
// key existed.
func (c *Cluster) BulkDelete(keys []keyspace.Key) ([]BulkResult, error) {
	items := make([]store.Item, len(keys))
	for i, k := range keys {
		items[i] = store.Item{Key: k}
	}
	return c.bulk(kindBulkDelete, items)
}

// entryOf returns the ring slot responsible for key in the given topology:
// the member whose range contained it when the topology was published, or
// the extreme members for keys outside the domain (the same rule
// owns applies during routing). The ring is an immutable snapshot;
// across a concurrent membership change it can be stale, which the bulk
// path repairs by retrying moved keys as routed singletons.
func (t *topology) entryOf(key keyspace.Key) *ringEntry {
	n := len(t.ring)
	if n == 0 {
		return nil
	}
	if key < t.ring[0].lower {
		return &t.ring[0]
	}
	i := sort.Search(n, func(i int) bool { return t.ring[i].lower > key })
	return &t.ring[i-1]
}

// ownerOf returns the peer the current topology holds responsible for key.
func (c *Cluster) ownerOf(key keyspace.Key) *peer {
	e := c.topo.Load().entryOf(key)
	if e == nil {
		return nil
	}
	return e.p
}

// bulk groups the items by responsible peer, sends one batched request per
// peer, and gathers the per-key results back into input order. The batches
// are all in flight at once (pipelined); the only whole-call error is
// ErrStopped. Per-key failures — the owner was dead when the batch was sent
// or died with the batch queued — surface as ErrOwnerDown on the affected
// results. Keys whose ownership moved under a concurrent membership change
// come back marked errMoved and are retried as routed singleton requests,
// so the caller never observes the stale cache.
func (c *Cluster) bulk(k kind, items []store.Item) ([]BulkResult, error) {
	if c.stopped.Load() {
		return nil, ErrStopped
	}
	t := c.topo.Load()
	out := make([]BulkResult, len(items))
	type batch struct {
		id      core.PeerID
		items   []store.Item
		indices []int
		reply   chan response
		trace   *obs.Trace
	}
	batches := make(map[core.PeerID]*batch)
	order := make([]*batch, 0)
	for i, it := range items {
		e := t.entryOf(it.Key)
		if e == nil {
			out[i] = BulkResult{Key: it.Key, Err: ErrUnknownPeer}
			continue
		}
		b := batches[e.id]
		if b == nil {
			b = &batch{id: e.id, reply: make(chan response, 1)}
			batches[e.id] = b
			order = append(order, b)
		}
		b.items = append(b.items, it)
		b.indices = append(b.indices, i)
	}
	// Scatter every batch before gathering any reply so the per-peer work
	// overlaps. Each batch is its own sampling candidate: a bulk call is one
	// message per covering peer, so each batch trace is a single hop (plus
	// any forwarding a stale ring triggers).
	for _, b := range order {
		req := request{kind: k, bulk: b.items, reply: b.reply}
		c.sampleTrace(&req)
		b.trace = req.trace
		if !c.send(b.id, req) {
			if c.stopped.Load() {
				// The send failed because the cluster is stopping, not
				// because the owner died — don't mislabel healthy peers.
				return nil, ErrStopped
			}
			b.reply <- response{err: ErrOwnerDown}
		}
	}
	for _, b := range order {
		var resp response
		select {
		case resp = <-b.reply:
		case <-c.done:
			return nil, ErrStopped
		}
		c.finishTrace(request{trace: b.trace})
		for j, idx := range b.indices {
			if resp.err != nil {
				out[idx] = BulkResult{Key: b.items[j].Key, Err: resp.err}
				continue
			}
			r := resp.results[j]
			if r.Err == errMoved {
				// The batch peer no longer owns this key (membership changed
				// after the ring snapshot): fall back to a fully routed
				// singleton request via that same peer, which forwards it to
				// the current owner.
				out[idx] = c.bulkRetry(k, b.id, b.items[j])
				continue
			}
			out[idx] = r
		}
	}
	return out, nil
}

// bulkRetry re-issues one key of a bulk batch as a routed singleton request.
// The retry enters the overlay at the key's owner in the *current* topology
// (falling back to any alive member): the original batch peer refused the
// key precisely because a membership change moved it, and that peer may by
// now be a killed tombstone-to-be that would refuse the retry with
// ErrOwnerDown even though the key's new owner is alive.
func (c *Cluster) bulkRetry(k kind, via core.PeerID, it store.Item) BulkResult {
	var single kind
	switch k {
	case kindBulkGet:
		single = kindGet
	case kindBulkPut:
		single = kindPut
	case kindBulkDelete:
		single = kindDelete
	default:
		// Only the three bulk kinds have a singleton counterpart; mapping
		// anything else to a delete (as an earlier version did) would destroy
		// data on a dispatch bug.
		return BulkResult{Key: it.Key, Err: fmt.Errorf("p2p: bulk retry for non-bulk kind %d", k)}
	}
	t := c.topo.Load()
	if e := t.entryOf(it.Key); e != nil && e.p.alive.Load() {
		via = e.id
	} else if !c.Alive(via) {
		for i := range t.ring {
			if t.ring[i].p.alive.Load() {
				via = t.ring[i].id
				break
			}
		}
	}
	resp, err := c.issue(via, nil, request{kind: single, key: it.Key, value: it.Value})
	if err != nil {
		return BulkResult{Key: it.Key, Err: err}
	}
	if resp.err != nil {
		return BulkResult{Key: it.Key, Err: resp.err}
	}
	switch k {
	case kindBulkGet:
		return BulkResult{Key: it.Key, Value: resp.value, Found: resp.found}
	case kindBulkPut:
		return BulkResult{Key: it.Key, Found: true}
	default:
		return BulkResult{Key: it.Key, Found: resp.found}
	}
}

// handleBulk applies a batched operation locally. Keys this peer owns are
// answered from the local store — the whole batch costs the one message
// that delivered it. Keys it does not own (the client grouped the batch
// with a ring snapshot that a membership change has since invalidated) are
// marked errMoved for the client to retry individually.
func (c *Cluster) handleBulk(p *peer, req request) {
	results := make([]BulkResult, len(req.bulk))
	for i, it := range req.bulk {
		if !c.owns(p, it.Key) {
			results[i] = BulkResult{Key: it.Key, Err: errMoved}
			continue
		}
		switch req.kind {
		case kindBulkGet:
			v, ok := p.data.Get(it.Key)
			results[i] = BulkResult{Key: it.Key, Value: v, Found: ok}
		case kindBulkPut:
			p.data.Put(it.Key, it.Value)
			results[i] = BulkResult{Key: it.Key, Found: true}
		case kindBulkDelete:
			ok := p.data.Delete(it.Key)
			results[i] = BulkResult{Key: it.Key, Found: ok}
		default:
			// A non-bulk kind can only get here through a dispatch bug; a
			// zero BulkResult would read as "key absent", so answer the slot
			// with an explicit error instead.
			results[i] = BulkResult{Key: it.Key, Err: fmt.Errorf("p2p: unhandled bulk kind %d", req.kind)}
		}
	}
	p.noteItems()
	c.respond(req, response{results: results, hops: req.hops})
}
