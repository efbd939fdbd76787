// The cluster's face of the flight recorder (internal/obs): lock-free
// metrics snapshots, sampled request traces, and the structural-op
// journal. See the Observability section of the package documentation
// for where the hooks sit in the message path.
package p2p

import (
	"sort"
	"time"

	"baton/internal/core"
	"baton/internal/obs"
)

// Metrics snapshots the whole registry without locks or stopping
// traffic: the peer set comes from the atomically published topology, and
// every counter, gauge and histogram is a typed atomic. Peers are reported
// in id order; counts of peers already reaped from the topology survive in
// the cluster totals (the snapshot's retired block, read from the same
// snapshot as the peers, so no peer is counted twice or not at all), so
// totals are monotonic across membership churn.
func (c *Cluster) Metrics() obs.ClusterMetrics {
	t := c.topo.Load()
	peers := make([]obs.PeerSnapshot, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p.met.Snapshot(int64(p.id), kindName))
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Peer < peers[j].Peer })
	cm := obs.BuildClusterMetrics(peers, t.retired.Snapshot(-1, kindName))
	cm.Plans = c.plans.Snapshot()
	if c.net != nil {
		if tr := c.net.tr(); tr != nil {
			cm.Transport = obs.TransportSnapshot(tr.Stats())
		}
	}
	return cm
}

// SetTraceSampling sets request-trace sampling to 1-in-n; n <= 0 turns
// it off (the default). Sampling off costs the request path one atomic
// load and zero allocations.
func (c *Cluster) SetTraceSampling(n int) { c.sampler.SetEvery(int64(n)) }

// TraceSampling returns the current 1-in-n sampling rate, 0 when off.
func (c *Cluster) TraceSampling() int { return int(c.sampler.Every()) }

// Traces returns the hop chains of the most recent completed sampled
// requests, oldest first.
func (c *Cluster) Traces() [][]obs.Hop { return c.traces.Snapshot() }

// Events returns the retained structural-op journal, oldest first: every
// Join / Depart / Kill / Recover / balance action with per-phase
// durations and outcome.
func (c *Cluster) Events() []obs.Event { return c.journal.Events() }

// sampleTrace attaches a fresh trace to the request when the sampler
// elects it. Called on client-side entry paths (route, bulk) before the
// first delivery.
func (c *Cluster) sampleTrace(req *request) {
	if c.sampler.Sample() {
		req.trace = obs.NewTrace()
	}
}

// finishTrace files a completed sampled request's trace into the ring.
func (c *Cluster) finishTrace(req request) {
	if req.trace != nil {
		c.traces.Add(req.trace)
	}
}

// journalBegin opens the journal entry for the structural operation that
// just started. Callers hold memberMu (structural ops are serialised, so
// at most one entry is ever open); the helper itself takes no lock, so
// it is safe from *Locked helpers without bending the lock order.
func (c *Cluster) journalBegin(op string, id core.PeerID) {
	c.curEvent = &obs.Event{Op: op, Peer: int64(id), Start: time.Now()}
}

// journalSetPeer fills in the open entry's subject peer once it is
// known (a Join allocates the id mid-operation). NoPeer is ignored.
func (c *Cluster) journalSetPeer(id core.PeerID) {
	if c.curEvent != nil && id != core.NoPeer {
		c.curEvent.Peer = int64(id)
	}
}

// journalPhase records a named phase of the open entry as having taken
// time.Since(start). No-op when no entry is open (a phase helper reached
// outside a journalled operation, e.g. from NewCluster's seeding).
func (c *Cluster) journalPhase(name string, start time.Time) {
	if c.curEvent != nil {
		c.curEvent.AddPhase(name, time.Since(start))
	}
}

// journalMigrated adds to the open entry's count of items that changed
// owner during the operation.
func (c *Cluster) journalMigrated(n int) {
	if c.curEvent != nil {
		c.curEvent.Migrated += n
	}
}

// journalEnd closes and files the open entry with the operation's
// outcome. Callers hold memberMu.
func (c *Cluster) journalEnd(err error) {
	ev := c.curEvent
	if ev == nil {
		return
	}
	c.curEvent = nil
	ev.DurationNs = time.Since(ev.Start).Nanoseconds()
	if err != nil {
		ev.Outcome = "error"
		ev.Err = err.Error()
	} else {
		ev.Outcome = "ok"
	}
	c.journal.Record(*ev)
}
