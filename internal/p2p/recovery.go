// Crash recovery: the repair half of the fault-tolerance layer
// (Section III-C/III-D of the paper, plus the data restoration the paper
// leaves out and replication.go provides).
//
// A killed peer stays part of the overlay structure — requests route around
// it and its range answers ErrOwnerDown — until Recover repairs it: the
// crashed peer's structural position is removed on the mirror exactly like
// a graceful departure it can no longer cooperate with (safe-leaf merge
// into the parent, or a replacement leaf found by the same Algorithm 2
// machinery Depart uses), its key range is re-tiled onto the surviving
// peers, and the lost items are restored from the replica kept at its
// adjacent peer. After Recover, every key the dead peer owned is readable
// again with its pre-crash value, and stale requests still addressed to the
// dead peer are forwarded by its tombstone — ErrOwnerDown is transient.
package p2p

import (
	"errors"
	"fmt"

	"baton/internal/core"
	"baton/internal/store"
)

// ErrReplicaLost reports that a crashed peer's range was repaired but its
// data could not be restored: the replica holder is down too (or never
// existed — a single-peer overlay). One replica tolerates one crash between
// repairs.
var ErrReplicaLost = errors.New("p2p: no surviving replica for the crashed peer's range")

// Recover repairs the crash of the given killed peer. The structural change
// is computed on the mirror (core.CrashLeaveWith): a safe leaf merges into
// its parent, any other peer is replaced by a leaf located with the same
// live FINDREPLACEMENT walk Depart uses (started at the dead peer's
// neighbours, which are alive) or, failing that, a structure scan. The
// dead peer's range is restored from the surviving replica at its holder
// and handed to the range's new owner; every peer whose links changed is
// updated; the topology is republished; and the dead peer remains as a
// forwarding tombstone for stragglers. Traffic keeps flowing
// throughout: requests for the dead range fail over with ErrOwnerDown
// until the repair lands and succeed after.
//
// Recover returns the number of items restored from the replica. When the
// replica holder has crashed too, the structure is still repaired — the
// range must come back up — but the data is gone and Recover returns
// ErrReplicaLost alongside the count of zero.
func (c *Cluster) Recover(id core.PeerID) (int, error) {
	if err := c.requireCoordinator(); err != nil {
		return 0, err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.journalBegin("recover", id)
	n, err := c.recoverLocked(id)
	c.journalEnd(err)
	return n, err
}

// recoverLocked is the body of Recover; the caller holds memberMu.
func (c *Cluster) recoverLocked(id core.PeerID) (int, error) {
	if c.stopped.Load() {
		return 0, ErrStopped
	}
	t := c.topo.Load()
	p := t.peers[id]
	if p == nil || !t.members[id] {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	if p.alive.Load() {
		return 0, fmt.Errorf("p2p: peer %d is not down", id)
	}
	if len(t.ids) == 1 {
		return 0, core.ErrLastPeer
	}
	ps := c.states[id]

	// Salvage the replica before the structure changes: the holder is
	// derived from the same published structure the peers' live links came
	// from, so it is exactly where the dead peer last synced to.
	var salvaged []store.Item
	var replicaErr error
	holder := core.ReplicaHolderOf(ps)
	if holder == core.NoPeer || !c.Alive(holder) {
		replicaErr = fmt.Errorf("%w: holder %d of peer %d is down", ErrReplicaLost, holder, id)
	} else if resp, err := c.control(holder, request{kind: kindReplicaFetch, src: id}); err != nil {
		replicaErr = fmt.Errorf("%w: fetching from holder %d: %v", ErrReplicaLost, holder, err)
	} else {
		// Stale keys the dead peer handed off before crashing are filtered
		// out; keys outside the domain belong to the extreme peers and ride
		// along via the widened range, like any migration.
		salvaged = itemsWithin(resp.items, c.widen(ps.Range))
	}

	// Structural repair on the mirror: Depart's ladder, with the crash-leave
	// variant (no data to extract).
	done, err := c.leaveMirror(id, c.mirror.CrashLeaveWith)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, fmt.Errorf("p2p: no viable replacement leaf to repair crashed peer %d: %w", id, ErrUnreachable)
	}

	// Push the delta out. The salvage map makes the coordinator play the
	// dead source's part in the handoff phase: the restored items are sent
	// to the range's new owner instead of being extracted from the corpse.
	if _, err := c.applyMirrorDiffLocked(map[core.PeerID][]store.Item{id: salvaged}); err != nil {
		return 0, err
	}
	return len(salvaged), replicaErr
}

// suspect reports a peer a routing path observed to be dead to the
// background repairer, if one is running. It never blocks: a full queue
// just drops the report — the same peer will be observed again.
func (c *Cluster) suspect(id core.PeerID) {
	if !c.autoRecover.Load() {
		return
	}
	select {
	case c.suspects <- id:
	default:
	}
}

// StartAutoRecover starts the opt-in background repairer: from now on,
// whenever a request observes that the peer responsible for its key is dead
// (the ErrOwnerDown paths), the dead peer is queued for repair and a
// dedicated goroutine runs Recover on it. Client requests still see
// ErrOwnerDown in the window between the crash and the repair — the
// repairer makes the error transient, not invisible. Repair errors are
// dropped: a suspect may already have been repaired (no longer a member) or
// be momentarily unrepairable, and the next observation re-queues it.
// StartAutoRecover is idempotent; the repairer stops with the cluster.
func (c *Cluster) StartAutoRecover() {
	if c.autoRecover.Swap(true) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.done:
				return
			case id := <-c.suspects:
				if !c.Alive(id) && c.topo.Load().members[id] {
					c.Recover(id) //nolint:errcheck // see doc comment
				}
			}
		}
	}()
}
