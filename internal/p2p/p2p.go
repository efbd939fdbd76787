// Package p2p runs a BATON overlay as a set of live, concurrently executing
// peers: every peer is a queue that gets a goroutine only while it holds
// work, requests travel between peers as messages, and clients issue queries
// against any peer they know. A message to an idle peer runs to completion
// on the sender's goroutine instead of queueing (see deliverTo); it is still
// one message.
//
// The message-counting simulator in internal/core is what reproduces the
// paper's figures (operations there are serialised, exactly like the
// authors' simulator). This package is the deployment-shaped counterpart:
// it takes a snapshot of a core.Network — positions, ranges, links and data —
// and animates it, so that many exact-match, insert and range requests can
// be in flight at the same time, and so that the overlay can change while
// traffic is running: peers can be killed and recovered (the fault
// tolerance of Sections III-C/III-D, plus data replication the paper
// leaves out), new peers can Join online (Section III-A), and peers can
// Depart gracefully with full data handoff (Section III-B).
//
// # Live membership
//
// Join locates the accept node by routing a JOIN message through the live
// peers exactly as Algorithm 1 forwards it — to the parent when a routing
// table is incomplete, sideways to routing-table neighbours, to the adjacent
// peers — until a peer with full routing tables and a free child slot
// answers. Depart finds a replacement leaf for a non-leaf peer by walking
// FINDREPLACEMENT messages down the live tree (Algorithm 2). The structural
// bookkeeping of an accepted change — which ranges split or merge, which
// links every affected peer ends up with — is computed on an internal
// data-less mirror of the overlay structure (a core.Network), and the delta
// is then pushed back out to the affected peers as messages:
//
//  1. Peers that are gaining key ranges are prepared first: they adopt their
//     new range and links and start buffering requests that touch the
//     still-in-flight regions.
//  2. Source peers then shrink, extract the handed-off items and send them
//     as one batched data message per region directly to the receiving
//     peer, which absorbs the items and replays everything it buffered.
//     Keys in mid-handoff are therefore forwarded or briefly held — never
//     dropped — and no acknowledged write is lost.
//  3. Every other peer whose links changed receives its new link set. A
//     departed peer stays behind as a tombstone that forwards stragglers
//     (requests addressed to it by stale routing state) to the peer that
//     took over its range.
//
// Structural operations (Join, Depart, LoadBalance, ForceRejoin, Kill,
// Recover, Snapshot) serialise with each other on a membership lock,
// mirroring how the paper's protocol serialises structural changes around
// the affected region, while Get/Put/Delete/Query/Bulk traffic keeps
// flowing throughout — data requests never take the membership lock.
// LoadBalance performs the adjacent-peer data shuffle of Section V: the
// peer measures its own and its adjacent peers' loads and moves the
// boundary so that about half the imbalance changes hands.
//
// # Load management
//
// The cluster meters its own load (loadmanager.go): every peer counts the
// data requests it handles on an atomic, Loads snapshots per-peer
// stored-item counts plus a request-rate EWMA, and ImbalanceRatio condenses
// a snapshot into the max/average stored-load ratio. StartAutoBalance runs
// the opt-in background balancer: whenever the most loaded peer exceeds θ
// times its lighter adjacent peer (the Section V trigger), it either runs
// the adjacent-peer shuffle or — when both neighbours are themselves
// loaded — recruits the globally lightest leaf for a forced depart-and-
// rejoin next to the hot peer (ForceRejoin, the Section III-E restructuring
// on the mirror plumbed through the same prepare→extract→handoff→link-update
// phases as Depart and Join, so no acknowledged write is lost). Each
// balancing action is one structural operation: it takes the membership
// lock like Join or Depart and therefore serialises with every other
// membership change, while data traffic keeps flowing and keys in
// mid-handoff are buffered, never dropped.
//
// # Fault tolerance
//
// A crash is survivable, not just routable-around. Every peer keeps a full
// copy of its items at its replica holder — its right adjacent peer (left
// for the rightmost; core.ReplicaHolderOf) — maintained asynchronously on
// the write path and re-shipped synchronously whenever a membership change
// moves the peer or its range (replication.go). SyncReplicas is the
// barrier that closes the asynchronous window: every write acknowledged
// before it returns is on its holder.
//
// Kill crashes a peer abruptly: its stores (own items and held replicas)
// are wiped, its range answers ErrOwnerDown, and routing fails over around
// it exactly as Section III-D describes — the dead peer remains part of
// the structure. Recover repairs it (recovery.go): the structural position
// is removed on the mirror with the crash-leave variant of the departure
// protocol (safe-leaf merge or replacement leaf, core.CrashLeaveWith), the
// lost range is restored from the surviving replica and handed to its new
// owner, links are refreshed and the topology republished, with the dead
// peer left behind as a forwarding tombstone. ErrOwnerDown is
// therefore transient: requests fail over during the outage and succeed
// after the repair, with every replicated acknowledged write intact. The
// opt-in background repairer (StartAutoRecover) runs Recover automatically
// on peers that routing observes to be dead. One replica tolerates one
// crash between repairs: when a peer and its holder are down at once,
// Recover still repairs the range but reports ErrReplicaLost.
//
// # Concurrency contract
//
// Every exported method of Cluster is safe for concurrent use by any number
// of goroutines. A peer's protocol state is touched only by whoever holds
// the peer's run token — the goroutine draining its queue, or a sender that
// found the peer idle and runs the request inline — and structural updates
// arrive as messages, like everything else, so request handling needs no
// per-item locking; a walk holds one token at a time (see walk). Calls never block
// indefinitely:
//
//   - A request addressed to (or queued at) a peer that has been killed
//     fails with ErrOwnerDown instead of hanging.
//   - Stop may be called at any time, including with requests and
//     membership changes in flight; in-flight calls complete or return
//     ErrStopped, and shutdown never panics. Peers are never signalled by
//     closing a channel senders use — shutdown is broadcast on a separate
//     done channel precisely so that concurrent senders cannot hit a
//     closed channel.
//
// # Routing modes
//
// Singleton Get/Put/Delete requests enter the overlay in one of two modes
// (SetRouteMode). RouteOverlay, the default, routes per-hop through the
// tree and sideways routing tables exactly as Algorithm search_exact
// describes — the paper-faithful path whose hop counts the experiments
// measure. RouteDirect is the fast data plane: the published topology's
// key-ordered ring doubles as an epoch-validated route cache, and requests
// go straight to the cached owner in one message, tagged with the ring's
// epoch. A receiver that no longer owns the key validates the tag against
// the live epoch: an older tag (the sender's ring predates a membership
// change) is re-aimed once at the owner the current ring names, while a
// current tag (the receiver's range moved under a publication still in
// flight) falls back to classic overlay forwarding — and a key mid-handoff
// is briefly buffered until its items land. Direct mode under churn
// therefore pays extra hops, never correctness; StaleRoutes counts the
// misses. A cached owner that is dead fails the delivery at the sender,
// which re-enters the overlay path and its usual fail-over rules. See
// routecache.go.
//
// Every read is one Query (query.go): a key range, an optional pushdown
// predicate and a plan. Like the range query of Section IV-B it starts at
// the peer owning the range's lower bound — the owner the published ring
// names, or routed there from via when that owner is dead or unknown — and
// covers the range from there, one step per covering peer, the same step
// for both plans (handleRange, range_fanout.go): cut the uncovered rest into
// segments, queue all but the last as branches of their own, contribute the
// peer's part and hand the last segment on, as every walk hands on.
// PlanSerial cuts one segment, to the right adjacent peer, and so walks the
// chain one peer at a time exactly as the paper describes; PlanParallel
// cuts one more per sideways routing-table entry inside the rest and
// gathers the parts in a per-query collector, turning O(peers-covered)
// sequential hops into a logarithmic-depth fan-out. Bulk operations
// (BulkGet, BulkPut, BulkDelete) group keys by responsible peer and
// pipeline one batched message per peer, amortising routing hops across
// the whole batch; keys whose owner changed under a concurrent membership
// operation are retried as routed singleton requests, so bulk calls stay
// correct under churn.
//
// # Query layer
//
// A thin planner (query.go, internal/query) picks the plan of a PlanAuto
// query: it estimates the range's peer-span from the published ring — two
// binary searches against state the client already holds, no messages, no
// locks — and walks serially when the span is below 4, scattering
// otherwise. The 4 is the crossover a self-tuning planner's trials
// measured and converged to on both range workloads; the rule keeps no
// state and reads no clock. A small (range bucket, epoch)-keyed plan cache
// short-circuits the estimate and the entry-point lookup for repeated
// ranges and is invalidated implicitly by every epoch bump. QueryIter
// reads an answer one ring slot at a time, each page a one-peer Query, so
// it holds one peer's part at a time and nothing runs between pages. A
// query's predicate (internal/query.Pred: value-length bounds, key-set
// membership, item limit) is evaluated at the owning peers, so items that
// cannot match never cross the wire, and a limited serial walk terminates
// the adjacent chain the moment the limit is satisfied. A filtered point
// read is the one-key range [k, k+1).
//
// # Observability
//
// The cluster records what it does through internal/obs (metrics.go),
// and the instrumentation hooks sit strictly inside the lock order
// batonvet enforces:
//
//   - Per-peer counters and histograms live in each peer's PeerMetrics
//     block, reached through the *peer object — never by writing through
//     a topo.Load() snapshot (topoimmutable) — and are typed atomics, so
//     the data path takes no lock for them. admit counts every
//     delivered/inline/spilled message and stamps the enqueue time of
//     queued *timed* ones — 1 in 64 per kind plus traced ones
//     (hopClockEvery); dispatch turns that stamp into queue-wait (0
//     inline) and handle-time (own work only) samples; refuse attributes
//     refused messages to the peer that refused them. The queue gauges
//     are updated inside the existing qMu critical sections — qMu nests
//     inside nothing, so no new lock edge appears.
//   - Sampled request traces ride inside the request struct (a nil
//     pointer when sampling is off, so the zero-alloc direct path is
//     untouched); hops are appended by the holder of the peer's token.
//   - The structural-op journal is written exclusively under memberMu by
//     the operations that already hold it (Join, Depart, Kill, Recover,
//     LoadBalance, ForceRejoin) — journalBegin/journalEnd never lock, so
//     they are safe from *Locked helpers (lockedsuffix still holds) and
//     cannot invert the memberMu-before-qMu order.
//
// Cluster.Metrics, Cluster.Events and Cluster.Traces read it all back
// without stopping traffic — see metrics.go.
package p2p

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/transport"
)

// Errors returned by cluster operations.
var (
	// ErrStopped is returned when the cluster has been shut down.
	ErrStopped = errors.New("p2p: cluster stopped")
	// ErrUnknownPeer is returned when a request names a peer that does not
	// exist in the cluster.
	ErrUnknownPeer = errors.New("p2p: unknown peer")
	// ErrUnreachable is returned when a request cannot make progress because
	// every useful link points at dead peers.
	ErrUnreachable = errors.New("p2p: no route to the responsible peer")
	// ErrOwnerDown is returned when the peer responsible for a key is dead.
	ErrOwnerDown = errors.New("p2p: responsible peer is down")
)

// errMoved is the internal marker a peer attaches to a bulk-batch key it no
// longer owns (the client's ring cache was stale across a membership
// change); the client retries those keys as routed singleton requests and
// the marker never escapes to callers.
var errMoved = errors.New("p2p: key moved to another peer")

// kind enumerates request kinds.
type kind uint8

const (
	kindGet kind = iota
	kindPut
	kindDelete
	kindRange
	kindRangeScatter
	kindBulkGet
	kindBulkPut
	kindBulkDelete

	// Membership protocol messages.
	kindJoinLocate      // Algorithm 1: locate a peer that can accept a child
	kindFindReplacement // Algorithm 2: walk down to a replacement leaf
	kindUpdate          // adopt new structural state / extract handed-off data
	kindHandoff         // batched data items migrating between peers
	kindSnapshot        // export the peer's protocol state
	kindStats           // report the peer's stored-item count
	kindSplitKey        // report the key at a fraction of the local items

	// Fault-tolerance messages (replication.go, recovery.go).
	kindCrash         // wipe the peer's stores: its process has crashed
	kindReplicate     // incremental replica update from the write path
	kindReplicaSync   // wholesale replacement of one source's replica set
	kindReplicaDrop   // discard one source's replica set
	kindReplicaResync // instruct a peer to full-sync to its current holder
	kindReplicaFetch  // return the replica set held for one source
	kindReplicaDump   // export every replica set this peer holds
)

// numKinds sizes per-kind metric arrays; it must track the enum above.
const numKinds = int(kindReplicaDump) + 1

// kindInfo is what handle needs to know of a kind before it dispatches it,
// and the kind's display name for metrics and traces.
type kindInfo struct {
	name string
	// control kinds are handled even by a departed or killed peer and over
	// pending handoffs: structural updates and snapshots keep a dead peer's
	// recorded state coherent (it remains part of the overlay structure
	// until it is repaired), a handoff must never be dropped, and a crash
	// notification is by definition addressed to a peer that is already
	// down. Replica traffic is not control: a dead peer must refuse it, or
	// it would keep acknowledging replicas its wiped process cannot hold.
	control bool
	// data kinds read or write stored items: they feed the load meter and
	// are the ones a pending handoff holds back.
	data bool
}

// kinds is the one per-kind table; TestKindTableTotal holds it total.
var kinds = [numKinds]kindInfo{
	kindGet:             {name: "GET", data: true},
	kindPut:             {name: "PUT", data: true},
	kindDelete:          {name: "DELETE", data: true},
	kindRange:           {name: "RANGE", data: true},
	kindRangeScatter:    {name: "RANGE_SCATTER", data: true},
	kindBulkGet:         {name: "BULK_GET", data: true},
	kindBulkPut:         {name: "BULK_PUT", data: true},
	kindBulkDelete:      {name: "BULK_DELETE", data: true},
	kindJoinLocate:      {name: "JOIN_LOCATE"},
	kindFindReplacement: {name: "FIND_REPLACEMENT"},
	kindUpdate:          {name: "UPDATE", control: true},
	kindHandoff:         {name: "HANDOFF", control: true},
	kindSnapshot:        {name: "SNAPSHOT", control: true},
	kindStats:           {name: "STATS"},
	kindSplitKey:        {name: "SPLIT_KEY"},
	kindCrash:           {name: "CRASH", control: true},
	kindReplicate:       {name: "REPLICATE"},
	kindReplicaSync:     {name: "REPLICA_SYNC"},
	kindReplicaDrop:     {name: "REPLICA_DROP"},
	kindReplicaResync:   {name: "REPLICA_RESYNC"},
	kindReplicaFetch:    {name: "REPLICA_FETCH"},
	kindReplicaDump:     {name: "REPLICA_DUMP"},
}

// String names the kind for metrics and traces.
func (k kind) String() string {
	if int(k) < numKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("KIND_%d", int(k))
}

// kindName adapts kind.String to the index-based callback obs snapshots
// take.
func kindName(i int) string { return kind(i).String() }

// request is one message travelling through the overlay. Replies are
// delivered on the embedded channel so a client blocks only on its own
// request.
type request struct {
	key   keyspace.Key
	value []byte
	rng   keyspace.Range
	hops  int
	// acc accumulates the serial walk's results while the walk stays in the
	// process that answers the client; for an unfiltered walk the first peer
	// sizes it for the whole answer (sizeAnswer), and every later peer scans
	// into it. It never crosses the wire: a walk whose origin is another
	// node ships each peer's chunk straight there (see contribute).
	acc []store.Item
	// par marks a kindRange request that should fan out in parallel once
	// phase-1 routing reaches the peer owning the range's lower bound (a
	// kindRangeScatter branch is parallel by its kind); kind and par share a
	// word.
	kind kind
	par  bool
	// coll is the shared gather state of a parallel range query, set on
	// its kindRangeScatter branches from the step that made it (gather) on:
	// they carry no reply channel of their own, and the collector answers
	// the client when the last branch finishes.
	coll *collector
	// pred is the pushdown predicate of a range query, evaluated at the
	// owning peers so items that cannot match never cross the wire. Plain
	// serialisable data — see query.Pred. Every branch carries the query's
	// one pointer.
	pred *query.Pred
	// bulk carries the keys/items of a batched operation or a data handoff.
	bulk []store.Item
	// state, gains, moves and departTo are the payload of a kindUpdate
	// message (see membership.go).
	state    *peerState
	gains    []keyspace.Range
	moves    []handoffMove
	departTo core.PeerID
	// frac is the payload of a kindSplitKey request.
	frac float64
	// src names the peer whose items a replica message carries (or asks
	// for); dels lists replicated deletions; seq orders replica messages
	// from one source so a delta delivered after a later wholesale sync —
	// the two travel from different goroutines — is recognised as stale
	// (see replication.go).
	src  core.PeerID
	dels []keyspace.Key
	seq  int64
	// visited records the peers this request has already passed through so
	// fail-over never loops; only one copy of the request is in flight at a
	// time, so its spill map is never accessed concurrently.
	visited peerSet
	// epoch, when non-zero, marks a direct-routed request (RouteDirect fast
	// path): the sender believed the target owned key under the tagged
	// topology epoch. A receiver that does not own the key counts the miss
	// and validates the tag against the live epoch — an older tag is
	// re-aimed once via the current ring, a current one falls back to
	// classic per-hop overlay forwarding (see handle) — so churn costs
	// extra hops, never correctness. Zero is reserved to mean "not direct";
	// topology epochs start at 1.
	epoch uint64
	// enq is the hop-timing mark admit sets on every delivery (see
	// hopClockEvery): 0 when untimed. An int64, not a time.Time, keeps
	// request — and so every queued message — from growing.
	enq int64
	// trace, when non-nil, marks a sampled request: every peer that
	// handles it appends a hop record (see dispatch). Nil with sampling
	// off, which is what keeps instrumentation off the allocation budget.
	trace *obs.Trace
	reply chan response
	// rnode (declared beside onode, so the two share a word) and rcorr
	// identify the origin-node correlation of a request that crossed the
	// wire (set from the frame header by inboundRequest, never encoded in
	// the payload): the completion c.respond answers when reply is nil. Zero
	// on in-process requests and fire-and-forget wire messages.
	rcorr uint64
	// onode and ocorr name the origin entry of a range query that left its
	// origin node: where every contributing peer ships its chunk as a
	// partial response (rnode/rcorr name the completion of this branch
	// only). parts and shipped travel with a serial walk: the partials sent
	// so far, which the final response announces, and the items in them,
	// which a pushdown limit needs. All four are payload fields of the range
	// kinds and zero on in-process requests.
	rnode   transport.NodeID
	onode   transport.NodeID
	ocorr   uint64
	parts   int
	shipped int
}

// peerSet is a request's visited set. Its first eight members live inline
// as 32-bit slots, so an overlay walk allocates nothing for it; only a walk
// backing out of a dead region spills into the map, as does an id past
// 32 bits. Peer IDs are assigned from 1 upwards, so a zero slot is free.
type peerSet struct {
	few  [8]uint32
	more map[core.PeerID]bool
}

func (s *peerSet) has(id core.PeerID) bool {
	return id > 0 && id <= math.MaxUint32 && slices.Contains(s.few[:], uint32(id)) || s.more[id]
}

func (s *peerSet) add(id core.PeerID) {
	switch n := slices.Index(s.few[:], 0); {
	case id == core.NoPeer || s.has(id):
	case n >= 0 && id > 0 && id <= math.MaxUint32:
		s.few[n] = uint32(id)
	case s.more == nil:
		s.more = map[core.PeerID]bool{id: true}
	default:
		s.more[id] = true
	}
}

// ids appends the members to out in ascending order, the wire form.
func (s *peerSet) ids(out []core.PeerID) []core.PeerID {
	for _, v := range s.few {
		if v != 0 {
			out = append(out, core.PeerID(v))
		}
	}
	for id := range s.more {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// response is the terminal answer to a request.
type response struct {
	// value is a get's value or, with kept set, the items of a response off
	// the wire, still encoded (readResponse). kept fills found's padding.
	value   []byte
	found   bool
	kept    bool
	items   []store.Item
	results []BulkResult
	hops    int
	// parts is what the final response of a wire range branch announces: the
	// partial responses its sub-tree (or chain) sent to the query's origin.
	parts int
	// Membership replies.
	peerID   core.PeerID
	slot     int
	snap     *core.PeerSnapshot
	count    int
	splitKey keyspace.Key
	// replicaSets is the payload of a kindReplicaDump reply.
	replicaSets map[core.PeerID][]store.Item
	err         error
}

// peer is one live peer: a FIFO queue, drained by a goroutine of its own
// only while it holds work (drain). All fields other than the atomics and
// the queue are owned by whoever holds run once the peer has started;
// membership changes reach them as kindUpdate messages.
type peer struct {
	id core.PeerID
	// node is the transport node hosting this peer: 0 for peers served by
	// this process (the overwhelmingly common case — and the only case in
	// a single-process cluster), nonzero for a *stub* standing in for a
	// peer hosted elsewhere. A stub never queues; deliveries to it
	// detour through netLayer.deliver onto the wire (see node.go).
	// Immutable after construction.
	node transport.NodeID
	// peerState is the peer's position, range and links, replaced whole by
	// each kindUpdate (installState).
	peerState
	data *store.Store

	// queue holds the requests delivered while the peer was busy, oldest
	// first; qMu guards it and draining. push appends and, when no drainer
	// runs (draining is false), starts one; drain detaches the whole queue
	// and walks it, and exits once it finds the queue empty. The slice
	// grows on demand, and an emptied batch becomes the queue's buffer
	// again only while it is small (queueKeep), so a burst's memory goes
	// back to the GC.
	qMu      sync.Mutex
	queue    []request
	draining bool

	// run is the peer's ownership token: requests are handled only under
	// it. busy counts requests queued or running here; a sender runs one
	// inline only by taking busy from 0 to 1, so it never waits for run and
	// never overtakes a queued request.
	run  sync.Mutex
	busy atomic.Int64

	// pending lists key regions this peer now owns but whose items are
	// still in flight from the previous owner; requests touching them are
	// buffered in held and replayed when the handoff arrives, so a key in
	// mid-handoff is never served from a half-empty store.
	pending []keyspace.Range
	held    []request

	// met is this peer's block of the metrics registry (delivered / inline /
	// spilled / refused counters per kind, queue-wait and handle-time
	// histograms, queue gauges). Typed atomics throughout, written from
	// the delivery and drain paths without locks.
	met *obs.PeerMetrics

	// reqs counts the data requests (singleton, range, scatter and bulk
	// messages) this peer has handled — served or forwarded — the cheap
	// per-peer load signal behind Cluster.Loads' request-rate EWMA. items
	// mirrors the store's size, published by the token holder after
	// every mutation (noteItems), so the load meter reads stored-item
	// counts without a control message per peer.
	reqs  atomic.Int64
	items atomic.Int64

	// replicas holds, per source peer, a copy of that peer's items — the
	// fault-tolerance layer of replication.go. replTo is the peer the last
	// full replica sync went to, remembered so a later sync to a different
	// holder can tell the old one to drop the stale set. replSeq stamps
	// outgoing replica messages (this peer as source); replicaMin records,
	// per source, the seq of the last wholesale sync absorbed (this peer as
	// holder), so older deltas arriving late are discarded.
	replicas   map[core.PeerID]*store.Store
	replTo     core.PeerID
	replSeq    int64
	replicaMin map[core.PeerID]int64

	// departed marks a peer that has gracefully left: it stays behind as a
	// tombstone forwarding stragglers to departTo, the peer that took over
	// its range, until a later structural operation retires it (see
	// reapTombstones).
	departed bool
	departTo core.PeerID

	alive atomic.Bool
	// gone refuses new deliveries to a tombstone being retired; inflight
	// counts deliveries between acceptance and completion so retirement
	// can prove no send will land once it drops the peer.
	gone     atomic.Bool
	inflight atomic.Int64
}

// ringEntry is one slot of the client-side routing cache: a member peer and
// the lower bound of its range at the time the topology was published.
type ringEntry struct {
	id    core.PeerID
	lower keyspace.Key
	p     *peer
}

// topology is an immutable snapshot of the cluster's composition, swapped
// atomically on membership changes so the data path never takes a lock.
// peers holds every delivery target including killed members and departed
// tombstones; members, ring and ids describe the current overlay (killed
// peers included — they remain part of the structure — departed peers not).
// epoch counts ownership publications: it starts at 1 and is bumped by every
// publishTopology, so a request tagged with an older epoch may have been
// routed with a stale ring (see routecache.go).
type topology struct {
	peers   map[core.PeerID]*peer
	members map[core.PeerID]bool
	ring    []ringEntry
	ids     []core.PeerID
	hopCap  int
	epoch   uint64
	// retired holds the folded counters of every peer object dropped from
	// peers. It is replaced, never written, once published: the snapshot
	// that drops a peer carries a fresh block with that peer folded in, so
	// a reader sweeping peers and retired of one snapshot counts each
	// delivery exactly once.
	retired *obs.PeerMetrics
}

// clone copies the topology with a fresh peers map (the mutable part of a
// membership change); the published overlay description is shared until the
// caller replaces it. Every topology swap goes through here so a field
// added to the struct is carried everywhere or nowhere.
func (t *topology) clone() *topology {
	nt := *t
	nt.peers = make(map[core.PeerID]*peer, len(t.peers)+1)
	for id, p := range t.peers {
		nt.peers[id] = p
	}
	return &nt
}

// Cluster is a set of live peers animating a BATON overlay.
type Cluster struct {
	// fanout is the tree fanout m of the overlay the cluster animates,
	// adopted from the source network at construction; 2 is the paper's
	// binary protocol, larger values are the BATON* generalisation.
	// Immutable after NewCluster.
	fanout  int
	topo    atomic.Pointer[topology]
	wg      sync.WaitGroup
	done    chan struct{}
	stopped atomic.Bool

	// routeMode selects the entry path of singleton Get/Put/Delete requests
	// (RouteOverlay or RouteDirect — see routecache.go). Stale direct
	// routes are counted per detecting peer in the metrics registry;
	// Cluster.StaleRoutes sums them.
	routeMode atomic.Int32

	// The flight recorder (see metrics.go): sampler decides which requests
	// carry a trace, traces retains the completed ones, and journal records
	// structural operations. curEvent is the journal entry of the
	// structural operation in progress; guarded by memberMu. The counters
	// of peers reaped from the topology live in topology.retired.
	sampler  obs.Sampler
	traces   *obs.TraceRing
	journal  *obs.Journal
	curEvent *obs.Event

	// The query layer (query.go): planCache short-circuits the span
	// estimate and owner lookup for repeated ranges until the next epoch
	// bump, and plans counts the decisions for Metrics; the plan itself is
	// query.Choose's rule over the span.
	planCache *query.Cache
	plans     obs.PlanCounters

	// autoRecover and suspects feed the opt-in background repairer (see
	// recovery.go): routing paths that observe a dead responsible peer
	// report it, and the repairer runs Recover on it.
	autoRecover atomic.Bool
	suspects    chan core.PeerID

	// autoBalance marks the opt-in background balancer as started and
	// balanceEvents counts its successful actions; loadMu guards the
	// request-rate EWMA state Loads maintains between calls (loadmanager.go).
	autoBalance   atomic.Bool
	balanceEvents atomic.Int64
	loadMu        sync.Mutex
	loadLastAt    time.Time
	loadLastReqs  map[core.PeerID]int64
	loadRates     map[core.PeerID]float64

	// memberMu serialises structural operations — Join, Depart,
	// LoadBalance, Kill, Snapshot — against each other, the live
	// counterpart of the paper's serialisation of restructuring around the
	// affected region. Data traffic never takes it.
	memberMu sync.Mutex
	// mirror is the data-less structural authority: the same core.Network
	// logic that the simulator runs, kept in lockstep with the live peers.
	// Guarded by memberMu.
	mirror *core.Network
	// states caches the mirror's per-peer snapshot from after the last
	// structural operation; membership diffs are computed against it.
	states map[core.PeerID]core.PeerSnapshot
	// tombstones lists departed peers not yet retired. Guarded by memberMu.
	tombstones []*peer
	domain     keyspace.Range

	// net, when non-nil, is the node's connection to the rest of a
	// multi-process overlay (see node.go); nil for in-process clusters,
	// and every wire hook on the data path is gated on that nil check.
	// spawnAt, while a remote-requested join runs (guarded by memberMu),
	// redirects applyMirrorDiffLocked's phase-1 spawn to that node.
	net     *netLayer
	spawnAt transport.NodeID
}

// NewCluster builds a live cluster from a snapshot of the given simulated
// network: every peer's position, range, links and stored items are copied
// into an idle peer, which starts no goroutine until work queues at it. The
// network is consumed at this point in time; subsequent membership changes
// happen through the cluster's own Join and Depart.
func NewCluster(nw *core.Network) *Cluster {
	c := &Cluster{
		fanout:    nw.Fanout(),
		done:      make(chan struct{}),
		domain:    nw.Domain(),
		suspects:  make(chan core.PeerID, 64),
		traces:    obs.NewTraceRing(traceRingSize),
		journal:   obs.NewJournal(journalSize),
		planCache: query.NewCache(),
	}
	snapshot := core.Snapshot(nw)
	// The structural mirror keeps positions, ranges and links but no data:
	// the live peers own the items, and migrations move the real thing.
	mirrorSnaps := make([]core.PeerSnapshot, len(snapshot))
	for i, ps := range snapshot {
		ps.Items = nil
		mirrorSnaps[i] = ps
	}
	mirror, err := core.FromSnapshot(c.domain, mirrorSnaps)
	if err != nil {
		panic(fmt.Sprintf("p2p: network snapshot is not a valid overlay: %v", err))
	}
	c.mirror = mirror
	c.states = snapshotMap(mirrorSnaps)

	t := &topology{
		peers:   make(map[core.PeerID]*peer),
		members: make(map[core.PeerID]bool),
		retired: obs.NewPeerMetrics(numKinds),
	}
	t.epoch = 1
	for _, ps := range snapshot {
		p := newPeer(ps.ID, c.fanout)
		p.installState(buildState(ps, c.states))
		p.data.Absorb(ps.Items)
		p.noteItems()
		p.alive.Store(true)
		t.peers[p.id] = p
		t.members[p.id] = true
		t.ring = append(t.ring, ringEntry{id: p.id, lower: p.rng.Lower, p: p})
		t.ids = append(t.ids, p.id)
	}
	sort.Slice(t.ring, func(i, j int) bool { return t.ring[i].lower < t.ring[j].lower })
	sort.Slice(t.ids, func(i, j int) bool { return t.ids[i] < t.ids[j] })
	t.hopCap = 8 * (len(snapshot) + 4)
	c.topo.Store(t)

	// Seed the fault-tolerance layer: every peer ships its items to its
	// replica holder before the cluster is handed to clients, so a crash is
	// recoverable from the first request on.
	c.memberMu.Lock()
	c.resyncReplicas(nil)
	c.memberMu.Unlock()
	return c
}

// traceRingSize and journalSize bound the flight recorder's memory: the
// most recent completed traces and structural events are retained, older
// ones are evicted.
const (
	traceRingSize = 256
	journalSize   = 512
)

// newPeer builds a peer object with every always-present field
// initialised — the single place the per-peer metrics block is attached,
// so a delivery target can never lack one.
func newPeer(id core.PeerID, fanout int) *peer {
	return &peer{
		id:        id,
		peerState: peerState{view: core.View{Children: make([]*core.Link, fanout)}},
		data:      store.New(),
		met:       obs.NewPeerMetrics(numKinds),
	}
}

// snapshotMap indexes per-peer snapshots by peer ID.
func snapshotMap(snaps []core.PeerSnapshot) map[core.PeerID]core.PeerSnapshot {
	out := make(map[core.PeerID]core.PeerSnapshot, len(snaps))
	for _, ps := range snaps {
		out[ps.ID] = ps
	}
	return out
}

// Size returns the number of member peers in the cluster (dead or alive;
// gracefully departed peers are not members).
func (c *Cluster) Size() int { return len(c.topo.Load().ids) }

// Messages returns the total number of peer-to-peer messages delivered:
// the per-peer delivery counters of one topology snapshot plus the peers it
// has already retired, so the total never goes backwards across churn.
func (c *Cluster) Messages() int64 {
	t := c.topo.Load()
	total := t.retired.DeliveredTotal()
	for _, p := range t.peers {
		total += p.met.DeliveredTotal()
	}
	return total
}

// Domain returns the key domain the cluster partitions.
func (c *Cluster) Domain() keyspace.Range { return c.domain }

// PeerIDs returns the IDs of all member peers in ascending order.
func (c *Cluster) PeerIDs() []core.PeerID {
	ids := c.topo.Load().ids
	out := make([]core.PeerID, len(ids))
	copy(out, ids)
	return out
}

// Kill stops the given peer abruptly: its queue keeps being drained (so
// senders never block) but it answers every queued or future data
// request with ErrOwnerDown, and every new request addressed to it fails
// over to an alternative path at the sender, exactly like an unreachable
// address. The crashed process's stores — its own items and any replicas it
// held for other peers — are wiped, so nothing recovery later reads can
// come from the dead peer itself. The peer's range stays assigned to it,
// and ErrOwnerDown keeps being returned for it, until Recover (or the
// background repairer started by StartAutoRecover) repairs the structure
// and restores the range from the surviving replica at the adjacent peer —
// see recovery.go. Kill serialises with membership changes so a migration's
// source or destination can never die mid-handoff.
func (c *Cluster) Kill(id core.PeerID) (err error) {
	if err := c.requireCoordinator(); err != nil {
		return err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.journalBegin("kill", id)
	defer func() { c.journalEnd(err) }()
	t := c.topo.Load()
	p := t.peers[id]
	if p == nil || !t.members[id] {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	p.alive.Store(false)
	// The wipe runs under the peer's token (its stores are owned by the
	// holder) and is acknowledged, so when Kill returns the data is provably
	// gone — a recovery that cheats by reading the dead peer's store would
	// fail the crash tests instead of silently passing.
	ch := make(chan response, 1)
	if c.sendAny(id, request{kind: kindCrash, reply: ch}) {
		select {
		case <-ch:
		case <-c.done:
			return ErrStopped
		}
	}
	if c.net != nil {
		// Same epoch, updated alive flag: other nodes' stubs for the dead
		// peer must start refusing sends just like this node's did.
		c.net.broadcastTopoLocked(c)
	}
	return nil
}

// peerByID returns the live peer object for direct inspection (tests only;
// a peer's non-atomic fields are owned by its token holder while traffic
// runs).
func (c *Cluster) peerByID(id core.PeerID) *peer { return c.topo.Load().peers[id] }

// Alive reports whether the given peer is up.
func (c *Cluster) Alive(id core.PeerID) bool {
	p, ok := c.topo.Load().peers[id]
	return ok && p.alive.Load()
}

// Stop shuts the cluster down and waits for every drainer to exit; none
// starts once it has begun (see push). It is safe to call concurrently
// with in-flight requests and membership changes (they complete or return
// ErrStopped) and is idempotent. No
// channel a sender uses is ever closed — shutdown is broadcast on c.done —
// so a concurrent send can never panic.
func (c *Cluster) Stop() {
	c.memberMu.Lock()
	already := c.stopped.Swap(true)
	if !already {
		close(c.done)
	}
	c.memberMu.Unlock()
	if !already {
		// A barrier: a push that read stopped unset under its peer's qMu
		// has counted its drainer in c.wg before this loop takes that qMu,
		// so no Add from zero can race the Wait below. The topology holds
		// every peer a push can reach: spawns check stopped under
		// memberMu, and a reaped tombstone takes no more deliveries.
		// Nothing queued runs after Stop, so the queues go too.
		for _, p := range c.topo.Load().peers {
			p.qMu.Lock()
			p.queue = nil
			p.qMu.Unlock()
		}
		if c.net != nil {
			// Unblock control RPCs first: the ctl worker is in the
			// WaitGroup and may be waiting on one.
			c.net.beginClose()
		}
		c.wg.Wait()
		if c.net != nil {
			c.net.finishClose()
		}
	}
}

// send delivers a request to the peer with the given ID. It reports false
// when the target is dead or the cluster is stopped. A busy target never
// blocks the caller: the request is appended to the target's unbounded
// queue, so a peer's handler can never block on another peer — a cycle of
// such sends is the classic message-system deadlock, and avoiding it is
// what keeps the "calls never block indefinitely" contract true under any
// client count. The append is a short critical section on the target's own
// lock, so delivery starts at most one goroutine (the target's drainer)
// however saturated the peer is.
func (c *Cluster) send(to core.PeerID, req request) bool {
	return c.deliver(to, req, false)
}

// sendAny is send for membership control traffic: it delivers even to
// killed peers, whose recorded structure must keep tracking the overlay.
func (c *Cluster) sendAny(to core.PeerID, req request) bool {
	return c.deliver(to, req, true)
}

func (c *Cluster) deliver(to core.PeerID, req request, evenDead bool) bool {
	p, ok := c.topo.Load().peers[to]
	return ok && c.deliverTo(p, req, evenDead)
}

// Hop timing: a peer times 1 delivery in hopClockEvery of each kind, plus
// every traced one — a clock read and two histograms per hop cost more than
// the routing-table lookup. A timed request's enq is enqInline (a stamp in
// the future, so its wait clamps to 0) or the hopClock reading when it
// queued; hopEpoch sits a second back, so a reading is never 0 (untimed).
const (
	hopClockEvery = 64
	enqInline     = 1<<63 - 1
)

var hopEpoch = time.Now().Add(-time.Second)

func hopClock() int64 { return int64(time.Since(hopEpoch)) }

// deliverTo is deliver for callers that already hold the peer object (the
// direct-routing fast path resolves the owner from the ring). A request to
// an idle local peer runs on the calling goroutine — still one message,
// queue wait 0, no drainer — and so does each hop it is handed on to.
func (c *Cluster) deliverTo(p *peer, req request, evenDead bool) bool {
	ok, inline := c.admit(p, &req, evenDead, false)
	if inline {
		next := c.dispatch(p, &req)
		p.inflight.Add(-1)
		c.walk(p, next, &req)
	}
	return ok
}

// walk hands req on from p, whose handler has released p's token, to next
// and on, one hop at a time, until a handler is done or a hop queues. If
// admit refuses next (it died or was retired since p chose it), p gets the
// request again and re-chooses; each re-run charges a hop, capping the loop.
func (c *Cluster) walk(p, next *peer, req *request) {
	for next != nil {
		ok, inline := c.admit(next, req, false, false)
		if !ok {
			req.visited.add(next.id)
			next = p
			if ok, inline = c.admit(p, req, false, false); !ok {
				c.refuse(p, *req, ErrOwnerDown)
				return
			}
		}
		if !inline {
			return
		}
		p, next = next, c.dispatch(next, req)
		p.inflight.Add(-1)
	}
}

// admit counts and stamps a delivery to p (ok is false if p is dead or
// retired, or the cluster is stopping) and decides where it runs: inline
// when p is local and idle (busy 0 → 1) — the caller dispatches it, then
// drops p.inflight — else queued. With queue set it is queued even then:
// that is how a range step spawns its branches (spawn), which run inline
// would run one after another, nested under its token, instead of in
// parallel; the step hands its last branch on instead. A walk's hops do not
// nest (walk hands on); what still runs under a token — tombstone
// forwarding, replica deltas and resyncs, handoffs, held replays, wire
// stubs — ends after fixed levels or is charged a hop a level, so the hop
// cap bounds it.
func (c *Cluster) admit(p *peer, req *request, evenDead, queue bool) (ok, inline bool) {
	if c.stopped.Load() {
		return false, false
	}
	if !evenDead && !p.alive.Load() {
		return false, false
	}
	// The inflight count brackets the whole delivery, an inline run and a
	// wire hand-off too, so a tombstone is only retired — its counters
	// folded into the retired block — once provably no send can still
	// land in its queue or count against it; a delivery beginning after
	// gone is set backs out, and its caller fails over as if the peer were
	// dead.
	p.inflight.Add(1)
	if p.gone.Load() {
		p.inflight.Add(-1)
		return false, false
	}
	if p.node != 0 {
		// A stub for a peer hosted on another node: hand the request to the
		// wire (same refusal semantics; the correlation machinery replaces
		// the reply channel).
		ok = c.net != nil && c.net.deliver(p, *req, evenDead)
		p.inflight.Add(-1)
		return ok, false
	}
	req.enq = 0
	if n := p.met.Delivered(int(req.kind)); n%hopClockEvery == 0 || req.trace != nil {
		req.enq = enqInline
	}
	if !queue && p.busy.CompareAndSwap(0, 1) {
		p.met.Inline(int(req.kind))
		return true, true
	}
	p.busy.Add(1)
	if req.enq != 0 {
		req.enq = hopClock()
	}
	c.push(p, req)
	p.inflight.Add(-1)
	return true, false
}

// queueKeep caps, in requests, the buffer an emptied queue keeps for reuse
// (≤ 4 KB at request's pinned size): a larger one, left by a burst, goes
// back to the GC.
const queueKeep = 8

// push appends req to p's queue and starts a drainer for it when none
// runs: the one place queued work gets a goroutine. Deliveries to one peer
// run in the order they are pushed. The ordering matters beyond tidiness:
// replica deltas from one source rely on it to apply in the order they
// were acknowledged (replication.go). Once the cluster is stopped no
// drainer starts; the check sits under qMu, where Stop's barrier finds it.
func (c *Cluster) push(p *peer, req *request) {
	p.qMu.Lock()
	backlog := len(p.queue)
	p.queue = append(p.queue, *req)
	// The gauge rides the critical section already paid for the append,
	// which keeps its high-water mark race-free.
	p.met.SetQueueDepth(int64(backlog + 1))
	start := !p.draining && !c.stopped.Load()
	if start {
		p.draining = true
		c.wg.Add(1)
	}
	p.qMu.Unlock()
	if backlog > 0 {
		p.met.Spilled(int(req.kind))
	}
	if start {
		go c.drain(p)
	}
}

// nextBatch detaches and returns everything queued at p, nil if nothing
// is — and then p's drainer is done: draining is cleared in the same
// critical section, so the next push starts a new one. done is the batch
// walked last, or nil: it is cleared, so it pins no reply channels or
// items, and becomes the queue's buffer if it is small.
func (p *peer) nextBatch(done []request) []request {
	clear(done)
	if cap(done) > queueKeep {
		done = nil
	}
	p.qMu.Lock()
	q := p.queue
	if len(q) > 0 || done != nil {
		p.queue = done[:0]
	}
	p.draining = len(q) > 0
	p.met.SetQueueDepth(0)
	p.qMu.Unlock()
	if len(q) == 0 {
		return nil
	}
	return q
}

// noteItems publishes the store's current size for the lock-free load
// meter (Cluster.Loads); called by the token holder after every mutation
// of p.data.
func (p *peer) noteItems() { p.items.Store(int64(p.data.Len())) }

// Get looks up key starting at peer via. Under RouteDirect the request is
// sent straight to the key's owner instead (via is the fallback entry point
// when the route cache is stale — see routecache.go).
func (c *Cluster) Get(via core.PeerID, key keyspace.Key) ([]byte, bool, int, error) {
	resp, err := c.route(via, request{kind: kindGet, key: key})
	if err != nil {
		return nil, false, 0, err
	}
	return resp.value, resp.found, resp.hops, resp.err
}

// Put stores value under key starting at peer via (owner-direct under
// RouteDirect, like Get).
func (c *Cluster) Put(via core.PeerID, key keyspace.Key, value []byte) (int, error) {
	resp, err := c.route(via, request{kind: kindPut, key: key, value: value})
	if err != nil {
		return 0, err
	}
	return resp.hops, resp.err
}

// Delete removes key starting at peer via, reporting whether it existed
// (owner-direct under RouteDirect, like Get).
func (c *Cluster) Delete(via core.PeerID, key keyspace.Key) (bool, int, error) {
	resp, err := c.route(via, request{kind: kindDelete, key: key})
	if err != nil {
		return false, 0, err
	}
	return resp.found, resp.hops, resp.err
}

// issue enters the request into the overlay at entry — the owner a route
// cache or plan cache names, nil for none — and waits for the answer. When
// entry is nil, dead or retired it enters at via instead, untagged (a
// direct-routed request degrades to a plain overlay request), and via's
// usual fail-over rules apply. via is validated either way, so the entry
// point changes message counts, never call semantics.
func (c *Cluster) issue(via core.PeerID, entry *peer, req request) (response, error) {
	if c.stopped.Load() {
		return response{}, ErrStopped
	}
	vp, ok := c.topo.Load().peers[via]
	if !ok {
		return response{}, fmt.Errorf("%w: %d", ErrUnknownPeer, via)
	}
	if entry != nil {
		if resp, sent, err := c.await(entry, &req); sent {
			return resp, err
		}
		req.epoch = 0
	}
	if resp, sent, err := c.await(vp, &req); sent {
		return resp, err
	}
	if c.stopped.Load() {
		return response{}, ErrStopped
	}
	c.suspect(via)
	return response{}, fmt.Errorf("%w: %d", ErrOwnerDown, via)
}

// await delivers the request to p and waits for the answer; sent is false
// when nothing was delivered (p is dead or retired, or the cluster is
// stopping). The wait also watches the cluster's done channel so a client
// can never block across Stop. Reply channels come from a pool: every
// request is answered exactly once, so a channel whose answer has been
// consumed — or that was never sent — is clean for reuse; a wait abandoned
// at Stop leaves its channel to the garbage collector instead, so a late
// answer can never surface under a later request.
func (c *Cluster) await(p *peer, req *request) (resp response, sent bool, err error) {
	req.reply = getReply()
	if !c.deliverTo(p, *req, false) {
		putReply(req.reply)
		return response{}, false, nil
	}
	select {
	case resp = <-req.reply:
		putReply(req.reply)
		return resp, true, nil
	case <-c.done:
		//batonvet:ignore replypool abandoned on Stop by design: the late answer must not reach the pool (see the doc comment above)
		return response{}, true, ErrStopped
	}
}

// drain is p's drainer, started by push: it walks each queued request in
// turn (one that found the peer idle ran inline on its sender instead) and
// exits when nextBatch finds the queue empty or the cluster has stopped. A
// delivery landing mid-walk queues behind the batch. A killed peer's queue
// keeps being drained so senders never block, but handle refuses every
// data request with ErrOwnerDown — a request already queued when the peer
// died must still be answered or its client would hang forever. Control
// messages (structural updates, handoffs, snapshots, crash wipes) are
// handled even when dead, because a killed peer remains part of the
// overlay structure until recovery removes it.
func (c *Cluster) drain(p *peer) {
	defer c.wg.Done()
	for q := p.nextBatch(nil); q != nil && !c.stopped.Load(); q = p.nextBatch(q) {
		for i := range q {
			c.walk(p, c.dispatch(p, &q[i]), &q[i])
		}
	}
}

// dispatch runs one request through handle under p's token, retires it
// from p.busy and returns handle's next hop. It times a timed delivery's
// run (hopClockEvery): the delivery stamp becomes the queue-wait sample (0
// inline), the handle duration — p's own work, not the hops after it — the
// handle-time sample, and a traced request gets its hop appended before
// handle runs, so the chain records peers in the order the message
// travelled. The hop's handle time is back-filled.
func (c *Cluster) dispatch(p *peer, req *request) *peer {
	p.run.Lock()
	var start int64
	hop := -1
	if req.enq != 0 {
		start = hopClock()
		wait := max(start-req.enq, 0)
		p.met.ObserveQueueWait(wait)
		if req.trace != nil {
			hop = req.trace.Append(obs.Hop{
				Peer:        int64(p.id),
				Kind:        req.kind.String(),
				Level:       p.pos.Level,
				QueueWaitNs: wait,
			})
		}
	}
	next := c.handle(p, req)
	if req.enq != 0 {
		took := hopClock() - start
		p.met.ObserveHandle(took)
		if hop >= 0 {
			req.trace.SetHandleNs(hop, took)
		}
	}
	p.run.Unlock()
	p.busy.Add(-1)
	return next
}

// refuse terminates a request with the given error, whichever completion
// path it uses (finish): a range branch with a collector settles into it,
// everything else answers its reply channel or wire correlation.
// Fire-and-forget messages (replica updates) have neither and are simply
// dropped. The refusal is attributed to p — the peer at which the request
// died — in the metrics registry; client-side callers that refuse before
// any peer was involved pass nil.
func (c *Cluster) refuse(p *peer, req request, err error) {
	if p != nil {
		p.met.Refused(int(req.kind))
	}
	c.finish(&req, err)
}

// handle runs req at p under p's token and returns the local peer to hand
// it on to, or nil when p has answered, buffered or sent it itself.
func (c *Cluster) handle(p *peer, req *request) *peer {
	req.hops++
	if req.hops > c.topo.Load().hopCap {
		c.refuse(p, *req, ErrUnreachable)
		return nil
	}
	info := kinds[req.kind]
	switch {
	case info.control:
		// Addressed to this exact peer: applies regardless of departure,
		// death or pending handoffs.
	case p.departed && req.kind != kindReplicaFetch:
		// A departed peer is a tombstone: stale routing state may still
		// address it, and everything it receives belongs to the peer that
		// absorbed its range now. This is checked before aliveness so a
		// crashed peer that recovery has repaired forwards stragglers
		// instead of refusing them. Forwarded under the token, not handed
		// on: replica deltas passing through a tombstone keep their per-peer
		// FIFO order. The fetch is the exception: a tombstone still holds the
		// replica sets it accumulated as a holder, and for a dead source they
		// are the only surviving copy — the peer that absorbed the
		// tombstone's range never held them.
		if !c.send(p.departTo, *req) {
			c.refuse(p, *req, ErrOwnerDown)
		}
		return nil
	case p.departed:
		// The replica fetch, answered below.
	case !p.alive.Load():
		// A killed peer refuses everything else: its data is gone, and
		// replicas it pretended to accept would be silently lost.
		c.refuse(p, *req, ErrOwnerDown)
		return nil
	case info.data && p.touchesPending(req):
		// Requests touching a region whose items are still in flight are
		// held until the handoff lands; applyHandoff replays them.
		p.held = append(p.held, *req)
		return nil
	}
	// Count data requests for the load meter: everything this peer serves
	// or forwards is work it performs (routing load included), which is
	// what the request-rate EWMA of Cluster.Loads reports. Counted after
	// the buffering check so a held request is tallied exactly once, when
	// its replay finally handles it — not once per buffer-and-replay round.
	if info.data {
		p.reqs.Add(1)
	}
	switch req.kind {
	case kindUpdate:
		c.applyUpdate(p, *req)
	case kindHandoff:
		c.applyHandoff(p, *req)
	case kindSnapshot:
		c.respond(*req, response{snap: p.snapshot(), hops: req.hops})
	case kindCrash:
		c.applyCrash(p, *req)
	case kindReplicate:
		c.applyReplicate(p, *req)
	case kindReplicaSync:
		c.applyReplicaSync(p, *req)
	case kindReplicaDrop:
		delete(p.replicas, req.src)
	case kindReplicaResync:
		c.handleReplicaResync(p, *req)
	case kindReplicaFetch:
		c.respond(*req, response{items: p.replicaFor(req.src).Items(), hops: req.hops})
	case kindReplicaDump:
		c.handleReplicaDump(p, *req)
	case kindJoinLocate:
		return c.handleJoinLocate(p, req)
	case kindFindReplacement:
		return c.handleFindReplacement(p, req)
	case kindStats:
		c.respond(*req, response{count: p.data.Len(), hops: req.hops})
	case kindSplitKey:
		k, ok := p.data.KeyAtFraction(req.frac)
		c.respond(*req, response{splitKey: k, found: ok, hops: req.hops})
	case kindRange, kindRangeScatter:
		return c.handleRange(p, req)
	case kindBulkGet, kindBulkPut, kindBulkDelete:
		c.handleBulk(p, *req)
	case kindGet:
		if !c.owns(p, req.key) {
			return c.reroute(p, req)
		}
		v, ok := p.data.Get(req.key)
		c.respond(*req, response{value: v, found: ok, hops: req.hops})
	case kindPut:
		if !c.owns(p, req.key) {
			return c.reroute(p, req)
		}
		p.data.Put(req.key, req.value)
		p.noteItems()
		c.replicateWrite(p, []store.Item{{Key: req.key, Value: req.value}}, nil)
		c.respond(*req, response{hops: req.hops})
	case kindDelete:
		if !c.owns(p, req.key) {
			return c.reroute(p, req)
		}
		ok := p.data.Delete(req.key)
		if ok {
			p.noteItems()
			c.replicateWrite(p, nil, []keyspace.Key{req.key})
		}
		c.respond(*req, response{found: ok, hops: req.hops})
	}
	return nil
}

// reroute moves a singleton key request this peer does not own towards the
// owner.
func (c *Cluster) reroute(p *peer, req *request) *peer {
	if req.epoch != 0 {
		// A direct-routed request reached a peer that does not own its key.
		// Validate the tag against the live epoch to pick the recovery: a
		// tag from an older publication means the sender's ring was stale,
		// so the current ring is strictly newer information — re-aim the
		// request at the owner it names, one extra hop instead of a per-hop
		// walk. A current tag means the miss races an in-flight publication
		// (this peer's range moved before the new ring went out), so the
		// ring that just missed cannot help; fall through to classic
		// overlay forwarding. Either way the request degrades to a plain
		// overlay request (epoch cleared), so a second miss walks per-hop
		// and no re-aim loop is possible.
		t := c.topo.Load()
		stale := req.epoch != t.epoch
		req.epoch = 0
		p.met.StaleRoute()
		if e := t.entryOf(req.key); stale && e != nil && e.p != p {
			if next, ok := c.handTo(e.id, req); ok {
				return next
			}
		}
	}
	return c.forward(p, req)
}

// touchesPending reports whether a data request reads or writes a key
// region this peer owns but has not yet received the items for.
func (p *peer) touchesPending(req *request) bool {
	for _, r := range p.pending {
		switch req.kind {
		case kindRange, kindRangeScatter:
			if r.Intersects(req.rng) {
				return true
			}
		case kindBulkGet, kindBulkPut, kindBulkDelete:
			for _, it := range req.bulk {
				if r.Contains(it.Key) {
					return true
				}
			}
		default:
			// The singleton key kinds.
			if r.Contains(req.key) {
				return true
			}
		}
	}
	return false
}

// owns reports whether p answers for key: it holds key's range, or key lies
// past the domain on p's open side (the simulator's rule that the leftmost
// and rightmost peers are responsible for keys outside the domain).
func (c *Cluster) owns(p *peer, key keyspace.Key) bool {
	return p.rng.Contains(key) ||
		key < p.rng.Lower && p.view.Adj[core.Left] == nil ||
		key >= p.rng.Upper && p.view.Adj[core.Right] == nil
}

// forward applies the search_exact forwarding rule (core.ForwardCandidates)
// and fails over across the candidate list when targets are dead, avoiding
// peers the request has already visited unless no other alternative
// remains; see handTo.
func (c *Cluster) forward(p *peer, req *request) *peer {
	req.visited.add(p.id)
	var buf [48]*core.Link
	cands := core.ForwardCandidates(&p.view, p.rng, req.key, buf[:0])
	// If the peer responsible for the key is among the candidates but is
	// down, the data is unavailable: refuse at once, before trying any
	// other candidate. (The simulator stops there too, but only when it
	// reaches that candidate in order.)
	for _, cand := range cands {
		if cand != nil && cand.Owns(req.key) && !c.Alive(cand.ID) {
			c.suspect(cand.ID)
			c.refuse(p, *req, ErrOwnerDown)
			return nil
		}
	}
	for _, cand := range cands {
		if cand == nil || req.visited.has(cand.ID) {
			continue
		}
		if next, ok := c.handTo(cand.ID, req); ok {
			return next
		}
		if q := c.topo.Load().peers[cand.ID]; cand.Owns(req.key) && q != nil && q.node != 0 {
			// The responsible peer's node took nothing: it is down as a dead
			// peer is, and every other route would end at the same node.
			c.refuse(p, *req, ErrOwnerDown)
			return nil
		}
	}
	// Every unvisited candidate is dead: back out of the dead region through
	// an already-visited peer, chosen at random where the simulator retraces
	// in candidate order. A deterministic choice here can bounce a live
	// request around the same closed orbit until the hop cap even though a
	// detour exists; randomising the escape makes the walk ergodic, so with
	// the generous hop cap the request finds any alive route that exists.
	alive := cands[:0]
	for _, cand := range cands {
		if cand != nil && c.Alive(cand.ID) {
			alive = append(alive, cand)
		}
	}
	for _, i := range rand.Perm(len(alive)) {
		if next, ok := c.handTo(alive[i].ID, req); ok {
			return next
		}
	}
	c.refuse(p, *req, ErrUnreachable)
	return nil
}

// handTo is every walk's one hop rule — overlay forwarding, the range step's
// last segment, join locate, replacement find: it returns a local peer admit
// would accept, for walk, and sends anything else under the token (ok:
// passed on).
func (c *Cluster) handTo(id core.PeerID, req *request) (next *peer, ok bool) {
	if q := c.topo.Load().peers[id]; q != nil && q.node == 0 && !c.stopped.Load() && q.alive.Load() && !q.gone.Load() {
		return q, true
	}
	return nil, c.send(id, *req)
}
