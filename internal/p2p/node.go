// The multi-process face of the cluster: netLayer carries the p2p protocol
// over a transport.Transport so one overlay can span several OS processes
// ("nodes"). Peers hosted by this process are served exactly as before —
// the in-process queue fast path never builds a frame — while peers hosted
// elsewhere appear locally as *stubs*: peer objects with node != 0 that
// never queue, whose deliveries detour through netLayer.deliver onto the
// wire.
//
// # Correlation
//
// Reply channels cannot cross a process boundary. A request that expects an
// answer acquires an entry in the origin node's correlation table
// (acquireCorr) and travels with the entry's ID in the frame header; the
// node that finally serves it wire-replies to the frame's Origin with the
// same ID, and the origin releases the entry (releaseCorr) and runs its
// completion — a channel send, or a range collector's branch retiring.
// Entries are released exactly once: on response arrival, when the
// connection they depend on drops (completed with ErrOwnerDown, the failure
// retry layers already handle), or at Stop (ErrStopped). batonvet's
// replypool analyzer checks the acquire/release pairing. Control RPCs
// (netLayer.rpc) hold entries in the same table: the reply is a response
// frame whose value is the reply body, and an RPC that times out or ends
// with Stop releases its entry itself.
//
// A range query that leaves its origin node holds one more entry there, the
// *origin entry* (anyNode): range items never travel in requests, nor back
// along the route — every contributing peer encodes its part from its store
// into a partial response frame (msgFlagPartial) to that entry, once. The
// entry is looked up, not released, per partial (lookupCorr); the query's
// collector releases it on completion. Control stays hierarchical: each
// branch — a scatter sub-request, or the whole serial chain — has an
// ordinary entry at the node that sent it, answered by one final response of
// counts (hops, error, and how many partials the branch's sub-tree sent the
// origin). The senders count partials, the origin counts arrivals, and the
// collector is complete when every branch has reported and the two counts
// agree; see collector in range_fanout.go.
//
// # Roles
//
// The node that built the overlay (NewClusterListen) is the *coordinator*
// (head): it owns the structural mirror, runs every membership operation,
// and broadcasts topology snapshots (ctlTopo) that the other nodes
// (daemons, via JoinRemote) apply to keep their stub tables current.
// Daemons host peers and serve data traffic; structural APIs on a daemon
// return ErrNotCoordinator.
package p2p

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/query"
	"baton/internal/transport"
)

// ErrNotCoordinator is returned by structural operations (Join, Depart,
// Kill, Recover, LoadBalance, ...) invoked on a node that is not the
// cluster's coordinator. Membership is centrally serialised at the head
// node, the live counterpart of the paper's serialisation of restructuring.
var ErrNotCoordinator = errors.New("p2p: structural operations run at the coordinator node")

// headNodeID is the coordinator's transport ID; daemons are assigned IDs
// from 2 during the hello handshake.
const headNodeID transport.NodeID = 1

// msgFlagAny is the transport-frame flag carrying sendAny's even-dead bit:
// membership control traffic must reach killed peers on remote nodes too,
// and the bit lives in the frame header rather than the payload because it
// is an instruction to the *delivery* at the receiving node, not part of
// the request.
const msgFlagAny = 1 << 0

// msgFlagPartial marks a response frame as one chunk of a range answer on
// its way to the query's origin entry: it completes nothing, and any number
// may precede — or, on another connection, trail — the finals that announce
// them.
const msgFlagPartial = 1 << 1

// anyNode is the node an origin entry depends on: every one. Finals announce
// how many partials were sent, not by whom, so when any connection drops the
// origin cannot tell whether a chunk went with it and ends the query with
// ErrOwnerDown and what has arrived.
const anyNode = ^transport.NodeID(0)

// ctlOp is a control-plane opcode (first payload byte of a msgControl
// frame). A defined type so batonvet's kindexhaustive check covers the ctl
// worker's dispatch: adding an opcode without deciding how handleCtl treats
// it is a compile-time-silent, analysis-time-loud mistake. A reply travels
// as a response frame (msgResponse) to the RPC's correlation entry.
type ctlOp byte

// Control-plane opcodes.
const (
	ctlHello ctlOp = iota + 1 // daemon→head: helloMsg; reply helloReply
	ctlJoin                   // daemon→head: joinMsg, peers to host; reply joinMsg, peers joined
	ctlSpawn                  // head→daemon: spawnMsg, create a hosted peer; reply spawnReply
	ctlTopo                   // head→daemon broadcast: topoMsg, no reply
	ctlLoads                  // head→daemon: no body; reply loadsMsg
	ctlPush                   // local only: head ctl worker pushes topology to one node
)

// The control bodies, each a layout on the wire codec.
type (
	helloMsg   struct{ addr []byte } // the daemon's listen address
	helloReply struct {
		domain keyspace.Range
		fanout int
	}
	joinMsg  struct{ count int }
	spawnMsg struct {
		id    core.PeerID
		st    *peerState
		gains []keyspace.Range
	}
	spawnReply struct{ ok bool }
	topoMsg    struct {
		epoch   uint64
		members []topoMember
		addrs   []nodeAddr // the first is the sender's
	}
	topoMember struct {
		id    core.PeerID
		node  transport.NodeID
		rng   keyspace.Range
		alive bool
	}
	nodeAddr struct {
		node transport.NodeID
		addr []byte
	}
	loadsMsg struct{ loads []peerLoad }
	peerLoad struct {
		id          core.PeerID
		reqs, items int64
	}
)

func (m *helloMsg) wire(c *codec)   { c.bytes(&m.addr) }
func (m *helloReply) wire(c *codec) { c.rng(&m.domain); w32(c, &m.fanout) }
func (m *joinMsg) wire(c *codec)    { w32(c, &m.count) }
func (m *spawnMsg) wire(c *codec)   { w64(c, &m.id); c.state(&m.st); c.ranges(&m.gains) }
func (m *spawnReply) wire(c *codec) { c.bool(&m.ok) }

func (m *topoMsg) wire(c *codec) {
	w64(c, &m.epoch)
	for i := range length(c, &m.members, 29) {
		e := &m.members[i]
		w64(c, &e.id)
		w32(c, &e.node)
		c.rng(&e.rng)
		c.bool(&e.alive)
	}
	for i := range length(c, &m.addrs, 8) {
		w32(c, &m.addrs[i].node)
		c.bytes(&m.addrs[i].addr)
	}
}

func (m *loadsMsg) wire(c *codec) {
	for i := range length(c, &m.loads, 24) {
		l := &m.loads[i]
		w64(c, &l.id)
		w64(c, &l.reqs)
		w64(c, &l.items)
	}
}

// rpcTimeout bounds a control RPC: a wedged remote must not hang a
// structural operation forever (the join loop is the longest-running RPC).
const rpcTimeout = 30 * time.Second

// corrEntry is one outstanding wire request: the node whose connection the
// response depends on, and who is waiting — a channel, or the collector of a
// range query, which holds one entry per branch out and, under anyNode, the
// origin entry its chunks arrive at. Plain fields rather than a closure: an
// entry costs no allocation.
type corrEntry struct {
	node transport.NodeID
	ch   chan response
	coll *collector
}

// complete hands the waiter its response: a collector takes the items as
// they came, to decode straight into the answer; a channel gets them
// decoded.
func (e corrEntry) complete(r response) {
	if e.coll != nil {
		e.coll.fromWire(r, e.node != anyNode)
		return
	}
	if r.kept {
		r.items, r.value, r.kept = appendKept(nil, r.value, len(r.value)), nil, false
	}
	e.ch <- r
}

// corrTable maps correlation IDs to completions. IDs are never reused
// (64-bit counter), so a late response for a released entry is dropped.
type corrTable struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]corrEntry
}

// acquireCorr registers a completion and returns its correlation ID.
// Package-level (not a method) so batonvet's replypool analyzer can pair
// acquire and release sites the same way it pairs getReply/putReply.
func acquireCorr(t *corrTable, e corrEntry) uint64 {
	t.mu.Lock()
	t.next++
	id := t.next
	if t.m == nil {
		t.m = make(map[uint64]corrEntry)
	}
	t.m[id] = e
	t.mu.Unlock()
	return id
}

// releaseCorr removes and returns the completion for id; ok is false when
// the entry was already released (response raced a connection drop).
func releaseCorr(t *corrTable, id uint64) (e corrEntry, ok bool) {
	t.mu.Lock()
	e, ok = t.m[id]
	if ok {
		delete(t.m, id)
	}
	t.mu.Unlock()
	return e, ok
}

// lookupCorr returns origin entry id without releasing it: partial
// responses come in any number. Any other entry is not found — its
// completion runs exactly once, at the release.
func lookupCorr(t *corrTable, id uint64) (e corrEntry, ok bool) {
	t.mu.Lock()
	e, ok = t.m[id]
	t.mu.Unlock()
	return e, ok && e.node == anyNode
}

// sweep releases every entry (node == 0) or every entry depending on the
// given node, completing each with err — the wire counterpart of refusing
// a delivery.
func (t *corrTable) sweep(node transport.NodeID, err error) {
	var swept []corrEntry
	t.mu.Lock()
	for id, e := range t.m {
		if node == 0 || e.node == node || e.node == anyNode {
			swept = append(swept, e)
			delete(t.m, id)
		}
	}
	t.mu.Unlock()
	for _, e := range swept {
		e.complete(response{err: err})
	}
}

// ctlMsg is one queued control-plane message.
type ctlMsg struct {
	from transport.NodeID
	corr uint64
	op   ctlOp
	body []byte
}

// netLayer is a Cluster's connection to the rest of the multi-process
// overlay. Nil on a purely in-process cluster — every hook checks.
type netLayer struct {
	self     transport.NodeID
	isHead   bool
	headNode transport.NodeID // daemons: the node whose loss is fatal

	// trp and cval are set once during construction but read from
	// transport goroutines that may start before construction finishes,
	// so both are atomic.
	trp  atomic.Pointer[transport.TCP]
	cval atomic.Pointer[Cluster]

	corr corrTable

	// Control messages are decoded and applied on a dedicated worker
	// goroutine (registered in the cluster's WaitGroup) because they take
	// memberMu and issue RPCs — work a connection reader must never block
	// on. Replies are response frames: they complete RPCs the worker itself
	// may be blocked on without passing through its queue.
	ctlMu   sync.Mutex
	ctlQ    []ctlMsg
	ctlWake chan struct{}

	// Head: node IDs for dialers and the address table rebroadcast in
	// ctlTopo so daemons can dial each other for direct handoffs.
	assignNext atomic.Uint32
	addrMu     sync.Mutex
	nodeAddrs  map[transport.NodeID]string

	// done unblocks RPC waiters at shutdown; closed before the cluster's
	// WaitGroup is awaited so a ctl worker blocked in an RPC can exit.
	done     chan struct{}
	downOnce sync.Once

	// seedDown is closed (daemons only) when the connection to the head
	// drops — the daemon's signal that the cluster it belongs to is gone.
	seedDown chan struct{}
	seedOnce sync.Once
}

func newNetLayer(isHead bool) *netLayer {
	n := &netLayer{
		isHead:   isHead,
		headNode: headNodeID,
		ctlWake:  make(chan struct{}, 1),
		done:     make(chan struct{}),
		seedDown: make(chan struct{}),
	}
	if isHead {
		n.nodeAddrs = make(map[transport.NodeID]string)
		n.assignNext.Store(uint32(headNodeID))
	}
	return n
}

func (n *netLayer) cluster() *Cluster        { return n.cval.Load() }
func (n *netLayer) tr() *transport.TCP       { return n.trp.Load() }
func (n *netLayer) assign() transport.NodeID { return transport.NodeID(n.assignNext.Add(1)) }

// send is tr.Send with the not-yet-listening window covered.
func (n *netLayer) send(to transport.NodeID, m *transport.Msg) bool {
	tr := n.tr()
	return tr != nil && tr.Send(to, m)
}

// sendRequest encodes req into a frame of its final size, built in place,
// and queues it for node `to` under header m.
func (n *netLayer) sendRequest(to transport.NodeID, m *transport.Msg, req *request) bool {
	tr := n.tr()
	return tr != nil && tr.SendFrame(to, m, encodeRequest(tr.Frame(requestSize(req)), req))
}

// attach binds the netLayer to its cluster and starts the control worker.
func (n *netLayer) attach(c *Cluster) {
	c.net = n
	n.cval.Store(c)
	c.wg.Add(1)
	go n.ctlLoop(c)
}

// beginClose unblocks RPC waiters; called by Stop before waiting for the
// WaitGroup (the ctl worker may be inside an RPC).
func (n *netLayer) beginClose() {
	n.downOnce.Do(func() { close(n.done) })
}

// finishClose tears the transport down and fails everything outstanding;
// called by Stop after the WaitGroup drains.
func (n *netLayer) finishClose() {
	if tr := n.tr(); tr != nil {
		tr.Close()
	}
	n.corr.sweep(0, ErrStopped)
}

// onPeerUp runs when a connection to another node is established. The head
// pushes its current topology so a (re)connecting daemon converges without
// waiting for the next structural operation; the push is queued to the ctl
// worker because it takes memberMu.
func (n *netLayer) onPeerUp(node transport.NodeID) {
	if !n.isHead {
		return
	}
	n.enqueueCtl(ctlMsg{from: node, op: ctlPush})
}

// onPeerDown fails every correlation, control RPCs included, that depended
// on the dropped connection with ErrOwnerDown — the exact error the retry
// and fail-over layers already handle for an in-process dead peer. A daemon
// losing its head connection also trips seedDown: the coordinator owns the
// overlay, so without it the daemon is an orphan (batond exits on this
// signal).
func (n *netLayer) onPeerDown(node transport.NodeID) {
	err := fmt.Errorf("%w: connection to node %d lost", ErrOwnerDown, node)
	n.corr.sweep(node, err)
	if !n.isHead && node == n.headNode {
		n.seedOnce.Do(func() { close(n.seedDown) })
	}
}

// handleMsg is the transport inbound dispatch. It runs on connection
// reader goroutines and must not block; everything potentially slow is
// queued to the ctl worker or a peer's queue. A request to an idle peer runs
// inline on the reader (deliverTo); one whose handler might block queues.
func (n *netLayer) handleMsg(from transport.NodeID, m *transport.Msg) {
	switch wireKind(m.Kind) {
	case msgRequest:
		n.inboundRequest(m)
	case msgResponse:
		n.inboundResponse(m)
	case msgControl:
		n.inboundControl(from, m)
	}
}

// deliver puts a request on the wire towards the node hosting stub p. It
// is deliverTo's remote tail: the same refusal semantics (false = not and
// never delivered), with reply channels and collectors swapped for
// correlation entries. Delivery and hop metrics are recorded at the origin
// against the stub, so Cluster.Messages and per-peer counters stay
// meaningful wherever the peer lives.
func (n *netLayer) deliver(p *peer, req request, evenDead bool) bool {
	c := n.cluster()
	if c == nil {
		return false
	}
	var m transport.Msg
	m.To = uint64(int64(p.id))
	m.Origin = n.self
	m.Kind = byte(msgRequest)
	if evenDead {
		m.Flags = msgFlagAny
	}

	// A kindUpdate's moves carry ack channels the destination peers answer
	// to; crossing the wire they become correlation entries at this (the
	// coordinating) node, and each move learns its destination's hosting
	// node so a remote source can deliver the handoff even before the
	// topology broadcast naming a freshly spawned destination reaches it.
	var corrs []uint64
	if req.kind == kindUpdate && len(req.moves) > 0 {
		moves := make([]handoffMove, len(req.moves))
		copy(moves, req.moves)
		for i := range moves {
			mv := &moves[i]
			mv.dstNode = n.nodeOf(c, mv.dst)
			if mv.ack != nil {
				mv.ackCorr = acquireCorr(&n.corr, corrEntry{node: mv.dstNode, ch: mv.ack})
				mv.ackNode = n.self
				corrs = append(corrs, mv.ackCorr)
				mv.ack = nil
			}
		}
		req.moves = moves
	}

	// A range query leaving the node its client is on: from here on this
	// node's collector is the query's origin side, whatever the plan. What a
	// serial walk collected before it got here is the first chunk.
	fresh := false
	if req.reply != nil && req.kind == kindRange {
		req.coll = &collector{reply: req.reply, limit: req.pred.LimitOrZero(), pending: 1}
		if len(req.acc) > 0 {
			req.coll.chunks = []chunk{{lo: req.acc[0].Key, items: req.acc}}
		}
		req.reply, req.acc, fresh = nil, nil, true
	}
	switch {
	case req.reply != nil:
		m.Corr = acquireCorr(&n.corr, corrEntry{node: p.node, ch: req.reply})
	case req.coll != nil:
		// A branch leaving the node: its final — counts only — retires one
		// pending unit of the collector here, and its chunks go to the
		// query's origin entry, which the origin's own collector registers
		// the first time one of its branches crosses. The remote end runs the
		// branch under a proxy once it scatters (gather).
		coll := req.coll
		coll.mu.Lock()
		if coll.origin.corr == 0 {
			coll.origin = wireDest{n: n, node: n.self, corr: acquireCorr(&n.corr, corrEntry{node: anyNode, coll: coll})}
		}
		req.onode, req.ocorr = coll.origin.node, coll.origin.corr
		coll.mu.Unlock()
		m.Corr = acquireCorr(&n.corr, corrEntry{node: p.node, coll: coll})
	case req.rcorr != 0:
		// Forwarding a request that originated on another node: pass the
		// origin's correlation through verbatim, so the final server
		// replies straight to the origin instead of retracing the route.
		m.Corr = req.rcorr
		m.Origin = req.rnode
	}
	if !n.sendRequest(p.node, &m, &req) {
		answered := false
		if req.reply != nil || req.coll != nil {
			// A node-drop sweep since acquireCorr answered the waiter: the
			// request is refused, and a failover would answer it twice.
			_, ok := releaseCorr(&n.corr, m.Corr)
			answered = !ok
		}
		if fresh {
			// Nobody will ever finish this collector: the caller still holds
			// the request as it was and fails over with it.
			releaseCorr(&n.corr, req.ocorr)
		}
		for _, id := range corrs {
			releaseCorr(&n.corr, id)
		}
		return answered
	}
	p.met.Delivered(int(req.kind))
	//batonvet:ignore replypool ownership crossed the wire: the response frame (or a connection-drop sweep) releases the entries
	return true
}

// nodeOf resolves the node hosting peer id; unknown and locally hosted
// peers map to this node.
func (n *netLayer) nodeOf(c *Cluster, id core.PeerID) transport.NodeID {
	if p := c.topo.Load().peers[id]; p != nil && p.node != 0 {
		return p.node
	}
	return n.self
}

// sendRequestTo ships a request to an explicitly named node, bypassing the
// local topology — the fallback for a handoff whose destination was
// spawned remotely and is not in this node's stub table yet.
func (n *netLayer) sendRequestTo(node transport.NodeID, id core.PeerID, req request, evenDead bool) bool {
	if node == 0 || node == n.self {
		return false
	}
	var m transport.Msg
	m.To = uint64(int64(id))
	m.Origin = n.self
	m.Kind = byte(msgRequest)
	if evenDead {
		m.Flags = msgFlagAny
	}
	if req.rcorr != 0 {
		m.Corr = req.rcorr
		m.Origin = req.rnode
	}
	return n.sendRequest(node, &m, &req)
}

// replyWire answers a wire request with its final response.
func (n *netLayer) replyWire(node transport.NodeID, corr uint64, resp response) {
	n.answer(node, corr, resp, 0, storeRun{})
}

// answer delivers a response, with run's items if run is set, to the
// correlation it names: completed locally when the entry lives in this
// node's own table (a request that crossed the wire and came back),
// otherwise encoded — once, into a frame of its final size — and sent to
// the origin node. False means it was not, and will not be, sent.
func (n *netLayer) answer(node transport.NodeID, corr uint64, resp response, flags uint8, run storeRun) bool {
	if corr == 0 {
		return false
	}
	if node == n.self || node == 0 {
		if run.data != nil {
			resp.items = run.data.Scan(run.r)
		}
		n.complete(corr, resp, flags)
		return true
	}
	tr := n.tr()
	m := transport.Msg{Corr: corr, Origin: n.self, Kind: byte(msgResponse), Flags: flags}
	return tr != nil && tr.SendFrame(node, &m, responseFrame(&resp, run, tr.Frame))
}

// complete is the one completion routine for responses, whether a frame
// brought them or the answering peer sits on this very node: a final
// releases its entry and runs the completion; a partial runs the origin
// entry's and leaves it in place. One naming an entry that is gone — or, for
// a partial, one that was never an origin entry — is dropped.
func (n *netLayer) complete(corr uint64, resp response, flags uint8) {
	if flags&msgFlagPartial != 0 {
		if e, ok := lookupCorr(&n.corr, corr); ok {
			e.complete(resp)
		}
		return
	}
	if e, ok := releaseCorr(&n.corr, corr); ok {
		e.complete(resp)
	}
}

// respond is the single completion point for handled requests: in-process
// requests answer on their reply channel (the untouched fast path), wire
// requests answer their origin's correlation, fire-and-forget requests
// have neither and are dropped.
func (c *Cluster) respond(req request, resp response) {
	if req.reply != nil {
		req.reply <- resp
		return
	}
	if req.rcorr != 0 && c.net != nil {
		c.net.replyWire(req.rnode, req.rcorr, resp)
	}
}

// inboundRequest injects a wire request into the local delivery path.
func (n *netLayer) inboundRequest(m *transport.Msg) {
	c := n.cluster()
	if c == nil || c.stopped.Load() {
		return
	}
	req, err := decodeRequest(m.Payload)
	if err != nil {
		// A malformed frame from a peer node: there is nothing safe to
		// deliver, but a correlated sender must not wait out the timeout.
		if m.Corr != 0 {
			n.replyWire(m.Origin, m.Corr, response{err: fmt.Errorf("%w: undecodable request", ErrUnreachable)})
		}
		return
	}
	req.rnode = m.Origin
	req.rcorr = m.Corr
	evenDead := m.Flags&msgFlagAny != 0
	t := c.topo.Load()
	p := t.peers[core.PeerID(int64(m.To))]
	if p == nil {
		c.refuse(nil, req, fmt.Errorf("%w: %d", ErrOwnerDown, core.PeerID(int64(m.To))))
		return
	}
	if p.node != 0 {
		// The sender's topology was stale: the peer is hosted elsewhere
		// (possibly back at the sender). Re-forward over the wire, charging
		// a hop so two nodes with disagreeing views cannot bounce a request
		// between them forever — the hop cap ends the orbit.
		req.hops++
		if req.hops > t.hopCap || !c.deliverTo(p, req, evenDead) {
			c.refuse(nil, req, fmt.Errorf("%w: %d", ErrOwnerDown, p.id))
		}
		return
	}
	if req.kind == kindCrash {
		// Kill crosses the wire: drop the alive flag at the hosting node
		// before the wipe is delivered, exactly as Kill does locally, so
		// concurrent sends fail over immediately.
		p.alive.Store(false)
	}
	if !c.deliverTo(p, req, evenDead) {
		c.refuse(nil, req, fmt.Errorf("%w: %d", ErrOwnerDown, p.id))
	}
}

// inboundResponse hands a response frame to the correlation it names.
func (n *netLayer) inboundResponse(m *transport.Msg) {
	resp, err := readResponse(m.Payload, true)
	if err != nil {
		resp = response{err: fmt.Errorf("%w: undecodable response", ErrUnreachable)}
	}
	n.complete(m.Corr, resp, m.Flags)
}

// wireDest names a correlation entry on some node: where a proxy's final
// goes, or where a range query's chunks do.
type wireDest struct {
	n    *netLayer
	node transport.NodeID
	corr uint64
}

func (w wireDest) deliver(resp response) { w.n.replyWire(w.node, w.corr, resp) }

// inboundControl queues a control frame to the worker.
func (n *netLayer) inboundControl(from transport.NodeID, m *transport.Msg) {
	if len(m.Payload) == 0 {
		return
	}
	op := ctlOp(m.Payload[0])
	body := m.Payload[1:]
	b := make([]byte, len(body))
	copy(b, body)
	n.enqueueCtl(ctlMsg{from: from, corr: m.Corr, op: op, body: b})
}

func (n *netLayer) enqueueCtl(msg ctlMsg) {
	n.ctlMu.Lock()
	n.ctlQ = append(n.ctlQ, msg)
	n.ctlMu.Unlock()
	select {
	case n.ctlWake <- struct{}{}:
	default:
	}
}

// ctlLoop is the control worker: it serialises control-plane work the
// connection readers must not block on (spawns, topology applies, joins).
func (n *netLayer) ctlLoop(c *Cluster) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-n.ctlWake:
			for {
				n.ctlMu.Lock()
				q := n.ctlQ
				n.ctlQ = nil
				n.ctlMu.Unlock()
				if len(q) == 0 {
					break
				}
				for _, msg := range q {
					n.handleCtl(c, msg)
				}
			}
		}
	}
}

func (n *netLayer) handleCtl(c *Cluster, msg ctlMsg) {
	switch msg.op {
	case ctlHello:
		if !n.isHead {
			return
		}
		var hello helloMsg
		if decodeBody(msg.body, &hello) && len(hello.addr) > 0 {
			addr := string(hello.addr)
			n.addrMu.Lock()
			n.nodeAddrs[msg.from] = addr
			n.addrMu.Unlock()
			if tr := n.tr(); tr != nil {
				tr.SetAddr(msg.from, addr)
			}
		}
		n.ctlReplyTo(msg, &helloReply{domain: c.domain, fanout: c.fanout})
	case ctlJoin:
		var join joinMsg
		if !n.isHead || !decodeBody(msg.body, &join) {
			return
		}
		joined := 0
		for joined < join.count {
			if _, err := c.joinAt(msg.from); err != nil {
				break
			}
			joined++
		}
		n.ctlReplyTo(msg, &joinMsg{count: joined})
	case ctlSpawn:
		if n.isHead {
			return
		}
		n.ctlReplyTo(msg, &spawnReply{ok: c.applySpawn(msg.body)})
	case ctlTopo:
		if n.isHead {
			return
		}
		c.applyTopoBroadcast(msg.body)
	case ctlLoads:
		if n.isHead {
			return
		}
		n.ctlReplyTo(msg, c.localLoads())
	case ctlPush:
		if !n.isHead {
			return
		}
		c.memberMu.Lock()
		if !c.stopped.Load() {
			n.send(msg.from, &transport.Msg{Kind: byte(msgControl), Origin: n.self, Payload: n.encodeTopoLocked(c)})
		}
		c.memberMu.Unlock()
	}
}

// ctlReplyTo answers a control RPC: a response to its correlation entry,
// the reply body as the value.
func (n *netLayer) ctlReplyTo(msg ctlMsg, reply layout) {
	n.answer(msg.from, msg.corr, response{value: encodeBody(nil, reply)}, 0, storeRun{})
}

// rpc sends one control request, body nil for none, and waits for the
// reply body.
func (n *netLayer) rpc(node transport.NodeID, op ctlOp, body layout) ([]byte, error) {
	ch := make(chan response, 1)
	id := acquireCorr(&n.corr, corrEntry{node: node, ch: ch})
	defer releaseCorr(&n.corr, id) // a no-op once the reply or a sweep released it
	payload := []byte{byte(op)}
	if body != nil {
		payload = encodeBody(payload, body)
	}
	if !n.send(node, &transport.Msg{Corr: id, Origin: n.self, Kind: byte(msgControl), Payload: payload}) {
		return nil, fmt.Errorf("%w: node %d", ErrUnreachable, node)
	}
	timer := time.NewTimer(rpcTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.value, r.err
	case <-n.done:
		return nil, ErrStopped
	case <-timer.C:
		return nil, fmt.Errorf("p2p: control rpc %d to node %d timed out: %w", op, node, ErrUnreachable)
	}
}

// joinAt runs one Join with the spawn redirected to the given node: the
// mirror's structural decision is unchanged, but the new peer is built on
// the daemon that asked (ctlSpawn) instead of here.
func (c *Cluster) joinAt(node transport.NodeID) (core.PeerID, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return core.NoPeer, ErrStopped
	}
	via := core.NoPeer
	for _, e := range c.topo.Load().ring {
		if e.p.alive.Load() {
			via = e.id
			break
		}
	}
	if via == core.NoPeer {
		return core.NoPeer, fmt.Errorf("p2p: no alive peer to join via: %w", ErrUnreachable)
	}
	c.journalBegin("join-remote", core.NoPeer)
	c.spawnAt = node
	id, err := c.joinLocked(via)
	c.spawnAt = 0
	c.journalSetPeer(id)
	c.journalEnd(err)
	return id, err
}

// spawnRemote creates the new peer on its hosting daemon (phase 1 of
// applyMirrorDiffLocked when c.spawnAt is set): a synchronous ctlSpawn RPC, so
// the peer is provably serving — buffering its pending regions — before
// any handoff is addressed to it.
func (n *netLayer) spawnRemote(node transport.NodeID, id core.PeerID, st *peerState, gains []keyspace.Range) error {
	rep, err := n.rpc(node, ctlSpawn, &spawnMsg{id: id, st: st, gains: gains})
	if err != nil {
		return err
	}
	var ok spawnReply
	if !decodeBody(rep, &ok) || !ok.ok {
		return fmt.Errorf("p2p: node %d failed to spawn peer %d: %w", node, id, ErrUnreachable)
	}
	return nil
}

// applySpawn (daemon) creates a locally hosted peer from a ctlSpawn body.
func (c *Cluster) applySpawn(body []byte) bool {
	var spawn spawnMsg
	if !decodeBody(body, &spawn) || spawn.st == nil {
		return false
	}
	id := spawn.id
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return false
	}
	t := c.topo.Load()
	if t.peers[id] != nil {
		return false
	}
	p := newPeer(id, c.fanout)
	p.installState(spawn.st)
	p.pending = spawn.gains
	p.alive.Store(true)
	nt := t.clone()
	nt.peers[id] = p
	// Registered for delivery but not yet a member: the topology broadcast
	// that follows the coordinator's structural operation publishes
	// membership, exactly like publishTopology does locally.
	c.topo.Store(nt)
	return true
}

// encodeTopoLocked (head, memberMu held) renders the current composition
// as a ctlTopo payload: epoch, members with hosting node / range / alive
// flag, and the node address table daemons use to dial each other.
func (n *netLayer) encodeTopoLocked(c *Cluster) []byte {
	t := c.topo.Load()
	msg := topoMsg{epoch: t.epoch, members: make([]topoMember, 0, len(t.ids))}
	for _, id := range t.ids {
		p := t.peers[id]
		node := p.node
		if node == 0 {
			node = n.self
		}
		msg.members = append(msg.members, topoMember{id: id, node: node, rng: c.states[id].Range, alive: p.alive.Load()})
	}
	n.addrMu.Lock()
	msg.addrs = append(msg.addrs, nodeAddr{node: n.self, addr: []byte(n.tr().Addr())})
	for node, addr := range n.nodeAddrs {
		msg.addrs = append(msg.addrs, nodeAddr{node: node, addr: []byte(addr)})
	}
	n.addrMu.Unlock()
	return encodeBody([]byte{byte(ctlTopo)}, &msg)
}

// broadcastTopoLocked pushes the current composition to every connected
// node; the head calls it (memberMu held) after every publishTopology and
// after Kill flips a remote peer's alive flag.
func (n *netLayer) broadcastTopoLocked(c *Cluster) {
	tr := n.tr()
	if tr == nil {
		return
	}
	b := n.encodeTopoLocked(c)
	for _, node := range tr.Peers() {
		tr.Send(node, &transport.Msg{Kind: byte(msgControl), Origin: n.self, Payload: b})
	}
}

// applyTopoBroadcast (daemon) swaps in the composition a ctlTopo frame
// describes. Locally hosted peers are kept as-is (their token holders own
// their structural state and alive flags); peers hosted elsewhere become
// stubs carrying the broadcast range and alive flag. Members that vanished
// from the list join the tombstone queue so stale deliveries keep being
// forwarded until the usual two-stage reap retires them.
func (c *Cluster) applyTopoBroadcast(body []byte) {
	n := c.net
	var msg topoMsg
	if !decodeBody(body, &msg) {
		return
	}
	if tr := n.tr(); tr != nil {
		for _, na := range msg.addrs {
			if na.node != n.self {
				tr.SetAddr(na.node, string(na.addr))
			}
		}
	}
	epoch, ms := msg.epoch, msg.members

	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return
	}
	old := c.topo.Load()
	if epoch < old.epoch {
		return // a stale replay (reconnect push raced a newer broadcast)
	}
	c.reapTombstones()
	old = c.topo.Load()
	nt := &topology{
		peers:   make(map[core.PeerID]*peer, len(ms)+len(old.peers)),
		members: make(map[core.PeerID]bool, len(ms)),
		epoch:   epoch,
		retired: old.retired,
	}
	for _, m := range ms {
		p := old.peers[m.id]
		hosted := m.node == n.self
		switch {
		case p != nil && hosted && p.node == 0:
			// A peer this node hosts: its token holder owns range and flags.
		case p != nil && !hosted && p.node == m.node:
			p.rng = m.rng
			p.alive.Store(m.alive)
		case hosted:
			// The broadcast says this node hosts a peer it has no object
			// for — a spawn that failed, or a replayed epoch. Leave a hole;
			// requests for it fail over like a dead peer.
			continue
		default:
			p = newStub(m.id, m.node, c.fanout)
			p.rng = m.rng
			p.alive.Store(m.alive)
		}
		nt.peers[m.id] = p
		nt.members[m.id] = true
		nt.ring = append(nt.ring, ringEntry{id: m.id, lower: m.rng.Lower, p: p})
		nt.ids = append(nt.ids, m.id)
	}
	sortTopology(nt)
	if hc := 8 * (len(ms) + 4); hc > old.hopCap {
		nt.hopCap = hc
	} else {
		nt.hopCap = old.hopCap
	}
	for id, p := range old.peers {
		if nt.peers[id] != nil {
			continue
		}
		nt.peers[id] = p
		queued := false
		for _, tp := range c.tombstones {
			if tp == p {
				queued = true
				break
			}
		}
		if !queued {
			c.tombstones = append(c.tombstones, p)
		}
	}
	c.topo.Store(nt)
}

// localLoads (daemon) collects the load counters of every locally hosted
// member for a ctlLoads reply.
func (c *Cluster) localLoads() *loadsMsg {
	t := c.topo.Load()
	msg := &loadsMsg{}
	for _, id := range t.ids {
		if p := t.peers[id]; p != nil && p.node == 0 {
			msg.loads = append(msg.loads, peerLoad{id: id, reqs: p.reqs.Load(), items: p.items.Load()})
		}
	}
	return msg
}

// gatherRemoteLoads (head) refreshes the stub load counters from each
// connected daemon — one ctlLoads RPC per node — so Cluster.Loads reads
// current numbers for peers it does not host. The lone exception to the
// load meter's "message-free" property, and only on the coordinator of a
// multi-process cluster.
func (n *netLayer) gatherRemoteLoads(c *Cluster) {
	tr := n.tr()
	if tr == nil {
		return
	}
	t := c.topo.Load()
	for _, node := range tr.Peers() {
		body, err := n.rpc(node, ctlLoads, nil)
		var msg loadsMsg
		if err != nil || !decodeBody(body, &msg) {
			continue
		}
		for _, l := range msg.loads {
			if p := t.peers[l.id]; p != nil && p.node == node {
				p.reqs.Store(l.reqs)
				p.items.Store(l.items)
			}
		}
	}
}

// sortTopology orders a freshly built topology's ring and id list.
func sortTopology(nt *topology) {
	slices.SortFunc(nt.ring, func(a, b ringEntry) int { return cmp.Compare(a.lower, b.lower) })
	slices.Sort(nt.ids)
}

// newStub builds the local placeholder for a peer hosted on another node:
// a peer object with node set that never queues — deliveries to it detour
// onto the wire (deliverTo), and the metrics block records the sends this
// node originated towards it.
func newStub(id core.PeerID, node transport.NodeID, fanout int) *peer {
	p := newPeer(id, fanout)
	p.node = node
	return p
}

// requireCoordinator gates structural APIs: a daemon must not run them (the
// mirror lives at the head, and two coordinators would race the overlay).
func (c *Cluster) requireCoordinator() error {
	if c.net != nil && !c.net.isHead {
		return ErrNotCoordinator
	}
	return nil
}

// SeedDown reports (daemons only) when the connection to the coordinator
// is lost; nil on the coordinator and on in-process clusters.
func (c *Cluster) SeedDown() <-chan struct{} {
	if c.net == nil || c.net.isHead {
		return nil
	}
	return c.net.seedDown
}

// Addr is the node's transport listen address; "" for in-process clusters.
func (c *Cluster) Addr() string {
	if c.net == nil {
		return ""
	}
	if tr := c.net.tr(); tr != nil {
		return tr.Addr()
	}
	return ""
}

// NewClusterListen is NewCluster plus a wire transport: the returned
// cluster is the multi-process overlay's coordinator, listening on the
// given address ("" picks a loopback port; see Addr) for daemons joining
// via JoinRemote or cmd/batond.
func NewClusterListen(nw *core.Network, listen string) (*Cluster, error) {
	c := NewCluster(nw)
	n := newNetLayer(true)
	n.self = headNodeID
	tr, err := transport.Listen(transport.Config{
		Self:       headNodeID,
		Listen:     listen,
		Handler:    n.handleMsg,
		OnPeerUp:   n.onPeerUp,
		OnPeerDown: n.onPeerDown,
		Assign:     n.assign,
	})
	if err != nil {
		c.Stop()
		return nil, err
	}
	n.trp.Store(tr)
	n.attach(c)
	return c, nil
}

// JoinRemote connects to a coordinator at seed and returns a daemon-side
// Cluster: a data-plane view of the same overlay whose Get/Put/Delete/
// Range/Bulk APIs work exactly like the coordinator's. hostPeers > 0 asks
// the coordinator to run that many joins with the new peers hosted here,
// so the process serves a share of the keyspace; 0 joins as a pure client.
// The daemon exits the overlay when Stop is called or the seed connection
// drops (SeedDown).
func JoinRemote(seed string, hostPeers int) (*Cluster, error) {
	n := newNetLayer(false)
	tr, err := transport.Listen(transport.Config{
		Self:       0,
		Handler:    n.handleMsg,
		OnPeerUp:   n.onPeerUp,
		OnPeerDown: n.onPeerDown,
	})
	if err != nil {
		return nil, err
	}
	n.trp.Store(tr)
	head, err := tr.Dial(seed)
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("p2p: dialing seed %s: %w", seed, err)
	}
	n.self = tr.Self()
	n.headNode = head
	body, err := n.rpc(head, ctlHello, &helloMsg{addr: []byte(tr.Addr())})
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("p2p: seed handshake: %w", err)
	}
	var hello helloReply
	if !decodeBody(body, &hello) || hello.fanout < 2 {
		tr.Close()
		return nil, fmt.Errorf("p2p: seed handshake: malformed hello reply")
	}
	c := &Cluster{
		fanout:    hello.fanout,
		done:      make(chan struct{}),
		domain:    hello.domain,
		suspects:  make(chan core.PeerID, 64),
		traces:    obs.NewTraceRing(traceRingSize),
		journal:   obs.NewJournal(journalSize),
		planCache: query.NewCache(),
	}
	c.topo.Store(&topology{
		peers:   make(map[core.PeerID]*peer),
		members: make(map[core.PeerID]bool),
		retired: obs.NewPeerMetrics(numKinds),
	})
	c.states = make(map[core.PeerID]core.PeerSnapshot)
	n.attach(c)
	// Know the overlay before hosting a share of it: a peer spawned into the
	// empty topology (hop cap 0) refuses its own handoff, and the head's
	// topology push can queue behind this node's join on its control worker.
	if err := c.waitTopo(10 * time.Second); err != nil {
		c.Stop()
		return nil, err
	}
	if hostPeers > 0 {
		body, err := n.rpc(head, ctlJoin, &joinMsg{count: hostPeers})
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("p2p: joining %d peers: %w", hostPeers, err)
		}
		var joined joinMsg
		if !decodeBody(body, &joined) || joined.count < hostPeers {
			c.Stop()
			return nil, fmt.Errorf("p2p: seed joined %d of %d requested peers", joined.count, hostPeers)
		}
	}
	// The nodes that joined earlier have not heard of this one — their next
	// topology broadcast may be far off — and could not dial it to hand a
	// chunk of a range answer over (contributors answer the origin
	// directly). Open those connections from this side; nodes joining later
	// learn this one's address from the broadcast that brings them in.
	for _, p := range c.topo.Load().peers {
		if p.node != 0 {
			tr.Connect(p.node)
		}
	}
	return c, nil
}

// waitTopo blocks until the first topology broadcast lands (the head
// pushes one on connect, so this resolves promptly).
func (c *Cluster) waitTopo(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.topo.Load().epoch != 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("p2p: no topology broadcast from seed: %w", ErrUnreachable)
		}
		select {
		case <-c.net.seedDown:
			return fmt.Errorf("p2p: seed connection lost: %w", ErrOwnerDown)
		case <-c.done:
			return ErrStopped
		case <-time.After(2 * time.Millisecond):
		}
	}
}
