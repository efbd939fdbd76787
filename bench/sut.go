package main

// sut.go is the benchmark's only door into the program under test: every
// import of a baton package is in this file, and the rest of bench/ speaks
// the small vocabulary defined here. A change that renames or collapses the
// program's API re-points this file and nothing else.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/p2p"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/transport"
)

type (
	Key    = keyspace.Key
	Range  = keyspace.Range
	Item   = store.Item
	PeerID = core.PeerID
	Hop    = obs.Hop
)

const (
	peers  = 64 // overlay size of every workload
	fanout = 2  // the paper's binary tree
	// overlaySeed fixes the overlay's shape. Which peer splits at which join
	// is part of the set-up, not of the input: -seed varies the keys and the
	// op streams over one and the same tree, so msgs_per_op differs between
	// two runs only when the program does.
	overlaySeed = 1
)

func fullDomain() Range { return keyspace.FullDomain() }

// growOverlay grows a simulated overlay of n peers by joins at random entry
// peers and preloads the items through random entry peers — the first phase
// of every set-up, and the whole of the core layer probe's.
func growOverlay(n int, items []Item) (*core.Network, error) {
	nw := core.NewNetwork(core.Config{Seed: overlaySeed, Fanout: fanout})
	rng := newRand(overlaySeed, 2)
	for nw.Size() < n {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.IntN(len(ids))]); err != nil {
			return nil, fmt.Errorf("grow overlay: %w", err)
		}
	}
	ids := nw.PeerIDs()
	for _, it := range items {
		if _, err := nw.Insert(ids[rng.IntN(len(ids))], it.Key, it.Value); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return nw, nil
}

// sut is one running system under test: an in-process cluster, or the
// loopback trio (coordinator with half the peers, daemon with the other
// half, and a client node hosting none, so every client op crosses a socket
// exactly once each way).
type sut struct {
	entry *p2p.Cluster   // where client operations enter
	head  *p2p.Cluster   // the coordinator: structural ops and audits
	nodes []*p2p.Cluster // every node, coordinator first
}

// newSUT is the timed set-up: grow, preload, animate, and on TCP connect all
// three nodes.
func newSUT(sp *spec, items []Item) (*sut, error) {
	if !sp.tcp {
		nw, err := growOverlay(peers, items)
		if err != nil {
			return nil, err
		}
		c := p2p.NewCluster(nw)
		c.SetRouteMode(sp.routeMode())
		return &sut{entry: c, head: c, nodes: []*p2p.Cluster{c}}, nil
	}
	nw, err := growOverlay(peers/2, items)
	if err != nil {
		return nil, err
	}
	head, err := p2p.NewClusterListen(nw, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("coordinator listen: %w", err)
	}
	s := &sut{head: head, nodes: []*p2p.Cluster{head}}
	for _, hosted := range []int{peers - peers/2, 0} {
		n, err := p2p.JoinRemote(head.Addr(), hosted)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("join node hosting %d peers: %w", hosted, err)
		}
		s.nodes = append(s.nodes, n)
	}
	s.entry = s.nodes[2]
	// The client learns of the daemon's peers by topology broadcast; wait
	// until it sees all of them before set-up counts as done.
	for deadline := time.Now().Add(10 * time.Second); s.entry.Size() < peers; {
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("client node sees %d of %d peers", s.entry.Size(), peers)
		}
		time.Sleep(time.Millisecond)
	}
	s.entry.SetRouteMode(sp.routeMode())
	// Connections are dialled lazily, and a send that finds another send's
	// dial in progress is refused. One full-domain range makes every peer
	// answer the client, so every socket is open when set-up ends.
	if all, _, err := s.entry.RangeAdaptive(s.entry.PeerIDs()[0], nw.Domain()); err != nil || len(all) != len(items) {
		s.stop()
		return nil, fmt.Errorf("connecting the client node: %d of %d items, err=%v", len(all), len(items), err)
	}
	return s, nil
}

func (sp *spec) routeMode() p2p.RouteMode {
	if sp.direct {
		return p2p.RouteDirect
	}
	return p2p.RouteOverlay
}

// stop tears the nodes down, client first, coordinator last, and waits for
// every goroutine of each.
func (s *sut) stop() {
	for i := len(s.nodes) - 1; i >= 0; i-- {
		s.nodes[i].Stop()
	}
}

func (s *sut) peerIDs() []PeerID { return s.entry.PeerIDs() }

func (s *sut) get(via PeerID, k Key) ([]byte, bool, int, error) { return s.entry.Get(via, k) }
func (s *sut) put(via PeerID, k Key, v []byte) (int, error)     { return s.entry.Put(via, k, v) }
func (s *sut) del(via PeerID, k Key) (bool, int, error)         { return s.entry.Delete(via, k) }
func (s *sut) rangeQuery(via PeerID, r Range) ([]Item, int, error) {
	return s.entry.RangeAdaptive(via, r)
}
func (s *sut) estimateSpan(r Range) int { return s.entry.EstimateSpan(r) }

func (s *sut) join(via PeerID) (PeerID, error) { return s.head.Join(via) }
func (s *sut) depart(id PeerID) error          { return s.head.Depart(id) }

// setTraceSampling sets the flight recorder's 1-in-n sampling where client
// requests enter (0 = off).
func (s *sut) setTraceSampling(n int) { s.entry.SetTraceSampling(n) }

// traces returns the recorder's retained hop chains, oldest first.
func (s *sut) traces() [][]Hop { return s.entry.Traces() }

// messages is the paper's cost counter summed over every node. A message to
// a peer on another node is counted once where it is put on the wire and
// once where it lands in the peer's inbox; replies are not messages.
func (s *sut) messages() int64 {
	var n int64
	for _, c := range s.nodes {
		n += c.Messages()
	}
	return n
}

// counters is a cumulative reading of the program's public counters, summed
// over every node; diff two readings for an interval.
type counters struct {
	delivered, spilled, refused, stale int64
	queueWait, handle                  obs.HistogramSnapshot
	planSerial, planParallel, planHits int64
}

func (s *sut) counters() counters {
	var c counters
	sum := func(m map[string]int64) (n int64) {
		for _, v := range m {
			n += v
		}
		return n
	}
	for _, node := range s.nodes {
		m := node.Metrics()
		c.delivered += sum(m.Delivered)
		c.spilled += sum(m.Spilled)
		c.refused += sum(m.Refused)
		c.stale += m.StaleRoutes
		c.queueWait = c.queueWait.Merge(m.QueueWait)
		c.handle = c.handle.Merge(m.HandleTime)
	}
	// Planning happens where the range request enters.
	p := s.entry.PlanStats()
	c.planSerial, c.planParallel, c.planHits = p.Serial, p.Parallel, p.CacheHits
	return c
}

// interval holds what the layer metrics need from two counter readings.
type interval struct {
	delivered, spilled, refused, stale int64
	queueWaitMeanNs, handleMeanNs      float64
	planSerial, planParallel, planHits int64
}

func (c counters) since(prev counters) interval {
	return interval{
		delivered:       c.delivered - prev.delivered,
		spilled:         c.spilled - prev.spilled,
		refused:         c.refused - prev.refused,
		stale:           c.stale - prev.stale,
		queueWaitMeanNs: c.queueWait.Sub(prev.queueWait).Mean(),
		handleMeanNs:    c.handle.Sub(prev.handle).Mean(),
		planSerial:      c.planSerial - prev.planSerial,
		planParallel:    c.planParallel - prev.planParallel,
		planHits:        c.planHits - prev.planHits,
	}
}

// structuralOp is one entry of the coordinator's journal.
type structuralOp struct {
	seq      int64
	op       string
	ok       bool
	duration time.Duration
	migrated int
}

func (s *sut) structuralOps() []structuralOp {
	evs := s.head.Events()
	out := make([]structuralOp, len(evs))
	for i, e := range evs {
		out[i] = structuralOp{e.Seq, e.Op, e.Outcome == "ok", time.Duration(e.DurationNs), e.Migrated}
	}
	return out
}

// audit runs the program's own invariant suites over the quiesced cluster:
// replication barrier, snapshot, structural invariants, replica placement.
func (s *sut) audit() error {
	if err := s.head.SyncReplicas(); err != nil {
		return fmt.Errorf("sync replicas: %w", err)
	}
	snaps, err := s.head.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := core.VerifySnapshot(s.head.Domain(), snaps); err != nil {
		return fmt.Errorf("structural audit: %w", err)
	}
	reps, err := s.head.Replicas()
	if err != nil {
		return fmt.Errorf("replicas: %w", err)
	}
	if err := core.VerifyReplication(snaps, reps); err != nil {
		return fmt.Errorf("replication audit: %w", err)
	}
	return nil
}

// ---- layer probes: each layer alone, through its public functions ----

// storeProbe is the store layer in isolation.
type storeProbe struct{ s *store.Store }

func newStoreProbe(items []Item) storeProbe {
	s := store.New()
	s.Absorb(items)
	return storeProbe{s}
}

func (p storeProbe) get(k Key) ([]byte, bool)        { return p.s.Get(k) }
func (p storeProbe) put(k Key, v []byte)             { p.s.Put(k, v) }
func (p storeProbe) del(k Key) bool                  { return p.s.Delete(k) }
func (p storeProbe) scan(dst []Item, r Range) []Item { return p.s.ScanAppend(dst, r) }
func (p storeProbe) extract(r Range) []Item          { return p.s.ExtractRange(r) }
func (p storeProbe) absorb(items []Item)             { p.s.Absorb(items) }
func (p storeProbe) len() int                        { return p.s.Len() }

// coreProbe is the message-counting simulator on the same overlay shape.
type coreProbe struct{ nw *core.Network }

func newCoreProbe(items []Item) (coreProbe, error) {
	nw, err := growOverlay(peers, items)
	return coreProbe{nw}, err
}

func (p coreProbe) peerIDs() []PeerID { return p.nw.PeerIDs() }

func (p coreProbe) exact(via PeerID, k Key) (msgs int, found bool, err error) {
	_, found, cost, err := p.nw.SearchExact(via, k)
	return cost.Messages, found, err
}

func (p coreProbe) insert(via PeerID, k Key, v []byte) (msgs int, err error) {
	cost, err := p.nw.Insert(via, k, v)
	return cost.Messages, err
}

func (p coreProbe) rangeSearch(via PeerID, r Range) (msgs, items int, err error) {
	res, cost, err := p.nw.SearchRange(via, r)
	return cost.Messages, len(res.Items), err
}

func (p coreProbe) join(via PeerID) (id PeerID, msgs int, err error) {
	id, cost, err := p.nw.Join(via)
	return id, cost.Messages, err
}

func (p coreProbe) leave(id PeerID) (msgs int, err error) {
	cost, err := p.nw.Leave(id)
	return cost.Messages, err
}

// route predicts the peers an exact-match query visits, without charging
// messages; its length minus one is the hop count.
func (p coreProbe) route(via PeerID, k Key) (int, error) {
	path, err := p.nw.RoutePath(via, k)
	return len(path) - 1, err
}

// queryProbe is the planner and the plan cache in isolation.
type queryProbe struct {
	pl *query.Planner
	c  *query.Cache
}

func newQueryProbe() queryProbe { return queryProbe{query.NewPlanner(), query.NewCache()} }

// choose is one planning decision fed back its latency, as every adaptive
// range query does.
func (p queryProbe) choose(span int, ns int64) { p.pl.Observe(p.pl.Choose(span), span, ns) }

func (p queryProbe) cachePut(r Range, span int) { p.c.Put(query.BucketOf(r), 1, span, 0) }

func (p queryProbe) cacheGet(r Range) bool {
	_, ok := p.c.Get(query.BucketOf(r), 1)
	return ok
}

// frameRoundTrip encodes one frame of the given payload into buf and parses
// it back, the codec's whole job for one message.
func frameRoundTrip(buf []byte, rd *bytes.Reader, payload []byte) ([]byte, error) {
	buf = transport.AppendFrame(buf[:0], &transport.Msg{To: 7, Corr: 9, Origin: 1, Kind: 1, Payload: payload})
	rd.Reset(buf)
	_, err := transport.ReadFrame(rd, 0)
	return buf, err
}

// echoProbe is two transport endpoints in this process, dialled over
// loopback; the far one echoes every frame back to its sender.
type echoProbe struct {
	mu      sync.Mutex  // one round trip at a time
	lost    *time.Timer // fires when an echo does not come back
	a, b    *transport.TCP
	far     transport.NodeID
	replies chan int // payload length of each echoed frame
}

func newEchoProbe() (*echoProbe, error) {
	// 128 = twice the deepest pipeline the probe runs (64 in flight), so the
	// connection reader never blocks handing a reply over.
	p := &echoProbe{replies: make(chan int, 128), lost: time.NewTimer(time.Hour)}
	var err error
	p.b, err = transport.Listen(transport.Config{Self: 2, Handler: func(from transport.NodeID, m *transport.Msg) {
		p.b.Send(from, &transport.Msg{Corr: m.Corr, Origin: 2, Kind: 1, Payload: m.Payload})
	}})
	if err != nil {
		return nil, err
	}
	p.a, err = transport.Listen(transport.Config{Self: 1, Handler: func(_ transport.NodeID, m *transport.Msg) {
		p.replies <- len(m.Payload)
	}})
	if err != nil {
		p.b.Close()
		return nil, err
	}
	if p.far, err = p.a.Dial(p.b.Addr()); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *echoProbe) send(payload []byte) bool {
	return p.a.Send(p.far, &transport.Msg{Corr: 1, Origin: 1, Kind: 1, Payload: payload})
}

func (p *echoProbe) close() {
	p.a.Close()
	p.b.Close()
}

// obsHist is the flight recorder's histogram type in isolation.
type obsHist struct{ h obs.Histogram }

func (o *obsHist) observe(v int64) { o.h.Observe(v) }
