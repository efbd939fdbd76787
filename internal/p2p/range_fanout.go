package p2p

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
)

// chunk is one peer's sorted contribution to a range query: its items of
// the segment starting at lo, in its region of the collector's buf, in a
// slice of its own or, off the wire, still encoded in enc. Peers own
// disjoint ranges, so ordering chunks by lo yields the answer in key order.
type chunk struct {
	lo    keyspace.Key
	items []store.Item
	enc   []byte
}

// region is the part buf[off:end] of a presized answer reserved for the
// chunk of the segment starting at lo; taken once it has been handed out.
type region struct {
	lo       keyspace.Key
	off, end int
	taken    bool
}

// collector is the per-query gather state of a parallel range query. The
// first step of the query that reaches past its peer creates one (gather)
// and seeds it with one pending branch, its own; every branch a step spawns
// grows the pending count before it is sent, and every branch shrinks it
// once, where it ends, so the count can only reach zero once every branch
// has reported. The settle that takes it to zero delivers the answer.
//
// Over the wire the same collector is the origin side of every range query
// — serial or parallel — that leaves its client's node
// (netLayer.deliver): data comes in flat, control hierarchically. Each
// contributing peer encodes its part from its store straight into a partial
// response to the origin's correlation entry, where it is decoded once, as
// late as can be; a branch's final response brings only counts, among them
// how many partials its sub-tree sent. Partials and finals ride different
// connections, so arrival order proves nothing: the query is complete when
// no branch is pending and no announced partial is missing.
type collector struct {
	reply chan response
	// wire, when set (corr != 0), makes this a proxy: the stand-in, on a
	// node other than the one its branch was sent from, for the branches
	// running here. It holds counts, never items — each peer ships its part
	// to the origin itself (contribute) — and its final tells the parent
	// branch's correlation how many partials that makes.
	wire wireDest
	// origin is where the query's chunks go: for a proxy the origin node's
	// entry, named by the request that built it; for the origin's own
	// collector that entry itself, once the first branch has left the node
	// (corr 0 until then), kept so completion can release it.
	origin wireDest
	// limit is the query's pushdown limit, 0 for none: every branch scans
	// up to it, and the answer is cut at it.
	limit int
	// buf and regions are the presized answer and its per-segment parts,
	// fixed before the first branch is sent; nil when not presized.
	buf     []store.Item
	regions []region

	mu      sync.Mutex
	chunks  []chunk
	err     error
	hops    int // longest message chain across all branches
	pending int
	// parts counts partial responses: at the origin, those announced by
	// finished branches minus those that have arrived (negative while
	// partials outrun their final); in a proxy, those its sub-tree has sent.
	parts int
	// done is set once the answer has been delivered; whatever arrives
	// afterwards — a late partial, the final of a branch an abort gave up
	// on — is dropped.
	done bool
}

func (g *collector) proxy() bool { return g.wire.corr != 0 }

// grow registers n additional outstanding branches. It must be called
// before the corresponding sub-requests are sent so a fast child cannot
// drive pending to zero while its parent is still scattering.
func (g *collector) grow(n int) {
	g.mu.Lock()
	g.pending += n
	g.mu.Unlock()
}

// fromWire feeds the collector what a response frame brought: a partial's
// chunk, or a branch's final — its counts plus, at the end of a serial
// chain, the last peer's chunk. Chunks are keyed by their first item, which
// orders them exactly as segment bounds order in-process ones. An error in
// place of a partial means partials may have been lost (a connection
// dropped, a frame did not decode): the query ends now, with what it has.
func (g *collector) fromWire(r response, final bool) {
	c := chunk{items: r.items}
	if r.kept {
		c = chunk{lo: keyspace.Key(binary.LittleEndian.Uint64(r.value[4:])), enc: r.value}
	} else if len(r.items) > 0 {
		c.lo = r.items[0].Key
	}
	switch {
	case final:
		g.settle(c, r.hops, r.err, 1, r.parts)
	case r.err != nil:
		g.settle(chunk{}, 0, r.err, everyBranch, 0)
	default:
		g.settle(c, 0, nil, 0, -1)
	}
}

// everyBranch, as settle's branch count, gives up on everything still out.
const everyBranch = -1

// settle is the collector's one piece of bookkeeping, behind contribute,
// finish and fromWire: take a chunk, merge hop count and error, retire
// `branches` pending branches and move the partial count, then — if that
// completed the query — deliver.
func (g *collector) settle(c chunk, hops int, err error, branches, parts int) {
	g.mu.Lock()
	if g.done {
		g.mu.Unlock()
		return
	}
	if len(c.items) > 0 || c.enc != nil {
		g.chunks = append(g.chunks, c)
	}
	if err != nil && g.err == nil {
		g.err = err
	}
	g.hops = max(g.hops, hops)
	if branches != everyBranch {
		g.pending -= branches
		g.parts += parts
	}
	g.done = branches == everyBranch || g.pending == 0 && (g.proxy() || g.parts <= 0)
	done, origin := g.done, g.origin
	resp := response{hops: g.hops, err: g.err, parts: g.parts}
	if done && !g.proxy() {
		resp.items = g.answer()
	}
	g.mu.Unlock()
	if !done {
		return
	}
	switch {
	case g.proxy():
		g.wire.deliver(resp)
		return
	case g.reply != nil:
		g.reply <- resp
	}
	if origin.corr != 0 {
		releaseCorr(&origin.n.corr, origin.corr)
	}
}

// claim hands out the region of buf reserved for the segment starting at
// lo, at most once: a second branch with the same lower bound scans into a
// chunk of its own. The slice's capacity ends at the region's end, so a
// count the estimate missed makes ScanAppend reallocate rather than overrun
// the next region. Nil when there is no such region.
func (g *collector) claim(lo keyspace.Key) []store.Item {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := slices.BinarySearchFunc(g.regions, lo, func(r region, lo keyspace.Key) int { return cmp.Compare(r.lo, lo) })
	if !ok || g.buf == nil || g.regions[i].taken {
		return nil
	}
	r := &g.regions[i]
	r.taken = true
	return g.buf[r.off:r.off:r.end]
}

// answer orders the gathered chunks by segment and returns them as one
// slice cut at the predicate's limit: buf itself when they lie in it back
// to back from buf[0], a lone chunk's own items, else a copy of exactly
// that size, encoded chunks decoded into it. Called under g.mu once every
// branch has reported.
func (g *collector) answer() []store.Item {
	slices.SortFunc(g.chunks, func(a, b chunk) int { return cmp.Compare(a.lo, b.lo) })
	n, inPlace := 0, g.buf != nil
	for _, c := range g.chunks {
		inPlace = inPlace && c.enc == nil && n < len(g.buf) && &c.items[0] == &g.buf[n]
		n += len(c.items)
		if c.enc != nil {
			n += int(binary.LittleEndian.Uint32(c.enc)) // the encoded count
		}
	}
	if inPlace {
		return g.buf[:n]
	}
	if g.limit > 0 && n > g.limit {
		n = g.limit
	}
	if len(g.chunks) == 1 && g.chunks[0].enc == nil {
		return g.chunks[0].items[:n]
	}
	all := make([]store.Item, 0, n)
	for _, c := range g.chunks {
		all = append(all, c.items[:min(len(c.items), n-len(all))]...)
		all = appendKept(all, c.enc, n-len(all))
	}
	return all
}

// sizeAnswer estimates the answer of an unfiltered range r whose phase 2
// starts at p: p's own part exactly, each following ring slot by its
// published item count (noteItems), and a last slot r ends inside by its
// key-fraction share plus an eighth of its items as headroom. With regs
// non-nil it lays out one region per slot, keyed by its segment's lower
// bound (r.Lower for p). A span reaching another node is not sized (0).
func (c *Cluster) sizeAnswer(p *peer, r keyspace.Range, regs *[]region) int {
	ring := c.topo.Load().ring
	from := sort.Search(len(ring), func(i int) bool { return ring[i].lower >= p.rng.Upper })
	to := sort.Search(len(ring), func(i int) bool { return ring[i].lower >= r.Upper })
	n := p.data.CountRange(r)
	if regs != nil {
		*regs = append(make([]region, 0, 1+max(to-from, 0)), region{lo: r.Lower, end: n})
	}
	for i := from; i < to; i++ {
		e := &ring[i]
		if e.p == nil || e.p.node != 0 {
			return 0
		}
		k := int(e.p.items.Load())
		upper := keyspace.DomainMax
		if i+1 < len(ring) {
			upper = ring[i+1].lower
		}
		if r.Upper < upper {
			k = int(float64(k)*float64(r.Upper-e.lower)/float64(upper-e.lower)) + k/8
		}
		if regs != nil {
			*regs = append(*regs, region{lo: e.lower, off: n, end: n + k})
		}
		n += k
	}
	return n
}

// scanFiltered appends the items of r that match pred to dst, stopping at
// the predicate's limit (counted across dst as the serial walk requires).
func scanFiltered(data *store.Store, dst []store.Item, r keyspace.Range, pred *query.Pred) []store.Item {
	lim := pred.LimitOrZero()
	data.AscendRange(r, func(it store.Item) bool {
		if pred.MatchItem(it) {
			dst = append(dst, it)
		}
		return lim == 0 || len(dst) < lim
	})
	return dst
}

// handleRange runs a range query, kindRange or kindRangeScatter, at p
// (Section IV-B). Phase 1 routes the request like an exact query towards
// the owner of its lower bound: stopping at any merely intersecting peer
// would skip the beginning of the range. Phase 2 is one step, the same for
// both plans, at each peer owning req.rng.Lower: cut the rest of the range
// past p into segments, spawn every segment but the last as a queued
// branch, contribute p's own part, and hand the last segment on as every
// walk does (handTo) — or, with no segment left, end the branch. The plans
// differ only in the cut: a serial walk passes one segment on, to its right
// adjacent peer, so it runs as a scatter of fan-out one; a parallel query
// passes one more per right routing-table entry inside the rest.
func (c *Cluster) handleRange(p *peer, req *request) *peer {
	r := req.rng
	if !c.owns(p, r.Lower) {
		return c.forward(p, req)
	}
	parallel := req.par || req.kind == kindRangeScatter
	segs := c.cut(p, r, parallel, make([]segment, 0, 34))
	if parallel && req.coll == nil && len(segs) > 0 {
		c.gather(p, req)
	}
	for ; len(segs) > 1; segs = segs[1:] {
		c.spawn(req, segs[0])
	}
	if !c.contribute(p, req, r, len(segs) == 0) {
		return nil
	}
	req.rng, req.key = segs[0].r, segs[0].r.Lower
	if q, ok := c.handTo(segs[0].to, req); ok {
		return q
	}
	// The segment's peer is dead: the branch ends with what it has, and the
	// background repairer, if one runs, hears of the dead link.
	c.suspect(segs[0].to)
	c.finish(req, ErrOwnerDown)
	return nil
}

// segment is a piece of a range's rest and the peer it is sent to: its
// owner, or a peer that routes it on to the owner.
type segment struct {
	to core.PeerID
	r  keyspace.Range
}

// cut splits the rest of r past p into the segments the query passes on,
// appended to out in key order: none when r ends inside p or p is the
// rightmost peer (the rest lies beyond the domain and holds no data); else
// one, to the right adjacent peer; and, when parallel, one more per alive
// right routing-table entry whose range starts strictly inside the rest,
// since each owns keys from its lower bound onward. A dead right adjacent
// costs a parallel query only its own slice: the rest past it goes back to
// p, which routes it on like any stale-addressed segment.
func (c *Cluster) cut(p *peer, r keyspace.Range, parallel bool, out []segment) []segment {
	next := p.view.Adj[core.Right]
	rest := keyspace.Range{Lower: max(r.Lower, p.rng.Upper), Upper: r.Upper}
	if next == nil || rest.IsEmpty() {
		return out
	}
	out = append(out, segment{to: next.ID, r: rest})
	for _, l := range p.view.RT[core.Right] {
		if parallel && l != nil && l.Lower > rest.Lower && l.Lower < rest.Upper && c.Alive(l.ID) {
			out = append(out, segment{to: l.ID, r: keyspace.Range{Lower: l.Lower, Upper: rest.Upper}})
		}
	}
	if parallel && !c.Alive(next.ID) && next.Upper < rest.Upper {
		out = append(out, segment{to: p.id, r: keyspace.Range{Lower: next.Upper, Upper: rest.Upper}})
	}
	// Each segment ends where the next begins; of two that begin at the
	// same key, the routing-table entry's is kept.
	slices.SortStableFunc(out, func(a, b segment) int { return cmp.Compare(a.r.Lower, b.r.Lower) })
	out = slices.CompactFunc(out, func(a, b segment) bool { return a.r.Lower == b.r.Lower })
	for i := 1; i < len(out); i++ {
		out[i-1].r.Upper = out[i].r.Lower
	}
	return out
}

// gather makes the collector of a parallel query at its first step that
// reaches past its peer, and moves the query's completion onto it: a proxy
// when that completion is on another node, else a local collector,
// presized for an unfiltered answer (sizeAnswer). From here on the request
// is a branch of the query (kindRangeScatter).
func (c *Cluster) gather(p *peer, req *request) {
	g := &collector{reply: req.reply, limit: req.pred.LimitOrZero(), pending: 1}
	if req.reply == nil && req.rcorr != 0 {
		g.wire = wireDest{n: c.net, node: req.rnode, corr: req.rcorr}
		g.origin = wireDest{n: c.net, node: req.onode, corr: req.ocorr}
	} else if req.pred == nil {
		if n := c.sizeAnswer(p, req.rng, &g.regions); n > 0 {
			g.buf = make([]store.Item, n)
			g.chunks = make([]chunk, 0, len(g.regions))
		}
	}
	req.kind, req.coll, req.reply, req.rnode, req.rcorr = kindRangeScatter, g, nil, 0, 0
}

// spawn sends segment s of req's query to s.to as a branch of its own. It
// queues there even when s.to is idle, so that it runs beside the branch
// that spawned it rather than nested under p's token; a branch the peer
// refuses ends at once, failed.
func (c *Cluster) spawn(req *request, s segment) {
	req.coll.grow(1)
	sub := request{kind: kindRangeScatter, key: s.r.Lower, rng: s.r, hops: req.hops, coll: req.coll, pred: req.pred, onode: req.onode, ocorr: req.ocorr}
	if q := c.topo.Load().peers[s.to]; q != nil {
		if ok, _ := c.admit(q, &sub, false, true); ok {
			return
		}
	}
	c.finish(&sub, ErrOwnerDown)
}

// contribute hands p's part of the query, the keys of own, to where the
// answer is put together:
//   - a local collector: into the region of its presized answer reserved
//     for own's lower bound, or a chunk of its own (claim);
//   - a proxy: to the query's origin node as a partial response, counted
//     in req.parts, which the branch settles into the proxy where it ends;
//   - no collector, the client in this process: onto the travelling
//     accumulator, req.acc, which the first step sizes for the whole
//     answer;
//   - no collector, the client on another node: to the origin as a partial
//     response counted in req.parts, which the branch's final announces —
//     at the end of a walk the part rides that final instead.
//
// Unfiltered parts for another node are encoded from the store straight
// into their frame (storeRun); a pushdown predicate is evaluated in the
// scan, so filtered-out items never travel. p's store holds only what p
// owns, so own needs no clipping — an extreme peer's range need not even
// intersect it for p to hold keys there, outside the domain. With end set
// the branch ends here. contribute reports whether the branch goes on: a
// walk that meets its limit, or a branch whose partial the transport
// refuses, ends early.
func (c *Cluster) contribute(p *peer, req *request, own keyspace.Range, end bool) bool {
	g := req.coll
	wire := g == nil && req.reply == nil && req.rcorr != 0 || g != nil && g.proxy()
	items := req.acc
	var run storeRun
	switch {
	case req.pred != nil:
		items = scanFiltered(p.data, items, own, req.pred)
	case wire:
		run = newRun(p.data, own)
	case g != nil:
		items = p.data.ScanAppend(g.claim(own.Lower), own)
	case items == nil && req.reply != nil && !end:
		items = p.data.ScanAppend(make([]store.Item, 0, c.sizeAnswer(p, own, nil)), own)
	default:
		items = p.data.ScanAppend(items, own)
	}
	walk := g == nil && req.kind == kindRange
	if lim := req.pred.LimitOrZero(); walk && lim > 0 && req.shipped+len(items) >= lim {
		// The pushdown limit is met: answer now instead of walking the rest
		// of the chain. (shipped came off the wire: a count past the limit
		// must not index.)
		c.respond(*req, response{items: items[:max(lim-req.shipped, 0)], parts: req.parts, hops: req.hops})
		return false
	}
	var err error
	if wire && !(walk && end) && len(items)+run.n > 0 {
		// A part the transport refuses is not counted — the origin must not
		// wait for a frame that was never sent — and fails the branch.
		if c.net.answer(req.onode, req.ocorr, response{items: items}, msgFlagPartial, run) {
			req.parts++
		} else {
			err = ErrOwnerDown
		}
		req.shipped += len(items) + run.n
		items, run = nil, storeRun{}
	}
	if g != nil {
		g.settle(chunk{lo: own.Lower, items: items}, req.hops, nil, 0, 0)
	} else {
		req.acc = items
	}
	switch {
	case err == nil && !end:
		return true
	case walk && run.data != nil:
		c.net.answer(req.rnode, req.rcorr, response{parts: req.parts, hops: req.hops}, 0, run)
	default:
		c.finish(req, err)
	}
	return false
}

// finish ends req's branch with err. With a collector the branch settles
// into it, with the count of partials it shipped (req.parts). Without one
// it answers its client with what it has: the walk's items so far
// (req.acc, in-process) or that count (over the wire). The client is
// promised the partial answer alongside the error, so neither may be
// dropped here; respond drops a fire-and-forget request (no waiter).
func (c *Cluster) finish(req *request, err error) {
	if req.coll != nil {
		req.coll.settle(chunk{}, req.hops, err, 1, req.parts)
		return
	}
	c.respond(*req, response{items: req.acc, parts: req.parts, hops: req.hops, err: err})
}
