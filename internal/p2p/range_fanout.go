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
// peer owning the range's lower bound creates one and seeds it with its own
// pending unit of work; every scatter sub-request grows the pending count
// before it is sent and shrinks it when its branch finishes, so the count
// can only reach zero once every branch has reported. The branch that takes
// the count to zero delivers the gathered answer to the client.
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
	// node other than the one the branch was sent from, for the branches
	// running here. It holds counts, never items — ship sends a peer's part
	// to origin the moment the peer has it — and its final tells the parent
	// branch's correlation how many partials that makes.
	wire wireDest
	// origin is where the query's chunks go: for a proxy the origin node's
	// entry, named by the request that built it; for the origin's own
	// collector that entry itself, once the first branch has left the node
	// (corr 0 until then), kept so completion can release it.
	origin wireDest
	// pred is the query's pushdown predicate, shared by every branch so a
	// scatter sub-request carries one pointer instead of re-encoding the
	// predicate per segment. Nil for unfiltered queries.
	pred *query.Pred
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
// drive pending to zero while its parent is still scattering. It also
// makes room in the chunk slice for every outstanding branch, each of
// which contributes at most one chunk, so the gather itself never grows it.
func (g *collector) grow(n int) {
	g.mu.Lock()
	g.pending += n
	if !g.proxy() {
		g.chunks = slices.Grow(g.chunks, g.pending)
	}
	g.mu.Unlock()
}

// finish reports one branch's partial result: the sorted items of the peer
// whose range starts at lo. When the last branch finishes, the chunks are
// stitched together in key order and sent to the client; the reply channel
// is buffered so this never blocks a peer goroutine. A proxy ships them.
func (g *collector) finish(lo keyspace.Key, items []store.Item, hops int, err error) {
	if g.proxy() {
		g.ship(items, storeRun{}, hops, err)
		return
	}
	g.settle(chunk{lo: lo, items: items}, hops, err, 1, 0)
}

// ship finishes a proxy's branch: it sends the peer's part — items, or
// run's — to the query's origin and keeps the count. A part the transport
// refuses is not counted — the origin must not wait for a frame that was
// never sent — and turns into the branch's error.
func (g *collector) ship(items []store.Item, run storeRun, hops int, err error) {
	parts := 0
	if len(items) > 0 || run.n > 0 {
		if g.origin.n.answer(g.origin.node, g.origin.corr, response{items: items}, msgFlagPartial, run) {
			parts = 1
		} else if err == nil {
			err = ErrOwnerDown
		}
	}
	g.settle(chunk{}, hops, err, 1, parts)
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

// settle is the one piece of bookkeeping behind finish and fromWire: take a
// chunk, merge hop count and error, retire `branches` pending branches and
// move the partial count, then — if that completed the query — deliver.
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
	if hops > g.hops {
		g.hops = hops
	}
	if branches != everyBranch {
		g.pending -= branches
		g.parts += parts
	}
	g.done = branches == everyBranch || g.pending == 0 && (g.proxy() || g.parts <= 0)
	done, origin := g.done, g.origin
	resp := response{hops: g.hops, err: g.err}
	if g.proxy() {
		resp.parts = g.parts
	} else if done {
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
	if lim := g.pred.LimitOrZero(); lim > 0 && n > lim {
		n = lim
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

// scatterAt is the parallel counterpart of the serial adjacent-chain walk:
// peer p answers the part of rng it stores, splits the still-uncovered
// remainder into contiguous segments — one per alive right-routing-table
// entry whose range starts inside the remainder, plus the leading segment
// for the right adjacent chain — and scatters one sub-request per segment.
// Each recipient owns its segment's lower bound and recursively does the
// same, so a range covering m peers completes in O(log m) message depth
// instead of m sequential hops.
func (c *Cluster) scatterAt(p *peer, rng keyspace.Range, hops int, coll *collector) {
	rem := rng
	if p.rng.Upper > rem.Lower {
		rem.Lower = p.rng.Upper
	}
	// Scatter the remainder before scanning locally: the sub-requests are
	// in flight while this peer walks its own tree, and the store cannot
	// change in between — the holder of the peer's token owns it and
	// handles one message at a time. The sub-requests carry the collector,
	// so they always queue (admit): the branches run in parallel.
	var err error
	if !rem.IsEmpty() {
		err = c.scatterRemainder(p, rem, hops, coll)
	}
	switch {
	case coll.pred != nil:
		// Pushdown: evaluate the predicate during the scan so the branch
		// ships only matching items, at most the predicate's limit (more
		// than lim matches can never be needed whatever the other branches
		// return).
		coll.finish(rng.Lower, scanFiltered(p.data, nil, rng, coll.pred), hops, err)
	case coll.proxy():
		// The query's origin is on another node: the part goes into its
		// frame straight from the store.
		coll.ship(nil, newRun(p.data, rng), hops, err)
	default:
		coll.finish(rng.Lower, p.data.ScanAppend(coll.claim(rng.Lower), rng), hops, err)
	}
}

// scanFiltered appends the items of r that match pred to dst, stopping at
// the predicate's limit (counted across dst as the serial walk requires).
func scanFiltered(data *store.Store, dst []store.Item, r keyspace.Range, pred *query.Pred) []store.Item {
	lim := pred.LimitOrZero()
	data.AscendRange(r, func(it store.Item) bool {
		if !pred.MatchItem(it) {
			return true
		}
		dst = append(dst, it)
		return lim == 0 || len(dst) < lim
	})
	return dst
}

// scatterRemainder splits rem (which starts exactly at p's upper bound)
// across p's rightward links and sends one scatter sub-request per segment.
// It returns ErrOwnerDown if any segment's owner could not be reached, in
// which case the query completes with the partial answer, mirroring the
// serial walk's behaviour at a dead chain link.
func (c *Cluster) scatterRemainder(p *peer, rem keyspace.Range, hops int, coll *collector) error {
	next := p.view.Adj[core.Right]
	if next == nil {
		// p is the rightmost peer: the remainder lies beyond the domain and
		// holds no data.
		return nil
	}
	// Cut points: alive right-routing-table entries whose range starts
	// strictly inside the remainder. Their lower bounds are valid segment
	// boundaries because each entry owns keys from its lower bound onward.
	var cutBuf [32]*core.Link
	cuts := cutBuf[:0]
	for _, l := range p.view.RT[core.Right] {
		if l == nil || !c.Alive(l.ID) {
			continue
		}
		if l.Lower > rem.Lower && l.Lower < rem.Upper {
			cuts = append(cuts, l)
		}
	}
	slices.SortFunc(cuts, func(a, b *core.Link) int { return cmp.Compare(a.Lower, b.Lower) })

	type segment struct {
		to core.PeerID
		r  keyspace.Range
	}
	var segBuf [len(cutBuf) + 1]segment
	segs := segBuf[:0]
	lo := rem.Lower
	target := next.ID
	for _, cut := range cuts {
		segs = append(segs, segment{to: target, r: keyspace.Range{Lower: lo, Upper: cut.Lower}})
		lo, target = cut.Lower, cut.ID
	}
	segs = append(segs, segment{to: target, r: keyspace.Range{Lower: lo, Upper: rem.Upper}})

	var firstErr error
	for i, s := range segs {
		if i == 0 && !c.Alive(next.ID) {
			// The leading segment is aimed at the dead right adjacent, but
			// only the dead peer's own slice is unavailable — everything
			// past its upper bound belongs to alive peers an alive route
			// can still reach. Split the segment instead of losing it all.
			if err := c.scatterPastDead(p, next, s.r, hops, coll); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		coll.grow(1)
		sub := request{kind: kindRangeScatter, key: s.r.Lower, rng: s.r, hops: hops, coll: coll}
		if !c.send(s.to, sub) {
			// The segment's owner is dead (or the cluster is stopping):
			// record the branch as failed so the client gets the partial
			// answer plus ErrOwnerDown instead of hanging on the collector.
			coll.finish(s.r.Lower, nil, hops, ErrOwnerDown)
			if firstErr == nil {
				firstErr = ErrOwnerDown
			}
		}
	}
	return firstErr
}

// scatterPastDead handles a leading scatter segment whose first covering
// peer (p's right adjacent) is dead: the dead peer's own slice of the
// segment is recorded as a failed branch, and the remainder beyond its
// upper bound — which alive peers own — is re-scattered as a routed
// sub-request through the first alive forwarding candidate, exactly as a
// scatter addressed with stale routing state would be. Without this, a
// single mid-chain crash silently truncated every range answer at the dead
// peer even when the rest of the chain was alive and reachable sideways.
func (c *Cluster) scatterPastDead(p *peer, dead *core.Link, seg keyspace.Range, hops int, coll *collector) error {
	// The dead peer's slice: always a failed branch (its data is down until
	// recovery restores the range under a new owner).
	coll.grow(1)
	coll.finish(seg.Lower, nil, hops, ErrOwnerDown)
	rest := keyspace.Range{Lower: dead.Upper, Upper: seg.Upper}
	if rest.IsEmpty() {
		return ErrOwnerDown
	}
	sub := request{kind: kindRangeScatter, key: rest.Lower, rng: rest, hops: hops, coll: coll}
	coll.grow(1)
	var buf [48]*core.Link
	for _, cand := range core.ForwardCandidates(&p.view, p.rng, rest.Lower, buf[:0]) {
		if cand == nil || cand.ID == dead.ID || !c.Alive(cand.ID) {
			continue
		}
		if c.send(cand.ID, sub) {
			return ErrOwnerDown
		}
	}
	// No alive route past the dead peer: the rest of the segment fails too.
	coll.finish(rest.Lower, nil, hops, ErrOwnerDown)
	return ErrOwnerDown
}
