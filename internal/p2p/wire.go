// wire.go is the binary codec between the in-memory request/response
// structs and the transport's frame payloads. It is dependency-free and
// deliberately boring: little-endian fixed-width integers, length-prefixed
// byte strings, and each message's layout written once, on a codec that
// appends when encoding and reads into place when decoding — so a field
// cannot be encoded without being decoded, or in another order. Requests
// have the one switch over the kinds (request.wire); responses are not
// kind-discriminated and have one layout (response.head, items last); the
// control bodies of node.go are layouts on the same codec. Decoders are
// bounds-checked everywhere: a malformed payload yields
// errWireTruncated/errWireMalformed — never a panic — and every element
// count is validated against the bytes actually present before any slice
// is allocated, so a hostile length field cannot over-allocate.
//
// What does NOT cross the wire, by design:
//
//   - reply channels and collectors: replaced by the correlation IDs of
//     internal/transport (see node.go);
//   - trace pointers: a sampled request's hop records are appended by
//     goroutines sharing the trace's memory, so traces cover the hops
//     taken on the origin node only;
//   - enq timestamps: queue-wait is measured per hosting node;
//   - acc, the serial walk's accumulator: range items travel only in
//     response frames, each peer's part once, from its store (storeRun)
//     to the origin, which decodes it once, into the answer (see node.go).
//
// Every frame is encoded into one buffer of its final size: requestSize /
// responseSize bound the encoding from the variable-length fields, the
// buffer comes from transport.NewFrame with the header room reserved, and
// the transport queues those very bytes — append never regrows, nothing is
// copied between the encoder and the socket. Item lists, the bulk of every
// range answer, skip the codec: appendItems / wreader.items, a peer's part
// straight from its store (storeRun), and the arrival check that leaves it
// encoded (wreader.block).
package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/transport"
)

// wireKind classifies a transport frame (transport.Msg.Kind). A defined
// type so batonvet's kindexhaustive check covers the inbound framing
// dispatch (netLayer.handleMsg); the header field itself stays a raw byte
// because the transport package knows nothing of the p2p protocol.
type wireKind uint8

// Transport-level message kinds. Values >= 250 are reserved by the
// transport's handshake.
const (
	msgRequest  wireKind = 1 // payload: encodeRequest
	msgResponse wireKind = 2 // payload: encodeResponse, Corr names the completion
	msgControl  wireKind = 3 // payload: node-level control op (node.go)
)

var (
	errWireTruncated = errors.New("p2p: truncated wire payload")
	errWireMalformed = errors.New("p2p: malformed wire payload")
)

// ---------------------------------------------------------------------------
// Primitives.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendBytes length-prefixes v; nil and empty are distinguished (a GET
// miss returns a nil value, an empty value is a legal stored value).
func appendBytes(b, v []byte) []byte {
	if v == nil {
		return appendU32(b, ^uint32(0))
	}
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

// appendString is appendBytes for a (never nil) string, without the
// conversion's copy.
func appendString(b []byte, v string) []byte {
	return append(appendU32(b, uint32(len(v))), v...)
}

func appendKey(b []byte, k keyspace.Key) []byte    { return appendU64(b, uint64(k)) }
func appendPeerID(b []byte, id core.PeerID) []byte { return appendU64(b, uint64(id)) }

// wreader walks a payload with sticky bounds checking: after the first
// short read every accessor returns a zero value and done() reports false.
type wreader struct {
	b    []byte
	off  int
	fail bool
}

func (r *wreader) take(n int) []byte {
	if r.fail || n < 0 || len(r.b)-r.off < n {
		r.fail = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wreader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *wreader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *wreader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *wreader) bool() bool          { return r.u8() != 0 }
func (r *wreader) key() keyspace.Key   { return keyspace.Key(r.u64()) }
func (r *wreader) peerID() core.PeerID { return core.PeerID(r.u64()) }
func (r *wreader) done() bool          { return !r.fail && r.off == len(r.b) }

func (r *wreader) bytes() []byte {
	n := r.u32()
	if n == ^uint32(0) {
		return nil
	}
	return r.take(int(n))
}

// count reads an element count and validates it against the bytes left,
// given a lower bound on the encoded size of one element — the guard that
// makes a hostile count harmless: the later allocation is bounded by the
// payload length actually received.
func (r *wreader) count(minElemSize int) int {
	n := int(r.u32())
	if r.fail || n < 0 || (minElemSize > 0 && n > (len(r.b)-r.off)/minElemSize) {
		r.fail = true
		return 0
	}
	return n
}

// maxParts bounds a partial count read off the wire. The count sizes no
// allocation, but a collector would wait forever for partials that do not
// exist: more than a maximal frame has room to list marks the frame
// malformed.
const maxParts = transport.DefaultMaxFrame / respFixed

func (r *wreader) partCount() int {
	n := r.u32()
	if n > maxParts {
		r.fail = true
		return 0
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Item lists, the hot path: coded directly, outside the codec.

func appendItems(b []byte, items []store.Item) []byte {
	b = appendU32(b, uint32(len(items)))
	for _, it := range items {
		b = appendKey(b, it.Key)
		b = appendBytes(b, it.Value)
	}
	return b
}

// itemsSize is the encoded size of items past the count prefix.
func itemsSize(items []store.Item) int {
	n := 12 * len(items)
	for i := range items {
		n += len(items[i].Value)
	}
	return n
}

func (r *wreader) items() []store.Item {
	n := r.count(12) // key + value length prefix
	if n == 0 {
		return nil
	}
	out := make([]store.Item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, store.Item{Key: r.key(), Value: r.bytes()})
	}
	if r.fail {
		return nil
	}
	return out
}

// block is the arrival check of an item list left encoded: the count
// against the bytes left, every value's length prefix. It returns the list
// as encoded, count first, for appendKept; nil when empty.
func (r *wreader) block() []byte {
	start := r.off
	n := r.count(12)
	for i := 0; i < n; i++ {
		r.key()
		r.bytes()
	}
	if r.fail || n == 0 {
		return nil
	}
	return r.b[start:r.off]
}

// appendKept decodes up to limit items of a list block accepted (nil holds
// none) onto dst. The values alias the payload, as decoded ones do.
func appendKept(dst []store.Item, enc []byte, limit int) []store.Item {
	r := &wreader{b: enc}
	for n := min(int(r.u32()), limit); n > 0; n-- {
		dst = append(dst, store.Item{Key: r.key(), Value: r.bytes()})
	}
	return dst
}

// storeRun is a peer's part of a range answer on its way into a frame: the
// items of r in data, counted and sized by one walk of the leaf runs, then
// encoded by a second, under the peer's token, straight into the frame.
type storeRun struct {
	data    *store.Store
	r       keyspace.Range
	n, size int // size excludes the count prefix, as itemsSize does
}

func newRun(data *store.Store, r keyspace.Range) storeRun {
	run := storeRun{data: data, r: r}
	data.AscendRuns(r, func(lr store.Run) bool {
		run.n += len(lr.Keys)
		run.size += 12*len(lr.Keys) + lr.Size()
		return true
	})
	return run
}

func appendRun(b []byte, run storeRun) []byte {
	b = appendU32(b, uint32(run.n))
	run.data.AscendRuns(run.r, func(lr store.Run) bool {
		for i, k := range lr.Keys {
			b = appendBytes(appendKey(b, k), lr.Value(i))
		}
		return true
	})
	return b
}

// ---------------------------------------------------------------------------
// The codec. A layout is written once, as a function of a *codec: encoding,
// each field is appended to b; decoding, each is read from r into place.
// Encoding never writes through the layout's pointers — a request's
// predicate, state and links are shared by branches on other goroutines —
// so it is a pure read of the message.

type codec struct {
	b   []byte
	r   wreader // by value: a decode allocates nothing for its reader
	dec bool
}

// layout is a message body written on the codec: a control message of
// node.go.
type layout interface{ wire(c *codec) }

// encodeBody appends l's encoding to b.
func encodeBody(b []byte, l layout) []byte {
	c := codec{b: b}
	l.wire(&c)
	return c.b
}

// decodeBody decodes body into l and reports whether it was one well-formed
// encoding, nothing left over.
func decodeBody(body []byte, l layout) bool {
	c := codec{r: wreader{b: body}, dec: true}
	l.wire(&c)
	return c.r.done()
}

// w8 codes a one-byte field.
func w8[T ~uint8](c *codec, v *T) {
	if c.dec {
		*v = T(c.r.u8())
	} else {
		c.b = append(c.b, uint8(*v))
	}
}

// w32 codes an integer field in four bytes.
func w32[T ~int | ~uint32](c *codec, v *T) {
	if c.dec {
		*v = T(c.r.u32())
	} else {
		c.b = appendU32(c.b, uint32(*v))
	}
}

// w64 codes an integer field in eight bytes.
func w64[T ~int | ~int64 | ~uint64](c *codec, v *T) {
	if c.dec {
		*v = T(c.r.u64())
	} else {
		c.b = appendU64(c.b, uint64(*v))
	}
}

func (c *codec) bool(v *bool) {
	if c.dec {
		*v = c.r.bool()
	} else {
		c.b = appendBool(c.b, *v)
	}
}

func (c *codec) bytes(v *[]byte) {
	if c.dec {
		*v = c.r.bytes()
	} else {
		c.b = appendBytes(c.b, *v)
	}
}

func (c *codec) rng(r *keyspace.Range) {
	w64(c, &r.Lower)
	w64(c, &r.Upper)
}

// parts codes a partial count, which decoding holds to maxParts.
func (c *codec) parts(v *int) {
	if c.dec {
		*v = c.r.partCount()
	} else {
		c.b = appendU32(c.b, uint32(*v))
	}
}

// items codes an item list through the hot pair appendItems / wreader.items.
func (c *codec) items(v *[]store.Item) {
	if c.dec {
		*v = c.r.items()
	} else {
		c.b = appendItems(c.b, *v)
	}
}

// length codes the length of list *s and returns it; decoding, it makes the
// list for the caller to fill in, once the count has passed the guard of
// minElem bytes an element (wreader.count). No elements decode to nil.
func length[T any](c *codec, s *[]T, minElem int) int {
	if !c.dec {
		c.b = appendU32(c.b, uint32(len(*s)))
	} else if n := c.r.count(minElem); n > 0 {
		*s = make([]T, n)
	}
	return len(*s)
}

// some codes whether the optional *p is present and, decoding one that is,
// allocates it for the caller to fill in.
func some[T any](c *codec, p **T) bool {
	set := *p != nil
	c.bool(&set)
	if c.dec && set {
		*p = new(T)
	}
	return set
}

// ---------------------------------------------------------------------------
// Composite fields.

func (c *codec) keys(ks *[]keyspace.Key) {
	for i := range length(c, ks, 8) {
		w64(c, &(*ks)[i])
	}
}

func (c *codec) peerIDs(ids *[]core.PeerID) {
	for i := range length(c, ids, 8) {
		w64(c, &(*ids)[i])
	}
}

func (c *codec) ranges(rs *[]keyspace.Range) {
	for i := range length(c, rs, 16) {
		c.rng(&(*rs)[i])
	}
}

// visited travels as a sorted id list so encodings are deterministic, and is
// read straight into the set. The ids are sorted on the stack: a request
// that has wandered past 16 peers is rare enough to pay for its slice.
func (c *codec) visited(s *peerSet) {
	if c.dec {
		for n := c.r.count(8); n > 0; n-- {
			s.add(c.r.peerID())
		}
		return
	}
	var few [16]core.PeerID
	ids := s.ids(few[:0])
	c.peerIDs(&ids)
}

func (c *codec) pred(pp **query.Pred) {
	if some(c, pp) {
		p := *pp
		w64(c, &p.MinValueLen)
		w64(c, &p.MaxValueLen)
		c.keys(&p.Keys)
		w64(c, &p.Limit)
	}
}

// Links are encoded by value: id plus the range the link caches.
func (c *codec) link(lp **core.Link) {
	if some(c, lp) {
		l := *lp
		w64(c, &l.ID)
		w64(c, &l.Lower)
		w64(c, &l.Upper)
	}
}

func (c *codec) links(ls *[]*core.Link) {
	for i := range length(c, ls, 1) {
		c.link(&(*ls)[i])
	}
}

func (c *codec) state(sp **peerState) {
	if some(c, sp) {
		st := *sp
		w64(c, &st.pos.Level)
		w64(c, &st.pos.Number)
		c.rng(&st.rng)
		v := &st.view
		c.link(&v.Parent)
		c.links(&v.Children)
		c.link(&v.Adj[core.Left])
		c.link(&v.Adj[core.Right])
		c.links(&v.RT[core.Left])
		c.links(&v.RT[core.Right])
	}
}

// Moves cross the wire with their ack rewritten from a channel to a
// correlation (netDeliver fills ackCorr/ackNode before encoding) and with
// the destination's hosting node attached, so a source on another process
// can deliver the handoff even before the topology broadcast that names
// the new peer reaches it.
func (c *codec) moves(ms *[]handoffMove) {
	for i := range length(c, ms, 40) {
		mv := &(*ms)[i]
		c.rng(&mv.region)
		w64(c, &mv.dst)
		w32(c, &mv.dstNode)
		w64(c, &mv.ackCorr)
		w32(c, &mv.ackNode)
	}
}

func (c *codec) snap(sp **core.PeerSnapshot) {
	if some(c, sp) {
		s := *sp
		w64(c, &s.ID)
		w64(c, &s.Position.Level)
		w64(c, &s.Position.Number)
		c.rng(&s.Range)
		c.items(&s.Items)
		w64(c, &s.Parent)
		w64(c, &s.LeftChild)
		w64(c, &s.RightChild)
		c.peerIDs(&s.MidChildren)
		w64(c, &s.LeftAdjacent)
		w64(c, &s.RightAdjacent)
		c.peerIDs(&s.LeftRouting)
		c.peerIDs(&s.RightRouting)
	}
}

// replicaSets travel sorted by source so encodings are deterministic.
func (c *codec) replicaSets(sets *map[core.PeerID][]store.Item) {
	set := *sets != nil
	if c.bool(&set); !set {
		return
	}
	if c.dec {
		n := c.r.count(12)
		*sets = make(map[core.PeerID][]store.Item, n)
		for ; n > 0; n-- {
			id := c.r.peerID()
			(*sets)[id] = c.r.items()
		}
		return
	}
	var few [16]core.PeerID
	ids := few[:0]
	for id := range *sets {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c.b = appendU32(c.b, uint32(len(ids)))
	for _, id := range ids {
		c.b = appendItems(appendPeerID(c.b, id), (*sets)[id])
	}
}

// wireErrs lists the cluster's sentinel errors by their stable code, the
// index, so errors.Is works across processes; anything else travels as its
// message, under errOpaque, and is reconstructed as an opaque error.
var wireErrs = [...]error{nil, ErrStopped, ErrUnknownPeer, ErrUnreachable, ErrOwnerDown, errMoved, ErrReplicaLost}

const errOpaque = uint8(len(wireErrs))

func (c *codec) err(e *error) {
	code := errOpaque
	if !c.dec {
		for i, s := range wireErrs {
			if errors.Is(*e, s) {
				code = uint8(i)
				break
			}
		}
	}
	switch w8(c, &code); {
	case code > errOpaque:
		c.r.fail = true
	case !c.dec:
		if code == errOpaque {
			c.b = appendString(c.b, (*e).Error())
		}
	case code < errOpaque:
		*e = wireErrs[code]
	default:
		*e = errors.New(string(c.r.bytes()))
	}
}

// errSize bounds what the error layout writes past the code byte: the text,
// which a sentinel does not send.
func errSize(err error) int {
	if err == nil {
		return 0
	}
	return 4 + len(err.Error())
}

// ---------------------------------------------------------------------------
// Requests.

// Request flag bits (byte 1 of the payload).
const (
	reqFlagPar = 1 << iota // kindRange: parallel fan-out
)

// reqFixed bounds the fixed-width part of any kind's encoding: the range
// kinds' 83 bytes are the longest, a kindUpdate's 67 come next.
const reqFixed = 88

// requestSize bounds encodeRequest's output from the variable-length fields
// alone. A kind leaves the fields it does not carry unset, so they add
// nothing — which is why no second per-kind switch sits beside the layout's.
func requestSize(req *request) int {
	var few [16]core.PeerID
	n := reqFixed + len(req.value) + 8*len(req.visited.ids(few[:0])) + itemsSize(req.bulk) +
		8*len(req.dels) + 16*len(req.gains) + 40*len(req.moves)
	if req.pred != nil {
		n += 8 * len(req.pred.Keys)
	}
	if st := req.state; st != nil {
		n += 25 * (3 + len(st.view.Children) + len(st.view.RT[0]) + len(st.view.RT[1])) // every link present
	}
	return n
}

// wire is the request layout: kind, flags and hops, then the fields the kind
// carries. Reply channels, collectors and traces are correlation/metadata
// concerns handled by the caller (node.go); only protocol fields are coded.
// The kind switch is exhaustive (kindexhaustive): a kind without wire rules
// cannot ship.
func (req *request) wire(c *codec) {
	w8(c, &req.kind)
	var flags uint8
	if req.par {
		flags |= reqFlagPar
	}
	w8(c, &flags)
	w32(c, &req.hops)
	switch req.kind {
	case kindGet, kindDelete:
		w64(c, &req.key)
		w64(c, &req.epoch)
		c.visited(&req.visited)
	case kindPut:
		w64(c, &req.key)
		c.bytes(&req.value)
		w64(c, &req.epoch)
		c.visited(&req.visited)
	case kindRange, kindRangeScatter:
		w64(c, &req.key)
		c.rng(&req.rng)
		c.visited(&req.visited)
		w32(c, &req.onode)
		w64(c, &req.ocorr)
		c.parts(&req.parts)
		w32(c, &req.shipped)
		c.pred(&req.pred)
	case kindBulkGet, kindBulkPut, kindBulkDelete:
		c.items(&req.bulk)
	case kindJoinLocate, kindFindReplacement:
		w64(c, &req.key)
		c.visited(&req.visited)
	case kindUpdate:
		c.state(&req.state)
		c.ranges(&req.gains)
		c.moves(&req.moves)
		w64(c, &req.departTo)
	case kindHandoff:
		c.rng(&req.rng)
		c.items(&req.bulk)
	case kindSnapshot, kindStats, kindCrash, kindReplicaResync, kindReplicaDump:
		// Header-only requests.
	case kindSplitKey:
		bits := math.Float64bits(req.frac)
		if w64(c, &bits); c.dec {
			req.frac = math.Float64frombits(bits)
		}
	case kindReplicate:
		w64(c, &req.src)
		c.items(&req.bulk)
		c.keys(&req.dels)
		w64(c, &req.seq)
	case kindReplicaSync:
		w64(c, &req.src)
		c.items(&req.bulk)
		w64(c, &req.seq)
	case kindReplicaDrop, kindReplicaFetch:
		w64(c, &req.src)
	default:
		// A kind byte past the enum: the receiver rejects the frame. (Sending
		// one is a programming error on the sending node, which fails loudly
		// in tests through that rejection.)
		c.r.fail = true
	}
	if c.dec {
		req.par = flags&reqFlagPar != 0
	}
}

// encodeRequest serialises req for the wire onto b.
func encodeRequest(b []byte, req *request) []byte {
	c := codec{b: b}
	req.wire(&c)
	return c.b
}

func decodeRequest(payload []byte) (request, error) {
	c := codec{r: wreader{b: payload}, dec: true}
	var req request
	req.wire(&c)
	switch {
	case int(req.kind) >= numKinds:
		return request{}, fmt.Errorf("%w: request kind %d", errWireMalformed, int(req.kind))
	case !c.r.done():
		return request{}, fmt.Errorf("%w: request kind %d", errWireTruncated, int(req.kind))
	}
	return req, nil
}

// ---------------------------------------------------------------------------
// Responses. One generic layout — every field travels with a nil-preserving
// encoding — because responses are not kind-discriminated in memory either.

// respFixed is the fixed-width part of a response with no snapshot.
const respFixed = 56

// responseSize bounds encodeResponse's output, as requestSize does the
// request's.
func responseSize(resp *response) int {
	n := respFixed + errSize(resp.err) + len(resp.value) + itemsSize(resp.items)
	for i := range resp.results {
		n += 14 + len(resp.results[i].Value) + errSize(resp.results[i].Err)
	}
	if s := resp.snap; s != nil {
		n += 96 + itemsSize(s.Items) + 8*(len(s.MidChildren)+len(s.LeftRouting)+len(s.RightRouting))
	}
	for _, items := range resp.replicaSets {
		n += 12 + itemsSize(items)
	}
	if resp.replicaSets != nil {
		n += 4
	}
	return n
}

// head is the response layout but for the items, which come last so a
// frame can take them from a store (responseFrame) or leave them encoded
// (readResponse).
func (resp *response) head(c *codec) {
	c.err(&resp.err)
	w32(c, &resp.hops)
	c.parts(&resp.parts)
	c.bytes(&resp.value)
	c.bool(&resp.found)
	for i := range length(c, &resp.results, 14) {
		br := &resp.results[i]
		w64(c, &br.Key)
		c.bytes(&br.Value)
		c.bool(&br.Found)
		c.err(&br.Err)
	}
	w64(c, &resp.peerID)
	w64(c, &resp.slot)
	c.snap(&resp.snap)
	w64(c, &resp.count)
	w64(c, &resp.splitKey)
	c.replicaSets(&resp.replicaSets)
}

// encodeResponse encodes resp onto b.
func encodeResponse(b []byte, resp *response) []byte {
	c := codec{b: b}
	resp.head(&c)
	return appendItems(c.b, resp.items)
}

// responseFrame encodes resp into a frame of its final size; with run set,
// run's items stand in for resp's.
func responseFrame(resp *response, run storeRun) []byte {
	if run.data == nil {
		return encodeResponse(transport.NewFrame(responseSize(resp)), resp)
	}
	c := codec{b: transport.NewFrame(responseSize(resp) + run.size)}
	resp.head(&c)
	return appendRun(c.b, run)
}

// decodeResponse decodes a response frame whole.
func decodeResponse(payload []byte) (response, error) { return readResponse(payload, false) }

// readResponse is decodeResponse that, with keep, leaves the items of a
// response without a value encoded, in value, once checked (wreader.block):
// a malformed list fails the frame on arrival, never later. Whoever takes
// the response decodes them once, where they end up (corrEntry.complete).
func readResponse(payload []byte, keep bool) (response, error) {
	c := codec{r: wreader{b: payload}, dec: true}
	var resp response
	resp.head(&c)
	if keep && resp.value == nil {
		resp.value = c.r.block()
		resp.kept = resp.value != nil
	} else {
		resp.items = c.r.items()
	}
	if !c.r.done() {
		return response{}, errWireTruncated
	}
	return resp, nil
}
