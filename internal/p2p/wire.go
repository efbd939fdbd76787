// wire.go is the binary codec between the in-memory request/response
// structs and the transport's frame payloads. It is dependency-free and
// deliberately boring: little-endian fixed-width integers, length-prefixed
// byte strings, and one exhaustive switch per direction over the request
// kinds (kindexhaustive enforces that a new kind cannot ship without wire
// rules). Decoders are bounds-checked everywhere: a malformed payload
// yields errWireTruncated/errWireMalformed — never a panic — and every
// element count is validated against the bytes actually present before any
// slice is allocated, so a hostile length field cannot over-allocate.
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
// copied between the encoder and the socket.
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

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
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

func appendKey(b []byte, k keyspace.Key) []byte { return appendI64(b, int64(k)) }
func appendRange(b []byte, r keyspace.Range) []byte {
	return appendKey(appendKey(b, r.Lower), r.Upper)
}
func appendPeerID(b []byte, id core.PeerID) []byte { return appendI64(b, int64(id)) }

// wreader walks a payload with sticky bounds checking: after the first
// short read every accessor returns a zero value and ok() reports false.
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

func (r *wreader) i64() int64          { return int64(r.u64()) }
func (r *wreader) bool() bool          { return r.u8() != 0 }
func (r *wreader) key() keyspace.Key   { return keyspace.Key(r.i64()) }
func (r *wreader) peerID() core.PeerID { return core.PeerID(r.i64()) }
func (r *wreader) rng() keyspace.Range { return keyspace.Range{Lower: r.key(), Upper: r.key()} }
func (r *wreader) done() bool          { return !r.fail && r.off == len(r.b) }

func (r *wreader) bytes() []byte {
	n := r.u32()
	if n == ^uint32(0) {
		return nil
	}
	s := r.take(int(n))
	if s == nil {
		return nil
	}
	return s
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
// Composite fields.

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

func appendKeys(b []byte, keys []keyspace.Key) []byte {
	b = appendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = appendKey(b, k)
	}
	return b
}

func (r *wreader) keys() []keyspace.Key {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]keyspace.Key, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.key())
	}
	if r.fail {
		return nil
	}
	return out
}

// visited travels as a sorted id list so encodings are deterministic. The
// ids are sorted on the stack: a request that has wandered past 16 peers is
// rare enough to pay for its slice.
func appendVisited(b []byte, visited *peerSet) []byte {
	var few [16]core.PeerID
	return appendPeerIDs(b, visited.ids(few[:0]))
}

func (r *wreader) visited() peerSet {
	var out peerSet
	for n := r.count(8); n > 0; n-- {
		out.add(r.peerID())
	}
	if r.fail {
		return peerSet{}
	}
	return out
}

func appendPred(b []byte, p *query.Pred) []byte {
	if p == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	b = appendI64(b, int64(p.MinValueLen))
	b = appendI64(b, int64(p.MaxValueLen))
	b = appendKeys(b, p.Keys)
	return appendI64(b, int64(p.Limit))
}

func (r *wreader) pred() *query.Pred {
	if !r.bool() {
		return nil
	}
	p := &query.Pred{MinValueLen: int(r.i64()), MaxValueLen: int(r.i64())}
	p.Keys = r.keys()
	p.Limit = int(r.i64())
	if r.fail {
		return nil
	}
	return p
}

// Links are encoded by value: id plus the range the link caches.
func appendLink(b []byte, l *core.Link) []byte {
	if l == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	b = appendPeerID(b, l.ID)
	return appendKey(appendKey(b, l.Lower), l.Upper)
}

func (r *wreader) link() *core.Link {
	if !r.bool() {
		return nil
	}
	l := &core.Link{ID: r.peerID(), Lower: r.key(), Upper: r.key()}
	if r.fail {
		return nil
	}
	return l
}

func appendLinks(b []byte, ls []*core.Link) []byte {
	b = appendU32(b, uint32(len(ls)))
	for _, l := range ls {
		b = appendLink(b, l)
	}
	return b
}

func (r *wreader) links() []*core.Link {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]*core.Link, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.link())
	}
	if r.fail {
		return nil
	}
	return out
}

func appendState(b []byte, st *peerState) []byte {
	if st == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	b = appendI64(b, int64(st.pos.Level))
	b = appendI64(b, st.pos.Number)
	b = appendRange(b, st.rng)
	v := &st.view
	b = appendLink(b, v.Parent)
	b = appendLinks(b, v.Children)
	b = appendLink(b, v.Adj[core.Left])
	b = appendLink(b, v.Adj[core.Right])
	b = appendLinks(b, v.RT[core.Left])
	return appendLinks(b, v.RT[core.Right])
}

func (r *wreader) state() *peerState {
	if !r.bool() {
		return nil
	}
	st := &peerState{}
	st.pos.Level = int(r.i64())
	st.pos.Number = r.i64()
	st.rng = r.rng()
	v := &st.view
	v.Parent = r.link()
	v.Children = r.links()
	v.Adj[core.Left] = r.link()
	v.Adj[core.Right] = r.link()
	v.RT[core.Left] = r.links()
	v.RT[core.Right] = r.links()
	if r.fail {
		return nil
	}
	return st
}

func appendRanges(b []byte, rs []keyspace.Range) []byte {
	b = appendU32(b, uint32(len(rs)))
	for _, r := range rs {
		b = appendRange(b, r)
	}
	return b
}

func (r *wreader) ranges() []keyspace.Range {
	n := r.count(16)
	if n == 0 {
		return nil
	}
	out := make([]keyspace.Range, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.rng())
	}
	if r.fail {
		return nil
	}
	return out
}

// Moves cross the wire with their ack rewritten from a channel to a
// correlation (netDeliver fills ackCorr/ackNode before encoding) and with
// the destination's hosting node attached, so a source on another process
// can deliver the handoff even before the topology broadcast that names
// the new peer reaches it.
func appendMoves(b []byte, moves []handoffMove) []byte {
	b = appendU32(b, uint32(len(moves)))
	for _, mv := range moves {
		b = appendRange(b, mv.region)
		b = appendPeerID(b, mv.dst)
		b = appendU32(b, uint32(mv.dstNode))
		b = appendU64(b, mv.ackCorr)
		b = appendU32(b, uint32(mv.ackNode))
	}
	return b
}

func (r *wreader) moves() []handoffMove {
	n := r.count(40)
	if n == 0 {
		return nil
	}
	out := make([]handoffMove, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, handoffMove{
			region:  r.rng(),
			dst:     r.peerID(),
			dstNode: transport.NodeID(r.u32()),
			ackCorr: r.u64(),
			ackNode: transport.NodeID(r.u32()),
		})
	}
	if r.fail {
		return nil
	}
	return out
}

func appendSnap(b []byte, s *core.PeerSnapshot) []byte {
	if s == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	b = appendPeerID(b, s.ID)
	b = appendI64(b, int64(s.Position.Level))
	b = appendI64(b, s.Position.Number)
	b = appendRange(b, s.Range)
	b = appendItems(b, s.Items)
	b = appendPeerID(b, s.Parent)
	b = appendPeerID(b, s.LeftChild)
	b = appendPeerID(b, s.RightChild)
	b = appendPeerIDs(b, s.MidChildren)
	b = appendPeerID(b, s.LeftAdjacent)
	b = appendPeerID(b, s.RightAdjacent)
	b = appendPeerIDs(b, s.LeftRouting)
	return appendPeerIDs(b, s.RightRouting)
}

func (r *wreader) snap() *core.PeerSnapshot {
	if !r.bool() {
		return nil
	}
	s := &core.PeerSnapshot{}
	s.ID = r.peerID()
	s.Position.Level = int(r.i64())
	s.Position.Number = r.i64()
	s.Range = r.rng()
	s.Items = r.items()
	s.Parent = r.peerID()
	s.LeftChild = r.peerID()
	s.RightChild = r.peerID()
	s.MidChildren = r.peerIDs()
	s.LeftAdjacent = r.peerID()
	s.RightAdjacent = r.peerID()
	s.LeftRouting = r.peerIDs()
	s.RightRouting = r.peerIDs()
	if r.fail {
		return nil
	}
	return s
}

func appendPeerIDs(b []byte, ids []core.PeerID) []byte {
	b = appendU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = appendPeerID(b, id)
	}
	return b
}

func (r *wreader) peerIDs() []core.PeerID {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]core.PeerID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.peerID())
	}
	if r.fail {
		return nil
	}
	return out
}

// ---------------------------------------------------------------------------
// Error mapping. The cluster's sentinel errors are translated to stable
// codes so errors.Is works across processes; anything else travels as its
// message and is reconstructed as an opaque error.

const (
	errCodeNil = iota
	errCodeStopped
	errCodeUnknownPeer
	errCodeUnreachable
	errCodeOwnerDown
	errCodeMoved
	errCodeReplicaLost
	errCodeOpaque
)

func appendErr(b []byte, err error) []byte {
	switch {
	case err == nil:
		return appendU8(b, errCodeNil)
	case errors.Is(err, ErrStopped):
		return appendU8(b, errCodeStopped)
	case errors.Is(err, ErrUnknownPeer):
		return appendU8(b, errCodeUnknownPeer)
	case errors.Is(err, ErrUnreachable):
		return appendU8(b, errCodeUnreachable)
	case errors.Is(err, ErrOwnerDown):
		return appendU8(b, errCodeOwnerDown)
	case errors.Is(err, errMoved):
		return appendU8(b, errCodeMoved)
	case errors.Is(err, ErrReplicaLost):
		return appendU8(b, errCodeReplicaLost)
	default:
		return appendString(appendU8(b, errCodeOpaque), err.Error())
	}
}

// errSize bounds what appendErr writes past the code byte: the text, which
// a sentinel does not send.
func errSize(err error) int {
	if err == nil {
		return 0
	}
	return 4 + len(err.Error())
}

func (r *wreader) anErr() error {
	switch code := r.u8(); code {
	case errCodeNil:
		return nil
	case errCodeStopped:
		return ErrStopped
	case errCodeUnknownPeer:
		return ErrUnknownPeer
	case errCodeUnreachable:
		return ErrUnreachable
	case errCodeOwnerDown:
		return ErrOwnerDown
	case errCodeMoved:
		return errMoved
	case errCodeReplicaLost:
		return ErrReplicaLost
	case errCodeOpaque:
		return errors.New(string(r.bytes()))
	default:
		r.fail = true
		return nil
	}
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
// nothing — which is why no third per-kind switch sits beside the encoder's
// and the decoder's.
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

// encodeRequest serialises req for the wire. Reply channels, collectors
// and traces are correlation/metadata concerns handled by the caller
// (node.go); only protocol fields are encoded. The kind switch is
// exhaustive: a kind without wire rules cannot compile past kindexhaustive.
func encodeRequest(b []byte, req *request) []byte {
	b = appendU8(b, uint8(req.kind))
	var flags uint8
	if req.par {
		flags |= reqFlagPar
	}
	b = appendU8(b, flags)
	b = appendU32(b, uint32(req.hops))
	switch req.kind {
	case kindGet, kindDelete:
		b = appendKey(b, req.key)
		b = appendU64(b, req.epoch)
		b = appendVisited(b, &req.visited)
	case kindPut:
		b = appendKey(b, req.key)
		b = appendBytes(b, req.value)
		b = appendU64(b, req.epoch)
		b = appendVisited(b, &req.visited)
	case kindRange, kindRangeScatter:
		b = appendKey(b, req.key)
		b = appendRange(b, req.rng)
		b = appendVisited(b, &req.visited)
		b = appendU32(b, uint32(req.onode))
		b = appendU64(b, req.ocorr)
		b = appendU32(b, uint32(req.parts))
		b = appendU32(b, uint32(req.shipped))
		b = appendPred(b, req.pred)
	case kindBulkGet, kindBulkPut, kindBulkDelete:
		b = appendItems(b, req.bulk)
	case kindJoinLocate, kindFindReplacement:
		b = appendKey(b, req.key)
		b = appendVisited(b, &req.visited)
	case kindUpdate:
		b = appendState(b, req.state)
		b = appendRanges(b, req.gains)
		b = appendMoves(b, req.moves)
		b = appendPeerID(b, req.departTo)
	case kindHandoff:
		b = appendRange(b, req.rng)
		b = appendItems(b, req.bulk)
	case kindSnapshot, kindStats, kindCrash, kindReplicaResync, kindReplicaDump:
		// Header-only requests.
	case kindSplitKey:
		b = appendU64(b, math.Float64bits(req.frac))
	case kindReplicate:
		b = appendPeerID(b, req.src)
		b = appendItems(b, req.bulk)
		b = appendKeys(b, req.dels)
		b = appendI64(b, req.seq)
	case kindReplicaSync:
		b = appendPeerID(b, req.src)
		b = appendItems(b, req.bulk)
		b = appendI64(b, req.seq)
	case kindReplicaDrop, kindReplicaFetch:
		b = appendPeerID(b, req.src)
	default:
		// Unlike the dispatch switches, an unencodable kind is a programming
		// error on the sending node: fail loudly in tests via the decoder
		// (the receiver rejects the kind) rather than silently dropping
		// fields.
	}
	return b
}

// decodeRequest is the inverse of encodeRequest. Its kind switch mirrors
// the encoder's exactly (kindexhaustive covers both).
func decodeRequest(payload []byte) (request, error) {
	r := &wreader{b: payload}
	k := kind(r.u8())
	if int(k) < 0 || int(k) >= numKinds {
		return request{}, fmt.Errorf("%w: request kind %d", errWireMalformed, int(k))
	}
	flags := r.u8()
	req := request{kind: k, par: flags&reqFlagPar != 0, hops: int(r.u32())}
	switch k {
	case kindGet, kindDelete:
		req.key = r.key()
		req.epoch = r.u64()
		req.visited = r.visited()
	case kindPut:
		req.key = r.key()
		req.value = r.bytes()
		req.epoch = r.u64()
		req.visited = r.visited()
	case kindRange, kindRangeScatter:
		req.key = r.key()
		req.rng = r.rng()
		req.visited = r.visited()
		req.onode = transport.NodeID(r.u32())
		req.ocorr = r.u64()
		req.parts = r.partCount()
		req.shipped = int(r.u32())
		req.pred = r.pred()
	case kindBulkGet, kindBulkPut, kindBulkDelete:
		req.bulk = r.items()
	case kindJoinLocate, kindFindReplacement:
		req.key = r.key()
		req.visited = r.visited()
	case kindUpdate:
		req.state = r.state()
		req.gains = r.ranges()
		req.moves = r.moves()
		req.departTo = r.peerID()
	case kindHandoff:
		req.rng = r.rng()
		req.bulk = r.items()
	case kindSnapshot, kindStats, kindCrash, kindReplicaResync, kindReplicaDump:
		// Header-only requests.
	case kindSplitKey:
		req.frac = math.Float64frombits(r.u64())
	case kindReplicate:
		req.src = r.peerID()
		req.bulk = r.items()
		req.dels = r.keys()
		req.seq = r.i64()
	case kindReplicaSync:
		req.src = r.peerID()
		req.bulk = r.items()
		req.seq = r.i64()
	case kindReplicaDrop, kindReplicaFetch:
		req.src = r.peerID()
	default:
		return request{}, fmt.Errorf("%w: request kind %d", errWireMalformed, int(k))
	}
	if !r.done() {
		return request{}, fmt.Errorf("%w: request kind %d", errWireTruncated, int(k))
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

// encodeResponse encodes resp, items last so responseFrame can swap them.
func encodeResponse(b []byte, resp *response) []byte {
	return appendItems(appendResponseHead(b, resp), resp.items)
}

// responseFrame encodes resp into a frame of its final size; with run set,
// run's items stand in for resp's.
func responseFrame(resp *response, run storeRun) []byte {
	if run.data == nil {
		return encodeResponse(transport.NewFrame(responseSize(resp)), resp)
	}
	return appendRun(appendResponseHead(transport.NewFrame(responseSize(resp)+run.size), resp), run)
}

func appendResponseHead(b []byte, resp *response) []byte {
	b = appendErr(b, resp.err)
	b = appendU32(b, uint32(resp.hops))
	b = appendU32(b, uint32(resp.parts))
	b = appendBytes(b, resp.value)
	b = appendBool(b, resp.found)
	b = appendU32(b, uint32(len(resp.results)))
	for _, br := range resp.results {
		b = appendKey(b, br.Key)
		b = appendBytes(b, br.Value)
		b = appendBool(b, br.Found)
		b = appendErr(b, br.Err)
	}
	b = appendPeerID(b, resp.peerID)
	b = appendI64(b, int64(resp.slot))
	b = appendSnap(b, resp.snap)
	b = appendI64(b, int64(resp.count))
	b = appendKey(b, resp.splitKey)
	if resp.replicaSets == nil {
		b = appendBool(b, false)
	} else {
		b = appendBool(b, true)
		b = appendU32(b, uint32(len(resp.replicaSets)))
		var few [16]core.PeerID
		ids := few[:0]
		for id := range resp.replicaSets {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			b = appendPeerID(b, id)
			b = appendItems(b, resp.replicaSets[id])
		}
	}
	return b
}

// decodeResponse decodes a response frame whole.
func decodeResponse(payload []byte) (response, error) { return readResponse(payload, false) }

// readResponse is decodeResponse that, with keep, leaves the items of a
// response without a value encoded, in value, once checked (wreader.block):
// a malformed list fails the frame on arrival, never later. Whoever takes
// the response decodes them once, where they end up (corrEntry.complete).
func readResponse(payload []byte, keep bool) (response, error) {
	r := &wreader{b: payload}
	resp := response{}
	resp.err = r.anErr()
	resp.hops = int(r.u32())
	resp.parts = r.partCount()
	resp.value = r.bytes()
	resp.found = r.bool()
	if n := r.count(14); n > 0 {
		resp.results = make([]BulkResult, 0, n)
		for i := 0; i < n; i++ {
			resp.results = append(resp.results, BulkResult{
				Key: r.key(), Value: r.bytes(), Found: r.bool(), Err: r.anErr(),
			})
		}
	}
	resp.peerID = r.peerID()
	resp.slot = int(r.i64())
	resp.snap = r.snap()
	resp.count = int(r.i64())
	resp.splitKey = r.key()
	if r.bool() {
		n := r.count(12)
		resp.replicaSets = make(map[core.PeerID][]store.Item, n)
		for i := 0; i < n; i++ {
			id := r.peerID()
			resp.replicaSets[id] = r.items()
		}
	}
	if keep && resp.value == nil {
		resp.value = r.block()
		resp.kept = resp.value != nil
	} else {
		resp.items = r.items()
	}
	if !r.done() {
		return response{}, errWireTruncated
	}
	return resp, nil
}
