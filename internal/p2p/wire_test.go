package p2p

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/transport"
)

// visitedOf builds a visited set holding ids, in the order decode adds
// them (ascending).
func visitedOf(ids ...core.PeerID) peerSet {
	var s peerSet
	for _, id := range ids {
		s.add(id)
	}
	return s
}

// TestVisitedSetSpills: past eight members, and for an id too large for a
// 32-bit slot, the visited set spills into its map. Where a member lives
// changes neither membership nor the sorted wire form.
func TestVisitedSetSpills(t *testing.T) {
	var s peerSet
	for _, id := range []core.PeerID{5, 1 << 40, 3, 9, 12, 7, 30, 2, 11, 4, 3} {
		s.add(id)
	}
	want := []core.PeerID{2, 3, 4, 5, 7, 9, 11, 12, 30, 1 << 40}
	if got := s.ids(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	for _, id := range want {
		if !s.has(id) {
			t.Fatalf("member %d missing", id)
		}
	}
	if s.has(1) || s.has(core.NoPeer) || s.has(1<<40+1) {
		t.Fatal("set reports a peer it never added")
	}
	req := request{kind: kindGet, key: 1, visited: s}
	got, err := decodeRequest(encodeRequest(nil, &req))
	if err != nil {
		t.Fatal(err)
	}
	if ids := got.visited.ids(nil); !reflect.DeepEqual(ids, want) {
		t.Fatalf("decoded ids = %v, want %v", ids, want)
	}
}

// goldenRequests builds one representative request per kind — every field
// that kind puts on the wire populated with non-default values — so the
// round-trip test fails if an encoder or decoder forgets a field.
func goldenRequests() map[kind]request {
	items := []store.Item{{Key: 10, Value: []byte("ten")}, {Key: 20, Value: nil}, {Key: 30, Value: []byte{}}}
	visited := visitedOf(3, 9, 27)
	pred := &query.Pred{MinValueLen: 1, MaxValueLen: 64, Keys: []keyspace.Key{5, 7}, Limit: 12}
	st := &peerState{
		pos: core.Position{Level: 3, Number: 5},
		rng: keyspace.Range{Lower: 100, Upper: 200},
		view: core.View{
			Parent:   &core.Link{ID: 1, Lower: 0, Upper: 1000},
			Children: []*core.Link{{ID: 4, Lower: 100, Upper: 150}, nil},
			Adj:      [2]*core.Link{{ID: 2, Lower: 50, Upper: 100}, nil},
			RT: [2][]*core.Link{
				{nil, {ID: 8, Lower: 10, Upper: 50}},
				{{ID: 16, Lower: 200, Upper: 400}},
			},
		},
	}
	return map[kind]request{
		kindGet:    {kind: kindGet, key: 42, hops: 3, epoch: 7, visited: visited},
		kindPut:    {kind: kindPut, key: 43, value: []byte("v"), hops: 1, epoch: 9},
		kindDelete: {kind: kindDelete, key: 44, hops: 2, visited: visitedOf(1)},
		kindRange: {kind: kindRange, key: 50, rng: keyspace.Range{Lower: 50, Upper: 99},
			hops: 4, par: true, visited: visited, onode: 3, ocorr: 77, parts: 5, shipped: 1200, pred: pred},
		kindRangeScatter: {kind: kindRangeScatter, key: 60, rng: keyspace.Range{Lower: 60, Upper: 80}, hops: 5,
			onode: 1, ocorr: 78, pred: pred},
		kindBulkGet:    {kind: kindBulkGet, bulk: items, hops: 1},
		kindBulkPut:    {kind: kindBulkPut, bulk: items, hops: 1},
		kindBulkDelete: {kind: kindBulkDelete, bulk: []store.Item{{Key: 77}}, hops: 2},
		kindJoinLocate: {kind: kindJoinLocate, key: 3, hops: 6, visited: visited},
		kindFindReplacement: {kind: kindFindReplacement, key: 4, hops: 7,
			visited: visitedOf(12)},
		kindUpdate: {kind: kindUpdate, state: st, gains: []keyspace.Range{{Lower: 1, Upper: 2}},
			moves: []handoffMove{{region: keyspace.Range{Lower: 5, Upper: 9}, dst: 31,
				dstNode: 2, ackCorr: 99, ackNode: 1}}, departTo: 8, hops: 1},
		kindHandoff:       {kind: kindHandoff, rng: keyspace.Range{Lower: 5, Upper: 9}, bulk: items, hops: 2},
		kindSnapshot:      {kind: kindSnapshot, hops: 1},
		kindStats:         {kind: kindStats, hops: 1},
		kindSplitKey:      {kind: kindSplitKey, frac: 0.375, hops: 1},
		kindCrash:         {kind: kindCrash, hops: 1},
		kindReplicate:     {kind: kindReplicate, src: 6, bulk: items, dels: []keyspace.Key{1, 2}, seq: 42, hops: 1},
		kindReplicaSync:   {kind: kindReplicaSync, src: 6, bulk: items, seq: 43, hops: 1},
		kindReplicaDrop:   {kind: kindReplicaDrop, src: 6, hops: 1},
		kindReplicaResync: {kind: kindReplicaResync, hops: 1},
		kindReplicaFetch:  {kind: kindReplicaFetch, src: 7, hops: 1},
		kindReplicaDump:   {kind: kindReplicaDump, hops: 1},
	}
}

// TestWireRequestRoundTripEveryKind is the golden harness: every kind must
// have a golden request, and each must survive encode→decode unchanged in
// every wire-travelling field.
func TestWireRequestRoundTripEveryKind(t *testing.T) {
	golden := goldenRequests()
	for k := 0; k < numKinds; k++ {
		req, ok := golden[kind(k)]
		if !ok {
			t.Fatalf("no golden request for kind %v — add one when adding a kind", kind(k))
		}
		payload := encodeRequest(nil, &req)
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind(k), err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%v: round-trip mismatch\n got %+v\nwant %+v", kind(k), got, req)
		}
	}
}

// goldenResponses covers every response field, each error code and the
// nil-versus-empty distinctions the codec must keep.
func goldenResponses() []response {
	items := []store.Item{{Key: 1, Value: []byte("a")}, {Key: 2, Value: nil}}
	snap := &core.PeerSnapshot{
		ID: 4, Position: core.Position{Level: 2, Number: 3},
		Range: keyspace.Range{Lower: 10, Upper: 20}, Items: items,
		Parent: 1, LeftChild: 8, RightChild: 9, MidChildren: []core.PeerID{11},
		LeftAdjacent: 3, RightAdjacent: 5,
		LeftRouting:  []core.PeerID{2, core.NoPeer},
		RightRouting: []core.PeerID{6},
	}
	return []response{
		{},
		{value: []byte("v"), found: true, hops: 3},
		{value: []byte{}, hops: 1}, // empty ≠ nil must survive
		{items: items, hops: 9, err: ErrOwnerDown},
		{results: []BulkResult{
			{Key: 1, Value: []byte("x"), Found: true},
			{Key: 2, Err: errMoved},
			{Key: 3, Err: errors.New("custom failure")},
		}, hops: 2},
		{peerID: 77, slot: 2, hops: 4},
		{snap: snap, hops: 1},
		{count: 123, splitKey: 456, found: true, hops: 1},
		{replicaSets: map[core.PeerID][]store.Item{5: items, 6: nil}, hops: 2},
		{err: ErrUnreachable}, {err: ErrStopped}, {err: ErrUnknownPeer},
		{err: ErrReplicaLost}, {err: fmt.Errorf("wrapped: %w", ErrOwnerDown)},
		{parts: 13, hops: 6}, // a branch's final: counts only
		{items: items, parts: 2, hops: 4, err: errors.New("opaque")}, // a serial chain's, with its last chunk
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	for i, want := range goldenResponses() {
		payload := encodeResponse(nil, &want)
		got, err := decodeResponse(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !responsesEqual(got, want) {
			t.Errorf("case %d: round-trip mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestWireFramesAreSizedOnce pins the one-buffer-per-frame contract: for
// every golden request and response, and a 10 000-item range chunk, the
// size bound holds (the encoding ends inside the buffer it started in),
// wastes under 128 bytes, and sizing + allocating + encoding costs exactly
// one allocation — the frame.
func TestWireFramesAreSizedOnce(t *testing.T) {
	check := func(name string, encode func() (buf, out []byte)) {
		t.Helper()
		buf, out := encode()
		if len(out) > cap(buf) || &out[0] != &buf[:1][0] {
			t.Errorf("%s: encoding outgrew its buffer: %d bytes into capacity %d", name, len(out), cap(buf))
			return
		}
		if slack := cap(buf) - len(out); slack >= 128 {
			t.Errorf("%s: %d bytes of slack in a %d-byte frame", name, slack, len(out))
		}
		if allocs := testing.AllocsPerRun(20, func() { encode() }); allocs != 1 {
			t.Errorf("%s: %.0f allocations per frame, want 1", name, allocs)
		}
	}
	for k, req := range goldenRequests() {
		req := req
		check(k.String(), func() ([]byte, []byte) {
			buf := transport.NewFrame(requestSize(&req))
			return buf, encodeRequest(buf, &req)
		})
	}
	big := make([]store.Item, 10000)
	for i := range big {
		big[i] = store.Item{Key: keyspace.Key(2 * i), Value: []byte("0123456789abcdef")}
	}
	for i, resp := range append(goldenResponses(), response{items: big, hops: 3}) {
		resp := resp
		check(fmt.Sprintf("response %d", i), func() ([]byte, []byte) {
			buf := transport.NewFrame(responseSize(&resp))
			return buf, encodeResponse(buf, &resp)
		})
	}
}

// TestWireDecodeRejectsAbsurdPartCount: a final announcing more partials
// than any sane sub-tree could have sent is a malformed frame, not a count
// for a collector to wait on.
func TestWireDecodeRejectsAbsurdPartCount(t *testing.T) {
	if _, err := decodeResponse(encodeResponse(nil, &response{parts: maxParts})); err != nil {
		t.Fatalf("parts = maxParts rejected: %v", err)
	}
	if _, err := decodeResponse(encodeResponse(nil, &response{parts: maxParts + 1})); err == nil {
		t.Fatal("parts > maxParts decoded successfully")
	}
	req := goldenRequests()[kindRange]
	req.parts = maxParts + 1
	if _, err := decodeRequest(encodeRequest(nil, &req)); err == nil {
		t.Fatal("request with parts > maxParts decoded successfully")
	}
}

// responsesEqual compares responses field by field, comparing errors by
// sentinel identity / message (a wrapped sentinel arrives as the bare
// sentinel — the part that must survive for errors.Is at the caller).
func responsesEqual(a, b response) bool {
	if !errsEqual(a.err, b.err) {
		return false
	}
	if len(a.results) != len(b.results) {
		return false
	}
	for i := range a.results {
		x, y := a.results[i], b.results[i]
		if x.Key != y.Key || x.Found != y.Found || !bytesEqualNil(x.Value, y.Value) || !errsEqual(x.Err, y.Err) {
			return false
		}
	}
	a.err, b.err = nil, nil
	a.results, b.results = nil, nil
	return reflect.DeepEqual(a, b)
}

func errsEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, sentinel := range []error{ErrStopped, ErrUnknownPeer, ErrUnreachable, ErrOwnerDown, errMoved, ErrReplicaLost} {
		if errors.Is(b, sentinel) {
			return errors.Is(a, sentinel)
		}
	}
	return a.Error() == b.Error()
}

func bytesEqualNil(a, b []byte) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return string(a) == string(b)
}

// TestWireErrorMappingSurvivesWrapping pins the sentinel contract: a
// wrapped sentinel crossing the wire still satisfies errors.Is at the
// receiving client, which is what keeps retry/fail-over layers working
// unchanged over TCP.
func TestWireErrorMappingSurvivesWrapping(t *testing.T) {
	wrapped := fmt.Errorf("%w: peer 12", ErrOwnerDown)
	got, err := decodeResponse(encodeResponse(nil, &response{err: wrapped}))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.err, ErrOwnerDown) {
		t.Fatalf("ErrOwnerDown lost in transit: %v", got.err)
	}
}

// TestWireDecodeRejectsUnknownKind: a kind byte past the enum — 22 and 23
// among them, the retired predicate variants of get and range — is a
// malformed frame. A get frame carries no predicate byte.
func TestWireDecodeRejectsUnknownKind(t *testing.T) {
	get := encodeRequest(nil, &request{kind: kindGet, key: 42, hops: 3, epoch: 7})
	if got := fmt.Sprintf("%x", get); got != "0000030000002a00000000000000070000000000000000000000" {
		t.Fatalf("get frame = %s", got)
	}
	for _, k := range []byte{22, 23, 255} {
		get[0] = k
		if _, err := decodeRequest(get); err == nil {
			t.Fatalf("request kind %d decoded successfully", k)
		}
	}
}

func TestWireDecodeRejectsTrailingGarbage(t *testing.T) {
	payload := encodeRequest(nil, &request{kind: kindGet, key: 1})
	payload = append(payload, 0xFF)
	if _, err := decodeRequest(payload); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

// FuzzDecodeRequest hammers the request decoder with malformed payloads:
// it must return an error or a request — never panic — and a round-trip of
// anything it accepts must be stable (encode(decode(p)) decodes equal).
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range goldenRequests() {
		f.Add(encodeRequest(nil, &req))
	}
	// The golden range frame carries a predicate; seed the two other shapes a
	// read takes on the wire: a filtered one-key range (a filtered point read)
	// and an unfiltered range with no predicate byte set.
	f.Add(encodeRequest(nil, &request{kind: kindRange, key: 45, rng: keyspace.Range{Lower: 45, Upper: 46},
		hops: 1, visited: visitedOf(3), onode: 2, ocorr: 79, parts: 1, shipped: 7,
		pred: &query.Pred{MinValueLen: 2, Keys: []keyspace.Key{45}}}))
	f.Add(encodeRequest(nil, &request{kind: kindRange, key: 51, rng: keyspace.Range{Lower: 51, Upper: 90}, hops: 2}))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		re := encodeRequest(nil, &req)
		req2, err := decodeRequest(re)
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		// Compare the re-encoded bytes, not the structs: frac may be NaN
		// (NaN != NaN defeats DeepEqual) but its bits must be stable.
		if re2 := encodeRequest(nil, &req2); !bytesEqualNil(re, re2) {
			t.Fatalf("unstable round-trip:\n first %x\nsecond %x", re, re2)
		}
	})
}

// FuzzDecodeResponse is the response-side twin. It also holds the arrival
// check, which keeps a range answer's items encoded (readResponse with
// keep), to the whole decoder: both accept exactly the same payloads, and
// decoding the kept items later yields what the decoder did.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(encodeResponse(nil, &response{value: []byte("v"), found: true, hops: 1}))
	f.Add(encodeResponse(nil, &response{err: ErrOwnerDown, items: []store.Item{{Key: 1}}}))
	f.Add(encodeResponse(nil, &response{parts: 13, hops: 6}))
	f.Add(encodeResponse(nil, &response{items: []store.Item{{Key: 4, Value: []byte("chunk")}}})) // what a partial frame carries
	f.Add(encodeResponse(nil, &response{parts: maxParts + 1}))
	f.Add(encodeResponse(nil, &response{items: []store.Item{{Key: 5}, {Key: 6, Value: []byte{}}, {Key: 7, Value: []byte("x")}}}))
	// A partial whose item count is one more than its bytes hold: the count
	// is the 4 bytes before the last item's 13 (key, length, "x").
	short := encodeResponse(nil, &response{items: []store.Item{{Key: 8, Value: []byte("w")}, {Key: 9, Value: []byte("x")}}})
	binary.LittleEndian.PutUint32(short[len(short)-30:], 3)
	f.Add(short)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeResponse(data)
		kept, keptErr := readResponse(data, true)
		if (err == nil) != (keptErr == nil) {
			t.Fatalf("the decoder says %v, the arrival check %v", err, keptErr)
		}
		if err != nil {
			return
		}
		if kept.kept {
			kept.items, kept.value, kept.kept = appendKept(nil, kept.value, len(data)), nil, false
		}
		if !responsesEqual(kept, resp) {
			t.Fatalf("kept items decode differently\n kept %+v\nwhole %+v", kept, resp)
		}
		if _, err := decodeResponse(encodeResponse(nil, &resp)); err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
	})
}

// TestWireRunFrameEncodesItems: a part encoded straight from a store makes
// the very frame its scanned items would, in a buffer sized for it
// exactly, allocated once.
func TestWireRunFrameEncodesItems(t *testing.T) {
	s := store.New()
	for i := 0; i < 10000; i++ {
		var v []byte
		if i%7 != 0 {
			v = []byte(fmt.Sprint(i))
		}
		s.Put(keyspace.Key(2*i), v)
	}
	for _, r := range []keyspace.Range{{Lower: 1001, Upper: 15001}, {Lower: 5, Upper: 6}, keyspace.FullDomain()} {
		resp := response{parts: 3, hops: 2, err: ErrOwnerDown}
		frame := func() []byte { return responseFrame(&resp, newRun(s, r)) }
		got := frame()
		want := encodeResponse(nil, &response{parts: 3, hops: 2, err: ErrOwnerDown, items: s.Scan(r)})
		if !bytes.Equal(got[transport.FrameReserve:], want) {
			t.Fatalf("%v: the run's frame differs from its items'", r)
		}
		if slack := cap(got) - len(got); slack >= 128 {
			t.Errorf("%v: %d bytes of slack in a %d-byte frame", r, slack, len(got))
		}
		if allocs := testing.AllocsPerRun(20, func() { frame() }); allocs != 1 {
			t.Errorf("%v: %.0f allocations per frame, want 1", r, allocs)
		}
	}
}

// controlBodies makes one empty layout per control body read off the wire;
// goldenControl holds a populated one of each, in the same order.
var controlBodies = []func() layout{
	func() layout { return &helloMsg{} },
	func() layout { return &helloReply{} },
	func() layout { return &joinMsg{} },
	func() layout { return &spawnMsg{} },
	func() layout { return &spawnReply{} },
	func() layout { return &topoMsg{} },
	func() layout { return &loadsMsg{} },
}

func goldenControl() []layout {
	return []layout{
		&helloMsg{addr: []byte("127.0.0.1:7331")},
		&helloReply{domain: keyspace.Range{Lower: 0, Upper: 1 << 20}, fanout: 2},
		&joinMsg{count: 4},
		&spawnMsg{id: 9, st: goldenRequests()[kindUpdate].state, gains: []keyspace.Range{{Lower: 3, Upper: 7}}},
		&spawnReply{ok: true},
		&topoMsg{epoch: 12, members: []topoMember{{id: 1, node: 1, rng: keyspace.Range{Upper: 50}, alive: true},
			{id: 2, node: 2, rng: keyspace.Range{Lower: 50, Upper: 100}}},
			addrs: []nodeAddr{{node: 1, addr: []byte("127.0.0.1:7331")}, {node: 2, addr: []byte{}}}},
		&loadsMsg{loads: []peerLoad{{id: 2, reqs: 40, items: 1000}, {id: 5, reqs: -1, items: 0}}},
	}
}

// TestControlBodiesRoundTrip: every control body decodes to what was encoded.
func TestControlBodiesRoundTrip(t *testing.T) {
	for i, want := range goldenControl() {
		got := controlBodies[i]()
		if !decodeBody(encodeBody(nil, want), got) {
			t.Fatalf("%T: decode failed", want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: round-trip mismatch\n got %+v\nwant %+v", want, got, want)
		}
	}
}

// FuzzDecodeControl is FuzzDecodeRequest for the control bodies: the first
// byte picks the body, the rest is its payload. Decoding must never panic,
// and a body it accepts must round-trip stably.
func FuzzDecodeControl(f *testing.F) {
	for i, body := range goldenControl() {
		f.Add(encodeBody([]byte{byte(i)}, body))
	}
	f.Add([]byte{3, 9, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		newBody := controlBodies[int(data[0])%len(controlBodies)]
		body := newBody()
		if !decodeBody(data[1:], body) {
			return
		}
		re := encodeBody(nil, body)
		again := newBody()
		if !decodeBody(re, again) {
			t.Fatalf("%T: re-decode of accepted payload failed", body)
		}
		if re2 := encodeBody(nil, again); !bytes.Equal(re, re2) {
			t.Fatalf("%T: unstable round-trip:\n first %x\nsecond %x", body, re, re2)
		}
	})
}
