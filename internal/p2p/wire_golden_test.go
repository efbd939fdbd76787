package p2p

import (
	"bytes"
	"fmt"
	"testing"

	"baton/internal/keyspace"
	"baton/internal/store"
	"baton/internal/transport"
)

// TestWireGoldenBytes pins the wire form itself, not just its round trip:
// every golden request and response encodes to the very bytes it did when
// the table was recorded.
func TestWireGoldenBytes(t *testing.T) {
	golden := goldenRequests()
	for k := 0; k < numKinds; k++ {
		req := golden[kind(k)]
		if got := fmt.Sprintf("%x", encodeRequest(nil, &req)); got != wireGoldenRequests[k] {
			t.Errorf("%v: encoding moved\n got %s\nwant %s", kind(k), got, wireGoldenRequests[k])
		}
	}
	resps := goldenResponses()
	if len(resps) != len(wireGoldenResponses) {
		t.Fatalf("%d golden responses, %d recorded encodings", len(resps), len(wireGoldenResponses))
	}
	for i := range resps {
		if got := fmt.Sprintf("%x", encodeResponse(nil, &resps[i])); got != wireGoldenResponses[i] {
			t.Errorf("response %d: encoding moved\n got %s\nwant %s", i, got, wireGoldenResponses[i])
		}
	}
}

// dirtyFrame is transport.NewFrame as (*TCP).Frame may hand one out: a
// written frame's bytes are still there, 0xFF here in every byte of its
// capacity.
func dirtyFrame(n int) []byte {
	frame := transport.NewFrame(n)
	for i := range frame[:cap(frame)] {
		frame[:cap(frame)][i] = 0xFF
	}
	return frame
}

// TestWireEncodersOverwriteRecycledFrames: no encoder relies on a zeroed
// frame. Every golden request and response encodes into a dirty one to its
// golden bytes, and a store's part to its items' encoding.
func TestWireEncodersOverwriteRecycledFrames(t *testing.T) {
	golden := goldenRequests()
	for k := 0; k < numKinds; k++ {
		req := golden[kind(k)]
		frame := encodeRequest(dirtyFrame(requestSize(&req)), &req)
		if got := fmt.Sprintf("%x", frame[transport.FrameReserve:]); got != wireGoldenRequests[k] {
			t.Errorf("%v: a dirty frame moved the encoding\n got %s\nwant %s", kind(k), got, wireGoldenRequests[k])
		}
	}
	for i, resp := range goldenResponses() {
		frame := responseFrame(&resp, storeRun{}, dirtyFrame)
		if got := fmt.Sprintf("%x", frame[transport.FrameReserve:]); got != wireGoldenResponses[i] {
			t.Errorf("response %d: a dirty frame moved the encoding\n got %s\nwant %s", i, got, wireGoldenResponses[i])
		}
	}
	s := store.New()
	for i := 0; i < 3000; i++ {
		var v []byte
		if i%7 != 0 {
			v = bytes.Repeat([]byte{byte(i)}, i%5)
		}
		s.Put(keyspace.Key(2*i), v)
	}
	for _, r := range []keyspace.Range{{Lower: 301, Upper: 4501}, {Lower: 5, Upper: 6}, keyspace.FullDomain()} {
		resp := response{parts: 2, hops: 1}
		got := responseFrame(&resp, newRun(s, r), dirtyFrame)[transport.FrameReserve:]
		resp.items = s.Scan(r)
		if want := encodeResponse(nil, &resp); !bytes.Equal(got, want) {
			t.Errorf("%v: a store's part in a dirty frame differs from its items' encoding", r)
		}
	}
}

// TestWireDecodeAllocs holds each golden decode to the allocations its
// decoded fields need: the codec's own reader and the visited set cost
// nothing.
func TestWireDecodeAllocs(t *testing.T) {
	golden := goldenRequests()
	for k := 0; k < numKinds; k++ {
		req := golden[kind(k)]
		payload := encodeRequest(nil, &req)
		if got := testing.AllocsPerRun(50, func() { decodeRequest(payload) }); got > wireDecodeAllocs[k] {
			t.Errorf("%v: %.0f allocations per decode, want at most %.0f", kind(k), got, wireDecodeAllocs[k])
		}
	}
	for i, resp := range goldenResponses() {
		payload := encodeResponse(nil, &resp)
		if got := testing.AllocsPerRun(50, func() { decodeResponse(payload) }); got > wireDecodeRespAllocs[i] {
			t.Errorf("response %d: %.0f allocations per decode, want at most %.0f", i, got, wireDecodeRespAllocs[i])
		}
	}
}

// wireGoldenRequests is the hex of every golden request's encoding, one per
// kind. The wire form is a protocol between processes: a codec change that
// moves a byte breaks mixed-version clusters, so it must move this table too.
var wireGoldenRequests = [numKinds]string{
	kindGet:             "0000030000002a00000000000000070000000000000003000000030000000000000009000000000000001b00000000000000",
	kindPut:             "0100010000002b000000000000000100000076090000000000000000000000",
	kindDelete:          "0200020000002c000000000000000000000000000000010000000100000000000000",
	kindRange:           "03010400000032000000000000003200000000000000630000000000000003000000030000000000000009000000000000001b00000000000000030000004d0000000000000005000000b0040000010100000000000000400000000000000002000000050000000000000007000000000000000c00000000000000",
	kindRangeScatter:    "0400050000003c000000000000003c00000000000000500000000000000000000000010000004e000000000000000000000000000000010100000000000000400000000000000002000000050000000000000007000000000000000c00000000000000",
	kindBulkGet:         "050001000000030000000a000000000000000300000074656e1400000000000000ffffffff1e0000000000000000000000",
	kindBulkPut:         "060001000000030000000a000000000000000300000074656e1400000000000000ffffffff1e0000000000000000000000",
	kindBulkDelete:      "070002000000010000004d00000000000000ffffffff",
	kindJoinLocate:      "080006000000030000000000000003000000030000000000000009000000000000001b00000000000000",
	kindFindReplacement: "0900070000000400000000000000010000000c00000000000000",
	kindUpdate:          "0a000100000001030000000000000005000000000000006400000000000000c8000000000000000101000000000000000000000000000000e803000000000000020000000104000000000000006400000000000000960000000000000000010200000000000000320000000000000064000000000000000002000000000108000000000000000a00000000000000320000000000000001000000011000000000000000c8000000000000009001000000000000010000000100000000000000020000000000000001000000050000000000000009000000000000001f00000000000000020000006300000000000000010000000800000000000000",
	kindHandoff:         "0b000200000005000000000000000900000000000000030000000a000000000000000300000074656e1400000000000000ffffffff1e0000000000000000000000",
	kindSnapshot:        "0c0001000000",
	kindStats:           "0d0001000000",
	kindSplitKey:        "0e0001000000000000000000d83f",
	kindCrash:           "0f0001000000",
	kindReplicate:       "1000010000000600000000000000030000000a000000000000000300000074656e1400000000000000ffffffff1e000000000000000000000002000000010000000000000002000000000000002a00000000000000",
	kindReplicaSync:     "1100010000000600000000000000030000000a000000000000000300000074656e1400000000000000ffffffff1e00000000000000000000002b00000000000000",
	kindReplicaDrop:     "1200010000000600000000000000",
	kindReplicaResync:   "130001000000",
	kindReplicaFetch:    "1400010000000700000000000000",
	kindReplicaDump:     "150001000000",
}

// wireGoldenResponses is the hex of goldenResponses()' encodings, in order.
var wireGoldenResponses = []string{
	"000000000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"000300000000000000010000007601000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"0001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"040900000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000002000000010000000000000001000000610200000000000000ffffffff",
	"000200000000000000ffffffff00030000000100000000000000010000007801000200000000000000ffffffff00050300000000000000ffffffff00070e000000637573746f6d206661696c7572650000000000000000000000000000000000000000000000000000000000000000000000000000",
	"000400000000000000ffffffff00000000004d00000000000000020000000000000000000000000000000000000000000000000000000000",
	"000100000000000000ffffffff000000000000000000000000000000000000000000010400000000000000020000000000000003000000000000000a00000000000000140000000000000002000000010000000000000001000000610200000000000000ffffffff010000000000000008000000000000000900000000000000010000000b00000000000000030000000000000005000000000000000200000002000000000000000000000000000000010000000600000000000000000000000000000000000000000000000000000000",
	"000100000000000000ffffffff010000000000000000000000000000000000000000007b00000000000000c8010000000000000000000000",
	"000200000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000102000000050000000000000002000000010000000000000001000000610200000000000000ffffffff06000000000000000000000000000000",
	"030000000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"010000000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"020000000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"060000000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"040000000000000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"00060000000d000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"07060000006f70617175650400000002000000ffffffff00000000000000000000000000000000000000000000000000000000000000000000000000000002000000010000000000000001000000610200000000000000ffffffff",
}

// wireDecodeAllocs is the most allocations decoding each golden request
// may cost: its slices, maps and pointers, and nothing for the codec itself.
var wireDecodeAllocs = [numKinds]float64{
	kindRange:        2,
	kindRangeScatter: 2,
	kindBulkGet:      1,
	kindBulkPut:      1,
	kindBulkDelete:   1,
	kindUpdate:       11,
	kindHandoff:      1,
	kindReplicate:    2,
	kindReplicaSync:  1,
}

// wireDecodeRespAllocs is the response-side twin, in goldenResponses()' order.
var wireDecodeRespAllocs = []float64{0, 0, 0, 1, 3, 0, 5, 0, 3, 0, 0, 0, 0, 0, 0, 3}

// TestKindTableTotal: every kind has its row in the kind table.
func TestKindTableTotal(t *testing.T) {
	for k := 0; k < numKinds; k++ {
		if kinds[k].name == "" {
			t.Errorf("kind %d has no row in the kind table", k)
		}
		if kinds[k].control && kinds[k].data {
			t.Errorf("%v is both control and data", kind(k))
		}
	}
}
