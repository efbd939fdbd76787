// Package transport is the message medium under the p2p cluster: it moves
// opaque, correlation-tagged frames between *nodes* (OS processes hosting one
// or more peers) and knows nothing about what the frames mean.
//
// # The seam
//
// The p2p layer historically delivered requests by writing a `request` struct
// — reply channel and all — straight into the destination peer's queue. That
// fast path survives unchanged for peers hosted by the same process: hop
// counts, the 0-alloc direct-get path and the goroutine-leak barrier are
// untouched, because no Msg is ever built for an in-process delivery. Only
// when the destination peer lives on another node does the cluster fall
// through to a Transport, and at that point the reply channel is replaced by
// a correlation ID.
//
// # The correlation contract
//
// A channel cannot cross a process boundary, so a request that expects an
// answer carries Msg.Corr, a nonzero 64-bit ID minted by the *origin* node.
// The contract is:
//
//   - Corr == 0 means fire-and-forget: no response frame may be sent for it.
//   - Corr != 0 obliges whichever node finally serves the request to send
//     exactly one *final* response frame addressed to Msg.Origin carrying
//     the same Corr. Intermediate nodes that forward the request forward
//     Origin and Corr verbatim — the response does not retrace the
//     request's route.
//   - The origin keeps a table mapping Corr to a completion (a channel send,
//     a range collector's branch, ...). The table entry is released when
//     the final arrives, when the connection that the request left on
//     drops (completed with the owner-down error so retry layers see the
//     exact failure they already handle), or when the node stops.
//   - A response for a released Corr is dropped silently; late duplicates
//     are harmless.
//   - A query whose answer many nodes contribute to may also name, in its
//     payload, a second correlation of the origin's that takes *partial*
//     response frames (the p2p layer marks them with a bit in Msg.Flags):
//     zero or more per contributor, each completing nothing. Who counts
//     what: a sender counts the partials it actually handed to Send — a
//     refused one is not counted — and the count travels with the finals;
//     the origin counts arrivals and is done when every final is in and the
//     two counts agree. Partials and finals ride different connections, so
//     their arrival order means nothing. The origin releases that entry
//     itself; a dropped connection — any, since finals say how many
//     partials were sent, not by whom — ends the query with the owner-down
//     error and what has arrived.
//
// Transports deliver frames at most once, in order per connection, and never
// block the sender: Send either enqueues and returns true or returns false
// immediately (unknown node, connection down, transport stopped), which the
// p2p layer maps onto its existing refused-delivery semantics.
package transport

// NodeID names a process in the cluster. ID 0 is reserved: a dialer that
// does not yet have an identity claims 0 and is assigned one by the
// listener's Assign hook during the hello handshake.
type NodeID uint32

// Msg is one frame on the wire. To/Kind/Flags/Payload are opaque to the
// transport; Corr and Origin implement the correlation contract above.
type Msg struct {
	To      uint64 // destination peer (p2p-level address inside the node)
	Corr    uint64 // correlation ID, 0 = fire-and-forget
	Origin  NodeID // node the response (if any) must be sent to
	Kind    uint8  // p2p-level message kind; values >= 250 are reserved
	Flags   uint8
	Payload []byte
}

// Handler receives every inbound frame. It runs on the connection's reader
// goroutine and must not block: hand long work to another goroutine. The Msg
// is the reader's and is overwritten by the next frame — copy what must
// outlive the call; its Payload is a fresh buffer per frame and the
// handler's to keep.
type Handler func(from NodeID, m *Msg)

// Transport moves frames between nodes.
type Transport interface {
	// Self is this node's ID (assigned during the hello handshake when the
	// node dialed in with ID 0).
	Self() NodeID
	// Send enqueues m for node `to`. It never blocks; false means the frame
	// was not and will not be sent (no connection, transport stopped).
	Send(to NodeID, m *Msg) bool
	// Close tears the transport down: listeners and connections close,
	// reconnect loops terminate, reader/writer goroutines exit.
	Close()
}

// Reserved frame kinds used by the hello handshake. P2P-level kinds must
// stay below these.
const (
	kindHello    = 255
	kindHelloAck = 254
)
