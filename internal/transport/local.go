package transport

import "sync"

// Hub connects Local endpoints inside one process. It exists so the
// Transport seam can be exercised — and multi-node clusters assembled —
// without sockets: frames are handed to the destination's handler
// synchronously in the sender's goroutine, preserving the at-most-once,
// in-order, never-blocking contract with zero copies.
type Hub struct {
	mu  sync.Mutex
	eps map[NodeID]*Local
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{eps: make(map[NodeID]*Local)} }

// Endpoint registers (or returns) the endpoint for node id.
func (h *Hub) Endpoint(id NodeID) *Local {
	h.mu.Lock()
	defer h.mu.Unlock()
	ep := h.eps[id]
	if ep == nil {
		ep = &Local{hub: h, id: id}
		h.eps[id] = ep
	}
	return ep
}

// Local is the in-process Transport: Send looks the destination up in the
// hub and invokes its handler directly. The p2p cluster only consults a
// transport for peers hosted by *another* node, so a single-process cluster
// on Local endpoints pays exactly one nil-check over the historical
// in-process queue fast path — which is the fast path, unchanged.
type Local struct {
	hub     *Hub
	id      NodeID
	mu      sync.Mutex
	handler Handler
	closed  bool
}

// OnMessage installs the inbound dispatch callback.
func (l *Local) OnMessage(h Handler) {
	l.mu.Lock()
	l.handler = h
	l.mu.Unlock()
}

// Self implements Transport.
func (l *Local) Self() NodeID { return l.id }

// Send implements Transport: synchronous dispatch to the destination's
// handler, false if the destination is absent or either side is closed.
func (l *Local) Send(to NodeID, m *Msg) bool {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return false
	}
	l.hub.mu.Lock()
	dst := l.hub.eps[to]
	l.hub.mu.Unlock()
	if dst == nil {
		return false
	}
	dst.mu.Lock()
	h := dst.handler
	if dst.closed {
		h = nil
	}
	dst.mu.Unlock()
	if h == nil {
		return false
	}
	h(l.id, m)
	return true
}

// Close implements Transport. The endpoint stays registered (so late Sends
// to it return false rather than panicking) but delivers nothing more.
func (l *Local) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}
