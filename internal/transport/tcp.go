package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is the wire Transport: one persistent connection per node pair,
// length-prefixed binary frames, reconnect-with-backoff on the dialing
// side. Every node — head and daemons alike — runs a listener, so any node
// can be dialed lazily once its address is known (the p2p layer spreads
// addresses via its topology broadcasts and SetAddr).
type TCP struct {
	cfg     Config
	self    atomic.Uint32
	ln      net.Listener
	done    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	// Frame and byte counts since Listen, bumped by the reader and writer
	// loops; see Stats.
	framesIn, framesOut, bytesIn, bytesOut atomic.Uint64

	frames frameList // written frames for Frame to hand out again

	mu      sync.Mutex
	conns   map[NodeID]*tcpConn
	addrs   map[NodeID]string
	dialing map[NodeID]bool
}

// Stats counts the frames and bytes (length prefixes and headers included)
// a TCP transport has read from and written to its sockets.
type Stats struct {
	FramesIn, FramesOut uint64
	BytesIn, BytesOut   uint64
}

// Stats reads the transport's frame and byte counters.
func (t *TCP) Stats() Stats {
	return Stats{
		FramesIn: t.framesIn.Load(), FramesOut: t.framesOut.Load(),
		BytesIn: t.bytesIn.Load(), BytesOut: t.bytesOut.Load(),
	}
}

// Config parameterizes a TCP transport.
type Config struct {
	// Self is this node's ID. 0 means "assign me": the first Dial's hello
	// handshake fills it in from the listener's Assign hook.
	Self NodeID
	// Listen is the address to listen on; "" means 127.0.0.1:0.
	Listen string
	// Handler receives inbound frames (required before traffic flows).
	Handler Handler
	// OnPeerUp / OnPeerDown observe connections coming and going; both run
	// off the transport's locks, OnPeerDown fires once per dropped
	// connection (before any reconnect attempt) so the owner can fail
	// pending correlations.
	OnPeerUp   func(NodeID)
	OnPeerDown func(NodeID)
	// Assign mints NodeIDs for dialers that claim ID 0. Only the head sets
	// it; a node without Assign rejects unidentified dialers.
	Assign func() NodeID
	// MaxFrame bounds one frame; 0 means DefaultMaxFrame.
	MaxFrame int
}

const (
	helloTimeout     = 5 * time.Second
	dialTimeout      = 2 * time.Second
	reconnectFloor   = 10 * time.Millisecond
	reconnectCeiling = time.Second
)

// ErrHandshake is returned when the hello exchange fails.
var ErrHandshake = errors.New("transport: handshake failed")

// Listen starts a TCP transport on cfg.Listen.
func Listen(cfg Config) (*TCP, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		cfg:     cfg,
		ln:      ln,
		done:    make(chan struct{}),
		conns:   make(map[NodeID]*tcpConn),
		addrs:   make(map[NodeID]string),
		dialing: make(map[NodeID]bool),
	}
	t.self.Store(uint32(cfg.Self))
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Self implements Transport.
func (t *TCP) Self() NodeID { return NodeID(t.self.Load()) }

// Addr is the listener's concrete address (useful with Listen "…:0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetAddr records where node id can be dialed, enabling lazy connections
// to nodes that have not dialed us.
func (t *TCP) SetAddr(id NodeID, addr string) {
	if id == 0 || addr == "" {
		return
	}
	t.mu.Lock()
	t.addrs[id] = addr
	t.mu.Unlock()
}

// Dial connects to addr, runs the hello handshake and registers the
// resulting connection. It returns the remote node's ID. If this node's ID
// is still 0, the handshake assigns one.
func (t *TCP) Dial(addr string) (NodeID, error) {
	return t.dial(addr)
}

func (t *TCP) dial(addr string) (NodeID, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return 0, err
	}
	_ = nc.SetDeadline(time.Now().Add(helloTimeout))
	hello := &Msg{Kind: kindHello, Origin: t.Self()}
	hello.Payload = appendString(binary.LittleEndian.AppendUint32(nil, uint32(t.Self())), t.Addr())
	if _, err := nc.Write(AppendFrame(nil, hello)); err != nil {
		nc.Close()
		return 0, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	ack, err := ReadFrame(nc, t.cfg.MaxFrame)
	if err != nil || ack.Kind != kindHelloAck || len(ack.Payload) < 8 {
		nc.Close()
		if err == nil {
			err = errors.New("unexpected hello ack")
		}
		return 0, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	assigned := NodeID(binary.LittleEndian.Uint32(ack.Payload[0:]))
	server := NodeID(binary.LittleEndian.Uint32(ack.Payload[4:]))
	_ = nc.SetDeadline(time.Time{})
	if t.Self() == 0 {
		t.self.Store(uint32(assigned))
	}
	t.register(server, nc, addr, true, nil)
	return server, nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		t.wg.Add(1)
		go t.handshakeServer(nc)
	}
}

func (t *TCP) handshakeServer(nc net.Conn) {
	defer t.wg.Done()
	_ = nc.SetDeadline(time.Now().Add(helloTimeout))
	hello, err := ReadFrame(nc, t.cfg.MaxFrame)
	if err != nil || hello.Kind != kindHello || len(hello.Payload) < 4 {
		nc.Close()
		return
	}
	id := NodeID(binary.LittleEndian.Uint32(hello.Payload[0:]))
	addr, _ := readString(hello.Payload[4:])
	if id == 0 {
		if t.cfg.Assign == nil {
			nc.Close()
			return
		}
		id = t.cfg.Assign()
	}
	ack := &Msg{Kind: kindHelloAck, Origin: t.Self()}
	ack.Payload = binary.LittleEndian.AppendUint32(
		binary.LittleEndian.AppendUint32(nil, uint32(id)), uint32(t.Self()))
	_ = nc.SetDeadline(time.Time{})
	// The ack goes out as the registered connection's first frame, not
	// before registering: when the dialer's Dial returns, this side can
	// already send to it. Registered after the ack, a node answering the
	// dialer's first request by another route would find no connection,
	// dial back, and the two connections would replace each other.
	t.register(id, nc, addr, false, AppendFrame(nil, ack))
}

// register installs nc as the connection to peer, replacing (and closing)
// any previous one, and starts its reader and writer goroutines; first, if
// non-nil, is written ahead of every queued frame.
func (t *TCP) register(peer NodeID, nc net.Conn, addr string, dialer bool, first []byte) {
	c := &tcpConn{t: t, peer: peer, nc: nc, dialer: dialer, addr: addr, wake: make(chan struct{}, 1)}
	if first != nil {
		c.out = [][]byte{first}
	}
	t.mu.Lock()
	if t.stopped.Load() {
		t.mu.Unlock()
		nc.Close()
		return
	}
	if old := t.conns[peer]; old != nil {
		old.shutdown()
	}
	t.conns[peer] = c
	if addr != "" {
		t.addrs[peer] = addr
	}
	t.mu.Unlock()
	t.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	if up := t.cfg.OnPeerUp; up != nil {
		up(peer)
	}
}

// Send implements Transport. If no connection to `to` exists but its
// address is known, Send dials it synchronously once (later failures are
// the caller's cue to fail over, exactly as with a local dead peer).
func (t *TCP) Send(to NodeID, m *Msg) bool {
	return t.SendFrame(to, m, append(t.Frame(len(m.Payload)), m.Payload...))
}

// SendFrame is Send for a frame built in place (Frame or NewFrame): the
// payload is frame[FrameReserve:], m supplies the header and m.Payload is
// ignored. The transport owns frame from here on, sent or not: once written
// it may be handed out again by Frame, so a frame is never sent twice, nor
// read or written after SendFrame.
func (t *TCP) SendFrame(to NodeID, m *Msg, frame []byte) bool {
	c := t.conn(to)
	if c == nil {
		return false
	}
	putHeader(frame, m)
	return c.enqueue(frame)
}

// Connect reports whether a connection to node `to` exists, dialing it
// first under Send's rules when none does.
func (t *TCP) Connect(to NodeID) bool { return t.conn(to) != nil }

// conn returns the registered connection to node `to`; with none, and the
// node's address known, it dials synchronously — unless another caller's
// dial is in progress, which refuses this one. Nil means no frame can go.
func (t *TCP) conn(to NodeID) *tcpConn {
	if t.stopped.Load() {
		return nil
	}
	t.mu.Lock()
	c := t.conns[to]
	addr := t.addrs[to]
	canDial := c == nil && addr != "" && !t.dialing[to]
	if canDial {
		t.dialing[to] = true
	}
	t.mu.Unlock()
	if c == nil && canDial {
		_, err := t.dial(addr)
		t.mu.Lock()
		delete(t.dialing, to)
		c = t.conns[to]
		t.mu.Unlock()
		if err != nil {
			return nil
		}
	}
	return c
}

// Peers lists the nodes currently connected.
func (t *TCP) Peers() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, len(t.conns))
	for id := range t.conns {
		out = append(out, id)
	}
	return out
}

// Close implements Transport.
func (t *TCP) Close() {
	if !t.stopped.CompareAndSwap(false, true) {
		return
	}
	close(t.done)
	t.ln.Close()
	t.mu.Lock()
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.shutdown()
	}
	t.wg.Wait()
}

// tcpConn is one registered connection: an unbounded outbound queue drained
// by a writer goroutine (mirroring the peer queues, Send never blocks)
// and a reader goroutine dispatching inbound frames.
type tcpConn struct {
	t      *TCP
	peer   NodeID
	nc     net.Conn
	dialer bool
	addr   string
	wake   chan struct{}

	mu     sync.Mutex
	out    [][]byte
	spare  [][]byte // the queue the writer drained last, emptied, for reuse
	closed bool
}

func (c *tcpConn) enqueue(frame []byte) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.out = append(c.out, frame)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return true
}

// shutdown closes the socket and marks the queue dead; both loops notice
// and exit. Idempotent.
func (c *tcpConn) shutdown() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if already {
		return
	}
	c.nc.Close()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// drop unregisters c after a read/write error, fires OnPeerDown, and — on
// the dialing side — starts the reconnect loop.
func (c *tcpConn) drop() {
	c.shutdown()
	t := c.t
	t.mu.Lock()
	mine := t.conns[c.peer] == c
	if mine {
		delete(t.conns, c.peer)
	}
	t.mu.Unlock()
	if !mine || t.stopped.Load() {
		return
	}
	if down := t.cfg.OnPeerDown; down != nil {
		down(c.peer)
	}
	if c.dialer && c.addr != "" {
		t.wg.Add(1)
		go t.reconnect(c.peer, c.addr)
	}
}

// reconnect redials addr with exponential backoff until it succeeds or the
// transport stops.
func (t *TCP) reconnect(peer NodeID, addr string) {
	defer t.wg.Done()
	backoff := reconnectFloor
	for {
		select {
		case <-t.done:
			return
		case <-time.After(backoff):
		}
		if t.stopped.Load() {
			return
		}
		if _, err := t.dial(addr); err == nil {
			return
		}
		if backoff *= 2; backoff > reconnectCeiling {
			backoff = reconnectCeiling
		}
	}
}

func (c *tcpConn) readLoop() {
	defer c.t.wg.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	// One header scratch and one Msg per connection, reused for every frame
	// (see Handler): a frame costs its payload's allocation and no other.
	var hdr [FrameReserve]byte
	var m Msg
	for {
		if err := readFrame(br, c.t.cfg.MaxFrame, &hdr, &m); err != nil {
			c.drop()
			return
		}
		c.t.framesIn.Add(1)
		c.t.bytesIn.Add(uint64(FrameReserve + len(m.Payload)))
		if h := c.t.cfg.Handler; h != nil && m.Kind < kindHelloAck {
			h(c.peer, &m)
		}
	}
}

func (c *tcpConn) writeLoop() {
	defer c.t.wg.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	for {
		c.mu.Lock()
		q := c.out
		if len(q) > 0 {
			// An empty queue stays in place: taken, it would be dropped
			// below, and the next enqueue would allocate a new one.
			c.out, c.spare = c.spare, nil
		}
		closed := c.closed
		c.mu.Unlock()
		for _, frame := range q {
			// Counted before the write, so that a frame the far side has
			// read is one Stats has seen.
			c.t.framesOut.Add(1)
			c.t.bytesOut.Add(uint64(len(frame)))
			if _, err := bw.Write(frame); err != nil {
				c.drop()
				return
			}
		}
		if len(q) > 0 {
			if err := bw.Flush(); err != nil {
				c.drop()
				return
			}
			for _, frame := range q {
				c.t.frames.recycle(frame)
			}
			clear(q) // the frames are written: let go of them
			c.mu.Lock()
			c.spare = q[:0]
			c.mu.Unlock()
			continue // re-check the queue before blocking
		}
		if closed {
			return
		}
		select {
		case <-c.wake:
		case <-c.t.done:
			return
		}
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, bool) {
	if len(b) < 4 {
		return "", false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || len(b)-4 < n {
		return "", false
	}
	return string(b[4 : 4+n]), true
}
