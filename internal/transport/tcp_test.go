package transport

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak barrier: every test must leave
// the process with (about) as many goroutines as it started with —
// listeners, readers, writers and reconnect loops all have to terminate
// when a transport is Closed.
func TestMain(m *testing.M) {
	// +1: running under `go test -fuzz`, the fuzzing engine installs an
	// os/signal handler goroutine that lives until process exit.
	before := runtime.NumGoroutine() + 1
	code := m.Run()
	if code == 0 && !settleGoroutines(before, 5*time.Second) {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "goroutine leak: started with %d, still %d after settle\n%s\n",
			before, runtime.NumGoroutine(), buf[:n])
		code = 1
	}
	os.Exit(code)
}

func settleGoroutines(target int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= target {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= target
}

type sink struct {
	mu   sync.Mutex
	got  []*Msg
	from []NodeID
	cond *sync.Cond
}

func newSink() *sink {
	s := &sink{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *sink) handler(from NodeID, m *Msg) {
	s.mu.Lock()
	cp := *m // the Msg is the reader's; only the payload is ours to keep
	s.got = append(s.got, &cp)
	s.from = append(s.from, from)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *sink) waitFor(t *testing.T, n int) []*Msg {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.got) < n {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %d messages", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Msg(nil), s.got...)
}

func TestTCPHelloAssignAndRoundTrip(t *testing.T) {
	headSink, dSink := newSink(), newSink()
	head, err := Listen(Config{Self: 1, Handler: headSink.handler, Assign: func() NodeID { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	d, err := Listen(Config{Self: 0, Handler: dSink.handler})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	peer, err := d.Dial(head.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if peer != 1 {
		t.Fatalf("dialed peer = %d, want 1", peer)
	}
	if d.Self() != 2 {
		t.Fatalf("assigned self = %d, want 2", d.Self())
	}

	if !d.Send(1, &Msg{To: 77, Corr: 5, Origin: 2, Kind: 1, Payload: []byte("ping")}) {
		t.Fatal("send daemon→head failed")
	}
	got := headSink.waitFor(t, 1)
	if got[0].To != 77 || got[0].Corr != 5 || got[0].Origin != 2 || string(got[0].Payload) != "ping" {
		t.Fatalf("head got %+v", got[0])
	}
	// Head replies over the same connection without ever dialing.
	if !head.Send(2, &Msg{Corr: 5, Origin: 1, Kind: 2, Payload: []byte("pong")}) {
		t.Fatal("send head→daemon failed")
	}
	if back := dSink.waitFor(t, 1); string(back[0].Payload) != "pong" {
		t.Fatalf("daemon got %+v", back[0])
	}
}

func TestTCPSendToUnknownNode(t *testing.T) {
	s := newSink()
	tr, err := Listen(Config{Self: 1, Handler: s.handler})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Send(99, &Msg{Kind: 1}) {
		t.Fatal("send to unknown node reported success")
	}
}

func TestTCPLazyDialViaSetAddr(t *testing.T) {
	aSink, bSink := newSink(), newSink()
	a, err := Listen(Config{Self: 1, Handler: aSink.handler})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(Config{Self: 2, Handler: bSink.handler})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.SetAddr(2, b.Addr())
	if !a.Send(2, &Msg{Kind: 3, Payload: []byte("lazy")}) {
		t.Fatal("lazy-dial send failed")
	}
	if got := bSink.waitFor(t, 1); string(got[0].Payload) != "lazy" {
		t.Fatalf("b got %+v", got[0])
	}
}

func TestTCPReconnectAfterDrop(t *testing.T) {
	headSink := newSink()
	var downs sync.Map
	head, err := Listen(Config{Self: 1, Handler: headSink.handler, Assign: func() NodeID { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	d, err := Listen(Config{Self: 0, Handler: func(NodeID, *Msg) {},
		OnPeerDown: func(id NodeID) { downs.Store(id, true) }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Dial(head.Addr()); err != nil {
		t.Fatal(err)
	}
	if !d.Send(1, &Msg{Kind: 1, Payload: []byte("one")}) {
		t.Fatal("first send failed")
	}
	headSink.waitFor(t, 1)

	// Sever the connection from the head's side; the daemon's reconnect
	// loop must re-establish it and traffic must flow again.
	head.mu.Lock()
	c := head.conns[2]
	head.mu.Unlock()
	c.shutdown()
	c.drop()

	// Delivery is at-most-once: a send accepted onto the dying connection
	// may be lost, so retry until one actually lands.
	deadline := time.Now().Add(5 * time.Second)
	arrived := false
	for time.Now().Before(deadline) {
		d.Send(1, &Msg{Kind: 1, Payload: []byte("two")})
		headSink.mu.Lock()
		arrived = len(headSink.got) >= 2
		headSink.mu.Unlock()
		if arrived {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !arrived {
		t.Fatal("no message arrived after reconnect")
	}
	msgs := headSink.waitFor(t, 2)
	if string(msgs[1].Payload) != "two" {
		t.Fatalf("post-reconnect message: %+v", msgs[1])
	}
	if _, ok := downs.Load(NodeID(1)); !ok {
		t.Fatal("daemon never observed the head connection drop")
	}
}

func TestTCPCloseStopsReconnect(t *testing.T) {
	head, err := Listen(Config{Self: 1, Handler: func(NodeID, *Msg) {}, Assign: func() NodeID { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Listen(Config{Self: 0, Handler: func(NodeID, *Msg) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dial(head.Addr()); err != nil {
		t.Fatal(err)
	}
	// Kill the head entirely: the daemon's reconnect loop starts spinning
	// against a dead address. Close must terminate it (the package leak
	// barrier verifies no goroutine survives).
	head.Close()
	time.Sleep(50 * time.Millisecond)
	d.Close()
	if d.Send(1, &Msg{Kind: 1}) {
		t.Fatal("send succeeded after Close")
	}
}

func TestLocalHub(t *testing.T) {
	hub := NewHub()
	a, b := hub.Endpoint(1), hub.Endpoint(2)
	s := newSink()
	b.OnMessage(s.handler)
	if !a.Send(2, &Msg{To: 5, Kind: 7, Payload: []byte("x")}) {
		t.Fatal("local send failed")
	}
	got := s.waitFor(t, 1)
	if got[0].To != 5 || got[0].Kind != 7 {
		t.Fatalf("got %+v", got[0])
	}
	if a.Send(3, &Msg{}) {
		t.Fatal("send to unregistered endpoint succeeded")
	}
	b.Close()
	if a.Send(2, &Msg{}) {
		t.Fatal("send to closed endpoint succeeded")
	}
}
