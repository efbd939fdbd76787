package obs

import (
	"sync"
	"sync/atomic"
)

// Hop is one step of a traced request: which peer handled it, as what
// kind, at which tree level, and what it cost there. A hop that ran
// inline on the previous hop's goroutine (the target was idle) has
// QueueWaitNs 0. HandleNs is the peer's own time: a forwarding hop hands
// the request on after it finishes, so the hops of one walk sum to no more
// than the walk took.
type Hop struct {
	Peer        int64  `json:"peer"`
	Kind        string `json:"kind"`
	Level       int    `json:"level"`
	QueueWaitNs int64  `json:"queue_wait_ns"`
	HandleNs    int64  `json:"handle_ns"`
}

// Trace is the context a sampled request carries through the overlay.
// Hops are appended in handling order: a peer records its hop before it
// forwards the request, so the chain reads exactly as the message
// travelled. The mutex exists for the one unavoidable overlap — a peer
// back-filling its hop's handle time while a next peer that queued, or
// that it sent to before finishing, appends — and is only ever touched
// for sampled requests.
type Trace struct {
	mu   sync.Mutex
	hops []Hop
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Append adds a hop and returns its index, for SetHandleNs.
func (t *Trace) Append(h Hop) int {
	t.mu.Lock()
	t.hops = append(t.hops, h)
	i := len(t.hops) - 1
	t.mu.Unlock()
	return i
}

// SetHandleNs back-fills the handle time of the hop at index i, which is
// only known once the peer's handling has finished. A hop
// whose request was answered just before the recorder got to write may
// be read with HandleNs still zero; readers tolerate that.
func (t *Trace) SetHandleNs(i int, ns int64) {
	t.mu.Lock()
	if i >= 0 && i < len(t.hops) {
		t.hops[i].HandleNs = ns
	}
	t.mu.Unlock()
}

// Hops returns a copy of the recorded hops.
func (t *Trace) Hops() []Hop {
	t.mu.Lock()
	out := make([]Hop, len(t.hops))
	copy(out, t.hops)
	t.mu.Unlock()
	return out
}

// Sampler decides which requests carry a trace: 1-in-N, with N settable
// at runtime. With sampling off (N <= 0, the default) Sample is a single
// atomic load and never allocates — the zero-cost path the direct-route
// allocation guarantee depends on.
type Sampler struct {
	every atomic.Int64
	n     atomic.Int64
}

// SetEvery sets the sampling rate to 1-in-n; n <= 0 disables sampling.
func (s *Sampler) SetEvery(n int64) { s.every.Store(n) }

// Every returns the current rate (0 when disabled).
func (s *Sampler) Every() int64 {
	if e := s.every.Load(); e > 0 {
		return e
	}
	return 0
}

// Sample reports whether the next request should carry a trace.
func (s *Sampler) Sample() bool {
	e := s.every.Load()
	if e <= 0 {
		return false
	}
	return s.n.Add(1)%e == 0
}

// TraceRing keeps the most recent completed traces in a fixed-size ring.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// NewTraceRing returns a ring holding up to size traces.
func NewTraceRing(size int) *TraceRing {
	if size < 1 {
		size = 1
	}
	return &TraceRing{buf: make([]*Trace, size)}
}

// Add records a completed trace, evicting the oldest when full.
func (r *TraceRing) Add(t *Trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces' hops, oldest first.
func (r *TraceRing) Snapshot() [][]Hop {
	r.mu.Lock()
	traces := make([]*Trace, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		traces = append(traces, r.buf[(start+i)%len(r.buf)])
	}
	r.mu.Unlock()
	out := make([][]Hop, len(traces))
	for i, t := range traces {
		out[i] = t.Hops()
	}
	return out
}
