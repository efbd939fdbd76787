package obs

import "sync/atomic"

// counterLine is one cache-line-padded counter, so that adjacent
// counters in a block — or the tail of one peer's block and the head of
// the next — never share a line. The padding trades memory (64 bytes per
// counter) for isolation: concurrent writers to *different* counters never
// serialise on the cache-coherence protocol. The cluster's message total
// is the sum of the delivered counters, so it needs no counter of its own.
type counterLine struct {
	n atomic.Int64
	_ [56]byte
}

// PeerMetrics is one peer's slice of the metrics registry. The registry
// is sharded the way the overlay itself is: each peer owns a block, the
// hot per-kind delivery counters inside it are cache-line padded, and
// writers touch only their own peer's block — the same contention the
// peer's queue already imposes. Everything is a typed atomic, so a
// snapshot is a plain sweep with no locks and writers are never blocked.
//
// The queue gauges (SetQueueDepth) are written under the owning peer's
// queue lock, which makes the high-water max race-free; every other
// method is safe for concurrent use by any goroutine.
type PeerMetrics struct {
	delivered []counterLine // one padded counter per message kind
	inline    []atomic.Int64
	spilled   []atomic.Int64
	refused   []atomic.Int64

	stale          atomic.Int64
	queueDepth     atomic.Int64
	queueHighWater atomic.Int64

	queueWait  Histogram
	handleTime Histogram
}

// NewPeerMetrics returns a block with counters for nkinds message kinds.
func NewPeerMetrics(nkinds int) *PeerMetrics {
	return &PeerMetrics{
		delivered: make([]counterLine, nkinds),
		inline:    make([]atomic.Int64, nkinds),
		spilled:   make([]atomic.Int64, nkinds),
		refused:   make([]atomic.Int64, nkinds),
	}
}

// Delivered counts one message of the given kind accepted by the peer:
// run inline on the sender's goroutine, or queued. delivered = inline +
// queued. It returns the new count, from which the p2p layer picks the 1
// delivery in 64 per kind it times.
func (m *PeerMetrics) Delivered(kind int) int64 { return m.delivered[kind].n.Add(1) }

// DeliveredTotal returns the delivered count summed over every kind.
func (m *PeerMetrics) DeliveredTotal() int64 {
	var t int64
	for i := range m.delivered {
		t += m.delivered[i].n.Load()
	}
	return t
}

// Inline counts one message of the given kind that found the peer idle
// and ran to completion on the delivering goroutine (it is also counted
// as delivered). Its queue wait is recorded as 0.
func (m *PeerMetrics) Inline(kind int) { m.inline[kind].Add(1) }

// Spilled counts one message of the given kind delivered while the peer's
// queue was already non-empty, i.e. queued behind other waiting messages
// (it is also counted as delivered).
func (m *PeerMetrics) Spilled(kind int) { m.spilled[kind].Add(1) }

// Refused counts one message of the given kind terminated with an error
// at this peer.
func (m *PeerMetrics) Refused(kind int) { m.refused[kind].Add(1) }

// StaleRoute counts one direct-routed request that reached this peer
// after its key's ownership had moved.
func (m *PeerMetrics) StaleRoute() { m.stale.Add(1) }

// StaleRoutes returns the stale-route count.
func (m *PeerMetrics) StaleRoutes() int64 { return m.stale.Load() }

// SetQueueDepth publishes the queue's current length — messages waiting
// for the peer's goroutine to take them — and advances the high-water
// mark. Callers must serialise calls per block (the p2p layer calls it
// under the peer's queue lock).
func (m *PeerMetrics) SetQueueDepth(n int64) {
	m.queueDepth.Store(n)
	if n > m.queueHighWater.Load() {
		m.queueHighWater.Store(n)
	}
}

// ObserveQueueWait records how long one timed message — 1 delivery in 64
// per peer and kind, plus every traced one — sat queued before handling
// began, in nanoseconds; 0 for a message run inline.
func (m *PeerMetrics) ObserveQueueWait(ns int64) { m.queueWait.Observe(ns) }

// ObserveHandle records how long handling one timed message took at this
// peer, in nanoseconds: choosing the next hop is included, running it is
// not (the request is handed on once this peer is done).
func (m *PeerMetrics) ObserveHandle(ns int64) { m.handleTime.Observe(ns) }

// Absorb folds another block's totals into this one. It is used to
// preserve a retired peer's counts in the cluster aggregate after the
// peer object itself is dropped; the caller guarantees the absorbed
// block no longer receives traffic.
func (m *PeerMetrics) Absorb(o *PeerMetrics) {
	for i := range o.delivered {
		if n := o.delivered[i].n.Load(); n != 0 {
			m.delivered[i].n.Add(n)
		}
	}
	absorbCounts(m.inline, o.inline)
	absorbCounts(m.spilled, o.spilled)
	absorbCounts(m.refused, o.refused)
	m.stale.Add(o.stale.Load())
	absorbHist(&m.queueWait, &o.queueWait)
	absorbHist(&m.handleTime, &o.handleTime)
}

func absorbCounts(dst, src []atomic.Int64) {
	for i := range src {
		if n := src[i].Load(); n != 0 {
			dst[i].Add(n)
		}
	}
}

func absorbHist(dst, src *Histogram) {
	for i := range src.counts {
		if c := src.counts[i].Load(); c != 0 {
			dst.counts[i].Add(c)
		}
	}
	dst.n.Add(src.n.Load())
	dst.sum.Add(src.sum.Load())
}

// PeerSnapshot is one peer's metrics at a point in time. Counter maps
// are keyed by message-kind name and omit zero entries.
type PeerSnapshot struct {
	Peer           int64            `json:"peer"`
	Delivered      map[string]int64 `json:"delivered,omitempty"`
	Inline         map[string]int64 `json:"inline,omitempty"`
	Spilled        map[string]int64 `json:"spilled,omitempty"`
	Refused        map[string]int64 `json:"refused,omitempty"`
	StaleRoutes    int64            `json:"stale_routes,omitempty"`
	QueueDepth     int64            `json:"queue_depth"`
	QueueHighWater int64            `json:"queue_high_water"`

	QueueWait  HistogramSnapshot `json:"queue_wait_ns"`
	HandleTime HistogramSnapshot `json:"handle_ns"`
}

// Snapshot reads the block without locking. kindName maps a kind index
// to its display name.
func (m *PeerMetrics) Snapshot(peer int64, kindName func(int) string) PeerSnapshot {
	s := PeerSnapshot{
		Peer:           peer,
		StaleRoutes:    m.stale.Load(),
		QueueDepth:     m.queueDepth.Load(),
		QueueHighWater: m.queueHighWater.Load(),
		QueueWait:      m.queueWait.Snapshot(),
		HandleTime:     m.handleTime.Snapshot(),
		Inline:         countMap(m.inline, kindName),
		Spilled:        countMap(m.spilled, kindName),
		Refused:        countMap(m.refused, kindName),
	}
	for i := range m.delivered {
		if n := m.delivered[i].n.Load(); n != 0 {
			if s.Delivered == nil {
				s.Delivered = make(map[string]int64, 8)
			}
			s.Delivered[kindName(i)] = n
		}
	}
	return s
}

// countMap names the non-zero counters of a per-kind array; nil when all
// are zero.
func countMap(counts []atomic.Int64, kindName func(int) string) map[string]int64 {
	var out map[string]int64
	for i := range counts {
		if n := counts[i].Load(); n != 0 {
			if out == nil {
				out = make(map[string]int64, 4)
			}
			out[kindName(i)] = n
		}
	}
	return out
}

// ClusterMetrics aggregates every peer's snapshot plus the totals of
// peers already retired from the topology. The convenience percentile
// fields are in microseconds, precomputed so a JSON dump is readable
// without post-processing, and are taken over timed hops: 1 delivery in
// 64 per peer and kind, plus every traced hop.
type ClusterMetrics struct {
	Peers []PeerSnapshot `json:"peers"`

	Delivered   map[string]int64 `json:"delivered,omitempty"`
	Inline      map[string]int64 `json:"inline,omitempty"`
	Spilled     map[string]int64 `json:"spilled,omitempty"`
	Refused     map[string]int64 `json:"refused,omitempty"`
	StaleRoutes int64            `json:"stale_routes"`

	QueueWait  HistogramSnapshot `json:"queue_wait_ns"`
	HandleTime HistogramSnapshot `json:"handle_ns"`

	QueueWaitP50us  float64 `json:"queue_wait_p50_us"`
	QueueWaitP99us  float64 `json:"queue_wait_p99_us"`
	HandleTimeP50us float64 `json:"handle_p50_us"`
	HandleTimeP99us float64 `json:"handle_p99_us"`

	// Plans tallies the query layer's planning decisions (see PlanCounters);
	// filled in by the cluster after the per-peer aggregation, since
	// planning happens client-side and touches no peer.
	Plans PlanSnapshot `json:"plans"`

	// Transport counts the frames and bytes this node's wire transport has
	// moved; all zero on an in-process cluster. Filled in by the cluster.
	Transport TransportSnapshot `json:"transport"`
}

// TransportSnapshot is one node's wire traffic since it started listening:
// frames and bytes (length prefixes and headers included) read from and
// written to its sockets. Counts only — no timing.
type TransportSnapshot struct {
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`
	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
}

// BuildClusterMetrics folds per-peer snapshots (live peers plus the
// retired aggregate) into cluster totals.
func BuildClusterMetrics(peers []PeerSnapshot, retired PeerSnapshot) ClusterMetrics {
	cm := ClusterMetrics{Peers: peers}
	add := func(dst *map[string]int64, src map[string]int64) {
		for k, v := range src {
			if *dst == nil {
				*dst = make(map[string]int64, 8)
			}
			(*dst)[k] += v
		}
	}
	fold := func(s PeerSnapshot) {
		add(&cm.Delivered, s.Delivered)
		add(&cm.Inline, s.Inline)
		add(&cm.Spilled, s.Spilled)
		add(&cm.Refused, s.Refused)
		cm.StaleRoutes += s.StaleRoutes
		cm.QueueWait = cm.QueueWait.Merge(s.QueueWait)
		cm.HandleTime = cm.HandleTime.Merge(s.HandleTime)
	}
	for _, s := range peers {
		fold(s)
	}
	fold(retired)
	cm.QueueWaitP50us = float64(cm.QueueWait.Percentile(50)) / 1e3
	cm.QueueWaitP99us = float64(cm.QueueWait.Percentile(99)) / 1e3
	cm.HandleTimeP50us = float64(cm.HandleTime.Percentile(50)) / 1e3
	cm.HandleTimeP99us = float64(cm.HandleTime.Percentile(99)) / 1e3
	return cm
}
