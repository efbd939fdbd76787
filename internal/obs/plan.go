package obs

import "sync/atomic"

// PlanCounters tallies the query layer's planning decisions: how many
// range queries ran serially, how many in parallel, and how many skipped
// the span estimate and owner lookup on a plan-cache hit. The counters are plain
// atomics written on the client-side dispatch path (no peer is involved in
// planning), so they live beside the registry rather than in any peer's
// block.
type PlanCounters struct {
	serial    atomic.Int64
	parallel  atomic.Int64
	cacheHits atomic.Int64
}

// Serial records one range query dispatched as a serial chain walk.
func (p *PlanCounters) Serial() { p.serial.Add(1) }

// Parallel records one range query dispatched as a parallel scatter.
func (p *PlanCounters) Parallel() { p.parallel.Add(1) }

// CacheHit records one query whose span estimate and owner lookup were
// answered from the plan cache.
func (p *PlanCounters) CacheHit() { p.cacheHits.Add(1) }

// Snapshot returns the current counter values.
func (p *PlanCounters) Snapshot() PlanSnapshot {
	return PlanSnapshot{
		Serial:    p.serial.Load(),
		Parallel:  p.parallel.Load(),
		CacheHits: p.cacheHits.Load(),
	}
}

// PlanSnapshot is a point-in-time copy of the planning counters.
type PlanSnapshot struct {
	Serial    int64 `json:"serial"`
	Parallel  int64 `json:"parallel"`
	CacheHits int64 `json:"cache_hits"`
}
