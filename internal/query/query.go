// Package query is the thin planning layer in front of the cluster's range
// path. BATON's ring makes selectivity visible for free: the published
// epoch-tagged topology snapshot names every member's lower bound in key
// order, so the number of peers a range touches — its peer-span — is two
// binary searches against state the client already holds. No statistics
// machinery, no messages, no locks; the same discipline as the balancer's
// balanceLikely pre-check.
//
// The package holds the three pieces the planner needs and nothing else:
//
//   - Choose picks serial vs parallel execution per request from the
//     estimated peer-span alone: serial below a span of 4, parallel from 4
//     on. The 4 is a measured constant (see crossover), not a tuned value:
//     there is no planner state, feedback or clock read.
//   - Pred is the serialisable predicate of the pushdown path: plain data
//     (no function values), evaluated at the owning peer so non-matching
//     items never cross the wire, with a limit that terminates serial
//     walks early.
//   - Cache is the small plan+route cache keyed by (range bucket, epoch):
//     repeated ranges skip both the span estimate and the owner lookup,
//     and an epoch bump — every ownership publication — invalidates
//     entries implicitly because the key no longer matches.
//
// The package is deliberately free of p2p types: it plans over integers
// (spans, epochs, ring indices) that the cluster extracts from its
// published topology, which keeps it testable without a live cluster.
package query

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"baton/internal/keyspace"
	"baton/internal/store"
)

// Plan is a planned execution strategy for one range query.
type Plan int8

const (
	// PlanAuto, the zero Plan, leaves the choice to the planner: Choose
	// picks from the range's peer-span, and a limited query walks serially.
	PlanAuto Plan = iota
	// PlanSerial walks the right-adjacent chain one peer at a time
	// (Section IV-B): minimal fan-out, minimal tail latency on narrow
	// ranges, linear latency in the peer-span.
	PlanSerial
	// PlanParallel scatters the range across the covering peers and
	// gathers the partial answers: logarithmic message depth, wins on
	// wide ranges, loses on narrow ones where the scatter overhead
	// dominates.
	PlanParallel
)

// String names the plan for reports and flags.
func (p Plan) String() string {
	switch p {
	case PlanSerial:
		return "serial"
	case PlanParallel:
		return "parallel"
	default:
		return "auto"
	}
}

// crossover is the peer-span from which PlanAuto scatters instead of
// walking. 4 is measured: the self-tuning planner this rule replaced was
// seeded with it, and its trials on the local range workload converged
// back to it (spans 2–3 serial, spans ≥ 4 parallel). With the rule in
// their place both range workloads stay within run-to-run noise on
// throughput, p99 and messages per query, while a crossover of 8 raised
// the local workload's p99 by 12 %.
const crossover = 4

// Choose picks the plan for a range with the given estimated peer-span:
// serial below the crossover, where walking a few adjacent peers costs less
// than fanning out and gathering, and parallel from it on, where the walk's
// latency grows with every peer it visits. It keeps no state and reads no
// clock, so the same span always gets the same plan.
func Choose(span int) Plan {
	if span < crossover {
		return PlanSerial
	}
	return PlanParallel
}

// Planner is a stateless shim over Choose for the benchmark's planning
// probe, which was written against the self-tuning planner's API. Nothing
// else uses it.
type Planner struct{}

// NewPlanner returns the shim.
func NewPlanner() *Planner { return &Planner{} }

// Choose returns Choose(span).
func (*Planner) Choose(span int) Plan { return Choose(span) }

// Observe does nothing: the rule learns nothing from latencies.
func (*Planner) Observe(Plan, int, int64) {}

// Pred is a pushdown predicate: plain serialisable data (no function
// values) a client attaches to a get or range request, evaluated at the
// owning peer so items that cannot match never cross the wire.
//
// The zero value matches everything. All fields combine with AND:
//
//   - MinValueLen / MaxValueLen bound the stored value's length in bytes
//     (MaxValueLen 0 means unbounded).
//   - Keys, when non-empty, restricts matches to the listed keys. The
//     slice is sorted on first use; callers must not mutate it after
//     attaching the predicate to a request.
//   - Limit, when positive, caps how many matching items a range query
//     returns. A serial walk stops forwarding down the adjacent chain the
//     moment the limit is reached, and a scatter branch never ships more
//     than Limit items.
type Pred struct {
	MinValueLen int
	MaxValueLen int
	Keys        []keyspace.Key
	Limit       int
}

// Normalize prepares the predicate for evaluation (sorts the key set).
// The cluster calls it once when the predicate is attached to a request;
// it is idempotent.
func (p *Pred) Normalize() {
	if p == nil || len(p.Keys) == 0 {
		return
	}
	if !sort.SliceIsSorted(p.Keys, func(i, j int) bool { return p.Keys[i] < p.Keys[j] }) {
		sort.Slice(p.Keys, func(i, j int) bool { return p.Keys[i] < p.Keys[j] })
	}
}

// Match reports whether the item with the given key and stored value
// satisfies the predicate. A nil predicate matches everything.
func (p *Pred) Match(key keyspace.Key, value []byte) bool {
	if p == nil {
		return true
	}
	if len(value) < p.MinValueLen {
		return false
	}
	if p.MaxValueLen > 0 && len(value) > p.MaxValueLen {
		return false
	}
	if len(p.Keys) > 0 {
		i := sort.Search(len(p.Keys), func(i int) bool { return p.Keys[i] >= key })
		if i == len(p.Keys) || p.Keys[i] != key {
			return false
		}
	}
	return true
}

// MatchItem is Match for a store item.
func (p *Pred) MatchItem(it store.Item) bool { return p.Match(it.Key, it.Value) }

// LimitOrZero returns the predicate's item limit, or 0 (unlimited) for a
// nil predicate — the nil-safe read the serving paths use.
func (p *Pred) LimitOrZero() int {
	if p == nil {
		return 0
	}
	return p.Limit
}

// cacheSlots sizes the plan cache. Power of two; 256 entries cover far
// more distinct (range bucket, epoch) pairs than a workload's hot set
// while keeping the cache under 8KB.
const cacheSlots = 256

// CacheEntry is one cached planning result: the estimated peer-span of a
// range bucket and the ring index of the peer owning its lower bound,
// valid for exactly one topology epoch.
type CacheEntry struct {
	bucket   uint64
	epoch    uint64
	Span     int
	OwnerIdx int
}

// Cache is the small plan+route cache: repeated ranges skip the span
// estimate and the owner lookup. Entries are keyed by (range bucket,
// epoch); an epoch bump invalidates every entry implicitly because the
// stored epoch no longer matches, so structural changes need no cache
// flush. Lock-free: slots are atomic pointers to immutable entries.
type Cache struct {
	slots [cacheSlots]atomic.Pointer[CacheEntry]
}

// NewCache returns an empty plan cache.
func NewCache() *Cache { return &Cache{} }

// BucketOf quantises a range into its cache bucket: ranges with the same
// width magnitude starting in the same width-aligned window share a
// bucket. Repeats of the same range always hit the same bucket; distinct
// ranges that share one get the same cached span and entry point, which
// costs at most a few forwarding hops (the overlay re-routes a misaimed
// range), never correctness.
func BucketOf(r keyspace.Range) uint64 {
	w := uint64(r.Upper - r.Lower)
	wlog := uint64(bits.Len64(w))
	return uint64(r.Lower)>>wlog<<6 | wlog
}

// Get returns the entry cached for the bucket at the given epoch.
func (c *Cache) Get(bucket, epoch uint64) (CacheEntry, bool) {
	e := c.slots[bucket%cacheSlots].Load()
	if e == nil || e.bucket != bucket || e.epoch != epoch {
		return CacheEntry{}, false
	}
	return *e, true
}

// Put stores a planning result for the bucket at the given epoch.
func (c *Cache) Put(bucket, epoch uint64, span, ownerIdx int) {
	c.slots[bucket%cacheSlots].Store(&CacheEntry{
		bucket:   bucket,
		epoch:    epoch,
		Span:     span,
		OwnerIdx: ownerIdx,
	})
}
