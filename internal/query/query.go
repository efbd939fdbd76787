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
//   - Planner picks serial vs parallel execution per request from the
//     estimated peer-span, with the crossover self-tuned from the latencies
//     the cluster itself observes (per span-bucket obs.Histogram pairs fed
//     by every query it planned and compared by mean, with a slow exploration
//     schedule so both plans keep fresh data) instead of a hard-coded
//     constant.
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
	"baton/internal/obs"
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

// spanBuckets is the number of log2 span buckets the planner tunes over;
// bucket i covers spans in [2^i, 2^(i+1)). 16 buckets cover spans up to
// 65535 peers, far beyond any cluster this package meets.
const spanBuckets = 16

// spanBucket maps a peer-span to its log2 bucket.
func spanBucket(span int) int {
	if span < 1 {
		span = 1
	}
	b := bits.Len(uint(span)) - 1
	if b >= spanBuckets {
		b = spanBuckets - 1
	}
	return b
}

// Tuning constants of the self-adjusting crossover. The planner tunes by
// burst trials, not per-query greedy comparison, because the comparison is
// game-theoretic: a lone serial walk in a parallel-dominated mix rides
// short queues and looks fast, while every serial query it convoys with
// degrades the mix — greedy selection converges to a blended equilibrium
// worse than either pure plan. A burst trial measures each plan with the
// bucket's in-flight queries all running the trial plan, and the cycle
// commits to one answer for a long stretch instead of re-litigating every
// decision.
const (
	// trialLen is the length, in decisions, of each plan's trial burst at
	// the start of a tuning cycle. The parallel burst runs first: the
	// scatter pays its cost up front where a burst can see it, while the
	// chain walk's wake (accumulator payloads queued through many peers)
	// drains slowly and would contaminate a following burst far more.
	trialLen = 64
	// commitLen is the length of the committed stretch after the two
	// trials. The trials are ~1.5% of the cycle, so even a 2× slower
	// losing plan costs under 1% aggregate throughput to keep measuring.
	commitLen = 8192
	// cycleLen is the full tuning cycle.
	cycleLen = 2*trialLen + commitLen
	// decayAt caps a plan's latency histogram: at this many samples it is
	// halved (obs.Histogram Decay), bounding how long an old regime can
	// outvote fresh trial data. Cycle starts decay both histograms too, so
	// the comparison always leans on the most recent trials.
	decayAt = 2048
	// defaultCrossover seeds buckets with no latency data yet: a range
	// touching fewer peers than this runs serially. It only matters until
	// the first trial pair completes; after that the measured trials decide.
	defaultCrossover = 4
)

// occupancyFactor converts a serial trial's burst latency into the
// cluster-wide service demand that sustained throughput is actually made
// of. A span-s chain walk holds s peer-service slots in sequence and ships
// its growing accumulator through every remaining hop, so its demand on
// the cluster is ~(s/2)× its unloaded latency; a scatter's branches occupy
// their peers concurrently and ship each item once, so its burst latency
// already is its demand. Without this correction the comparison is rigged:
// burst trials run on short queues where the chain walk's congestion
// externality — the thing that convoys a sustained serial regime — has not
// built up yet, so raw burst means systematically flatter serial.
func occupancyFactor(span int) float64 {
	if span < 2 {
		return 1
	}
	return float64(span) / 2
}

// planBucket is the per-span-bucket tuning state: one lock-free
// obs.Histogram of observed latency per plan, a committed plan for the
// current cycle, and the decision counter driving the trial schedule. The
// histograms are compared by mean — not an EWMA, not a percentile —
// because the mean is the throughput-relevant statistic: the serial walk's
// latency is heavy-tailed under load (fast typical chains, convoyed
// stragglers), and a typical-sample statistic keeps voting for a plan
// whose tail is eating the throughput.
type planBucket struct {
	hist      [PlanParallel + 1]obs.Histogram // observed latency per plan (PlanAuto's stays empty), nanoseconds
	seq       atomic.Int64                    // decision counter driving the trial schedule
	committed atomic.Int32                    // Plan committed this cycle, PlanAuto before any commit
}

// Planner picks serial vs parallel execution per range request and tunes
// the crossover from observed latencies. The zero value is not ready;
// use NewPlanner. All methods are safe for concurrent use and lock-free.
type Planner struct {
	buckets [spanBuckets]planBucket
}

// NewPlanner returns a planner seeded with the default crossover; it
// starts tuning as soon as Observe feeds it latencies.
func NewPlanner() *Planner { return &Planner{} }

// Choose picks the plan for a range with the given estimated peer-span.
// Each span bucket cycles through a parallel trial burst, a serial trial
// burst, and a long committed stretch running whichever plan's trial
// measured the lower service demand (burst mean latency, occupancy-
// corrected for the chain walk) — re-trialled every cycle so the crossover
// drifts with the workload instead of being hard-coded.
func (pl *Planner) Choose(span int) Plan {
	b := &pl.buckets[spanBucket(span)]
	pos := (b.seq.Add(1) - 1) % cycleLen
	switch {
	case pos == 0:
		// A new cycle: age out the previous cycles' data so this cycle's
		// trials dominate the comparison. Races with concurrent observers
		// just smear the halving — the comparison is advisory.
		b.hist[PlanSerial].Decay()
		b.hist[PlanParallel].Decay()
		return PlanParallel
	case pos < trialLen:
		return PlanParallel
	case pos < 2*trialLen:
		return PlanSerial
	case pos == 2*trialLen:
		// Commit once per cycle. Exactly one decision lands on this pos, so
		// the comparison runs once and the stored answer holds for the
		// whole committed stretch — re-comparing every decision would let
		// the committed plan's accruing samples drift its mean up against
		// the loser's frozen trial mean and flip-flop into a blended mix.
		p := pl.commitPlan(b, span)
		b.committed.Store(int32(p))
		return p
	}
	if c := Plan(b.committed.Load()); c != PlanAuto {
		return c
	}
	// A commit-phase decision raced ahead of the committing one (or the
	// counter started mid-cycle): fall back to the seeded crossover.
	if span < defaultCrossover {
		return PlanSerial
	}
	return PlanParallel
}

// commitPlan evaluates one cycle's trial data for a bucket.
func (pl *Planner) commitPlan(b *planBucket, span int) Plan {
	sn, pn := b.hist[PlanSerial].Count(), b.hist[PlanParallel].Count()
	serial := b.hist[PlanSerial].Mean() * occupancyFactor(span)
	parallel := b.hist[PlanParallel].Mean()
	if sn == 0 || pn == 0 {
		// No measurements (the caller never fed Observe, or every trial
		// query failed): fall back to the seeded crossover.
		if span < defaultCrossover {
			return PlanSerial
		}
		return PlanParallel
	}
	if parallel < serial {
		return PlanParallel
	}
	return PlanSerial
}

// Observe feeds one measured query latency back into the tuning state.
// Only the plans Choose returns are recorded; PlanAuto is ignored.
func (pl *Planner) Observe(p Plan, span int, ns int64) {
	if p != PlanSerial && p != PlanParallel {
		return
	}
	b := &pl.buckets[spanBucket(span)]
	b.hist[p].Observe(ns)
	if b.hist[p].Count() >= decayAt {
		b.hist[p].Decay()
	}
}

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
