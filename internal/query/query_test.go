package query

import (
	"fmt"
	"sync"
	"testing"

	"baton/internal/keyspace"
)

// TestPlannerTrialSchedule pins the tuning schedule: every cycle opens
// with a parallel trial burst (the plan whose wake drains fast goes
// first), then a serial trial burst, then commits.
func TestPlannerTrialSchedule(t *testing.T) {
	pl := NewPlanner()
	for i := 0; i < trialLen; i++ {
		if got := pl.Choose(64); got != PlanParallel {
			t.Fatalf("decision %d: got %v, want the parallel trial burst", i, got)
		}
	}
	for i := 0; i < trialLen; i++ {
		if got := pl.Choose(64); got != PlanSerial {
			t.Fatalf("decision %d: got %v, want the serial trial burst", trialLen+i, got)
		}
	}
}

// TestPlanAuto pins the zero Plan: it is PlanAuto, each plan prints its own
// name, Choose never returns it, and Observe records nothing for it.
func TestPlanAuto(t *testing.T) {
	if got := fmt.Sprint(Plan(0), PlanSerial, PlanParallel); got != "auto serial parallel" {
		t.Fatalf("plan names = %q, want auto serial parallel", got)
	}
	pl := NewPlanner()
	pl.Observe(PlanAuto, 64, 1000)
	b := &pl.buckets[spanBucket(64)]
	for p := range b.hist {
		if b.hist[p].Count() != 0 {
			t.Fatal("Observe(PlanAuto) recorded a sample")
		}
	}
	for i := 0; i <= cycleLen; i++ {
		if got := pl.Choose(64); got == PlanAuto {
			t.Fatalf("decision %d: Choose returned PlanAuto", i)
		}
	}
}

// TestPlannerColdPrior pins the seeded crossover: with no latency data at
// all (Observe never called), commit-phase decisions run narrow ranges
// serially and wide ranges in parallel.
func TestPlannerColdPrior(t *testing.T) {
	pl := NewPlanner()
	// Burn both buckets' trial bursts without feeding any measurements.
	for i := 0; i < 2*trialLen; i++ {
		pl.Choose(1)
		pl.Choose(64)
	}
	for i := 0; i < 12; i++ {
		if got := pl.Choose(1); got != PlanSerial {
			t.Fatalf("cold commit for span 1: got %v, want serial", got)
		}
		if got := pl.Choose(64); got != PlanParallel {
			t.Fatalf("cold commit for span 64: got %v, want parallel", got)
		}
	}
}

// TestPlannerLearnsCrossover feeds the planner latencies where the seeded
// prior is wrong in both directions and checks the measured data wins.
// The comparison is occupancy-corrected: a span-s chain walk's service
// demand is ~(s/2)× its burst latency, so at span 64 serial must be more
// than 32× faster than parallel to win the commit — here 10µs vs 900µs
// (demand 320µs vs 900µs) commits the wide bucket to serial. On the
// narrow span the factor is 1 and parallel's raw mean wins directly.
func TestPlannerLearnsCrossover(t *testing.T) {
	pl := NewPlanner()
	// Walk both buckets through their trial bursts, answering each trial
	// decision with a latency that inverts the seeded prior.
	for i := 0; i < 2*trialLen+1; i++ {
		switch pl.Choose(64) {
		case PlanAuto:
			t.Fatal("Choose returned PlanAuto")
		case PlanSerial:
			pl.Observe(PlanSerial, 64, 10_000) // serial very fast on wide spans
		case PlanParallel:
			pl.Observe(PlanParallel, 64, 900_000) // parallel slow there
		}
		switch pl.Choose(2) {
		case PlanAuto:
			t.Fatal("Choose returned PlanAuto")
		case PlanSerial:
			pl.Observe(PlanSerial, 2, 800_000) // serial slow on narrow spans
		case PlanParallel:
			pl.Observe(PlanParallel, 2, 50_000) // parallel fast there
		}
	}
	const n = 100
	for i := 0; i < n; i++ {
		if got := pl.Choose(64); got != PlanSerial {
			t.Fatalf("commit decision %d for span 64: got %v, want serial (measured demand lower)", i, got)
		}
		if got := pl.Choose(2); got != PlanParallel {
			t.Fatalf("commit decision %d for span 2: got %v, want parallel (measured demand lower)", i, got)
		}
	}
}

// TestPlannerOccupancyGuard pins the correction's point: a serial trial
// that looks only modestly faster than parallel on a wide span (burst
// means flatter the chain walk, whose congestion cost a short burst never
// sees) must still commit to parallel once demand is compared.
func TestPlannerOccupancyGuard(t *testing.T) {
	pl := NewPlanner()
	for i := 0; i < 2*trialLen+1; i++ {
		switch pl.Choose(16) {
		case PlanAuto:
			t.Fatal("Choose returned PlanAuto")
		case PlanSerial:
			pl.Observe(PlanSerial, 16, 200_000) // burst-fast, demand 1.6ms
		case PlanParallel:
			pl.Observe(PlanParallel, 16, 600_000)
		}
	}
	for i := 0; i < 100; i++ {
		if got := pl.Choose(16); got != PlanParallel {
			t.Fatalf("commit decision %d for span 16: got %v, want parallel (serial demand 8x its burst mean)", i, got)
		}
	}
}

// TestPlannerConcurrent exercises Choose/Observe from many goroutines so
// the race detector can audit the lock-free tuning state.
func TestPlannerConcurrent(t *testing.T) {
	pl := NewPlanner()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				span := 1 << (i % 8)
				p := pl.Choose(span)
				pl.Observe(p, span, int64(1000*(i+1)))
			}
		}(w)
	}
	wg.Wait()
}

func TestSpanBucket(t *testing.T) {
	cases := []struct{ span, bucket int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 20, spanBuckets - 1},
	}
	for _, c := range cases {
		if got := spanBucket(c.span); got != c.bucket {
			t.Errorf("spanBucket(%d) = %d, want %d", c.span, got, c.bucket)
		}
	}
}

// TestPredMatch pins the predicate contract: zero value matches all,
// fields AND together, key membership uses the sorted set.
func TestPredMatch(t *testing.T) {
	var nilPred *Pred
	if !nilPred.Match(1, nil) {
		t.Error("nil predicate must match everything")
	}
	if !(&Pred{}).Match(7, []byte("x")) {
		t.Error("zero predicate must match everything")
	}
	p := &Pred{MinValueLen: 2, MaxValueLen: 4}
	for _, c := range []struct {
		v  string
		ok bool
	}{{"", false}, {"a", false}, {"ab", true}, {"abcd", true}, {"abcde", false}} {
		if got := p.Match(1, []byte(c.v)); got != c.ok {
			t.Errorf("len pred on %q = %v, want %v", c.v, got, c.ok)
		}
	}
	ks := &Pred{Keys: []keyspace.Key{30, 10, 20}} // unsorted on purpose
	ks.Normalize()
	for _, c := range []struct {
		k  keyspace.Key
		ok bool
	}{{10, true}, {20, true}, {30, true}, {15, false}, {40, false}} {
		if got := ks.Match(c.k, nil); got != c.ok {
			t.Errorf("key-set pred on %d = %v, want %v", c.k, got, c.ok)
		}
	}
}

// TestCacheEpochInvalidation pins the invalidation rule: an entry stored
// under one epoch must not be served under any other, so an epoch bump
// (a membership change publishing new ownership) implicitly empties the
// cache with no flush.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache()
	r := keyspace.NewRange(1000, 5000)
	b := BucketOf(r)
	c.Put(b, 7, 3, 12)
	e, ok := c.Get(b, 7)
	if !ok || e.Span != 3 || e.OwnerIdx != 12 {
		t.Fatalf("Get after Put = %+v, %v; want span 3 ownerIdx 12", e, ok)
	}
	if _, ok := c.Get(b, 8); ok {
		t.Error("entry from epoch 7 served at epoch 8: epoch bump must invalidate")
	}
	if _, ok := c.Get(b+1, 7); ok {
		t.Error("entry served for a different bucket")
	}
}

// TestBucketOfStability pins that repeats of the same range share a bucket
// and that clearly different ranges do not all collide onto one.
func TestBucketOfStability(t *testing.T) {
	r := keyspace.NewRange(123456, 234567)
	if BucketOf(r) != BucketOf(r) {
		t.Error("BucketOf must be deterministic")
	}
	seen := map[uint64]bool{}
	for lo := keyspace.Key(0); lo < 1_000_000; lo += 100_000 {
		seen[BucketOf(keyspace.NewRange(lo, lo+1000))] = true
	}
	if len(seen) < 5 {
		t.Errorf("10 well-spread ranges mapped to only %d buckets", len(seen))
	}
}
