package query

import (
	"fmt"
	"sync"
	"testing"

	"baton/internal/keyspace"
)

// TestPlanAuto pins the zero Plan: it is PlanAuto, each plan prints its own
// name, and Choose never returns it.
func TestPlanAuto(t *testing.T) {
	if got := fmt.Sprint(Plan(0), PlanSerial, PlanParallel); got != "auto serial parallel" {
		t.Fatalf("plan names = %q, want auto serial parallel", got)
	}
	for span := 0; span <= 64; span++ {
		if got := Choose(span); got == PlanAuto {
			t.Fatalf("Choose(%d) returned PlanAuto", span)
		}
	}
}

// TestPlannerColdPrior pins the rule's table: narrow ranges walk serially
// and wide ones scatter from the very first decision, with no warm-up and
// no dependence on what was chosen before.
func TestPlannerColdPrior(t *testing.T) {
	cases := []struct {
		span int
		want Plan
	}{
		{0, PlanSerial}, {1, PlanSerial}, {3, PlanSerial},
		{4, PlanParallel}, {64, PlanParallel}, {1 << 20, PlanParallel},
	}
	for _, c := range cases {
		if got := Choose(c.span); got != c.want {
			t.Errorf("Choose(%d) = %v, want %v", c.span, got, c.want)
		}
	}
}

// TestPlannerConcurrent runs the benchmark's Planner shim from many
// goroutines: every decision must match Choose, and Observe must leave
// nothing behind for the race detector to find.
func TestPlannerConcurrent(t *testing.T) {
	pl := NewPlanner()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				span := 1 << (i % 8)
				p := pl.Choose(span)
				if p != Choose(span) {
					t.Errorf("Planner.Choose(%d) = %v, want %v", span, p, Choose(span))
					return
				}
				pl.Observe(p, span, int64(1000*(i+1)))
			}
		}()
	}
	wg.Wait()
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
