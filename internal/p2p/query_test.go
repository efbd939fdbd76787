package p2p

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
)

// uniqueSortedKeys dedups the inserted key list (the generator can collide;
// a colliding insert overwrites) into the ground-truth key set.
func uniqueSortedKeys(keys []keyspace.Key) []keyspace.Key {
	out := slices.Clone(keys)
	slices.Sort(out)
	return slices.Compact(out)
}

// keysIn returns the subset of ks that fall inside r, in key order.
func keysIn(ks []keyspace.Key, r keyspace.Range) []keyspace.Key {
	var out []keyspace.Key
	for _, k := range ks {
		if r.Contains(k) {
			out = append(out, k)
		}
	}
	return out
}

// checkExactItems asserts items is exactly the key set want: no lost keys,
// no duplicates, nothing outside the set.
func checkExactItems(t *testing.T, items []store.Item, want []keyspace.Key, label string) {
	t.Helper()
	wantSet := make(map[keyspace.Key]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
	}
	got := make(map[keyspace.Key]bool, len(items))
	for _, it := range items {
		if got[it.Key] {
			t.Fatalf("%s: duplicated key %d", label, it.Key)
		}
		got[it.Key] = true
		if !wantSet[it.Key] {
			t.Fatalf("%s: unexpected key %d", label, it.Key)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct keys, want %d", label, len(got), len(want))
	}
}

// TestEstimateSpanMatchesCore pins the planner's input against ground
// truth: on a quiesced cluster at every supported fanout flavour (binary
// BATON and BATON* at m=4 and m=8), EstimateSpan of a range must equal the
// number of peers whose snapshot range overlaps it — the ring published to
// clients and the structural state audited through core agree exactly.
func TestEstimateSpanMatchesCore(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			c, _ := liveClusterFanout(t, 48, 200, int64(900+m), m)
			snaps, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			truth := func(r keyspace.Range) int {
				n := 0
				for _, ps := range snaps {
					if ps.Range.Lower < r.Upper && ps.Range.Upper > r.Lower {
						n++
					}
				}
				return n
			}
			if got := c.EstimateSpan(keyspace.FullDomain()); got != c.Size() {
				t.Fatalf("full-domain span = %d, want cluster size %d", got, c.Size())
			}
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < 200; i++ {
				lo := keyspace.DomainMin + keyspace.Key(rng.Int63n(int64(keyspace.DomainMax-keyspace.DomainMin)))
				width := keyspace.Key(1 + rng.Int63n(int64(keyspace.DomainMax-lo)))
				r := keyspace.NewRange(lo, lo+width)
				if got, want := c.EstimateSpan(r), truth(r); got != want {
					t.Fatalf("EstimateSpan(%v) = %d, want %d (overlapping peer ranges)", r, got, want)
				}
			}
			// A single-key range touches exactly its owner.
			if got := c.EstimateSpan(keyspace.NewRange(500_000, 500_001)); got != 1 {
				t.Fatalf("single-key span = %d, want 1", got)
			}
		})
	}
}

// TestAdaptiveRangeMatchesFixedPlans checks that the plan cache serves
// repeats across widths: the second identical query must hit. (The answers
// themselves, under every plan, are TestQueryMatchesModel's.)
func TestAdaptiveRangeMatchesFixedPlans(t *testing.T) {
	c, _ := liveCluster(t, 60, 600, 41)
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(42))
	for _, width := range []keyspace.Key{5_000_000, 80_000_000, 400_000_000, 999_000_000} {
		lo := keyspace.DomainMin + keyspace.Key(rng.Int63n(int64(keyspace.DomainMax-width)))
		r := keyspace.NewRange(lo, lo+width)
		via := ids[rng.Intn(len(ids))]
		before := c.PlanStats()
		for range 2 {
			if _, _, err := c.RangeAdaptive(via, r); err != nil {
				t.Fatalf("adaptive range %v: %v", r, err)
			}
		}
		after := c.PlanStats()
		if after.CacheHits <= before.CacheHits {
			t.Fatalf("repeat of range %v did not hit the plan cache (hits %d -> %d)", r, before.CacheHits, after.CacheHits)
		}
	}
}

// TestPlanCacheNotServedAcrossEpochBump pins the invalidation rule
// red/green: a cached plan must not be served after a membership change
// bumps the topology epoch, and caching must resume at the new epoch.
func TestPlanCacheNotServedAcrossEpochBump(t *testing.T) {
	c, _ := liveCluster(t, 30, 200, 43)
	ids := c.PeerIDs()
	r := keyspace.NewRange(100_000_000, 300_000_000)
	if _, _, err := c.RangeAdaptive(ids[0], r); err != nil { // populates the cache
		t.Fatal(err)
	}
	before := c.PlanStats()
	if _, _, err := c.RangeAdaptive(ids[0], r); err != nil {
		t.Fatal(err)
	}
	mid := c.PlanStats()
	if mid.CacheHits != before.CacheHits+1 {
		t.Fatalf("repeat before the bump: cache hits %d -> %d, want a hit", before.CacheHits, mid.CacheHits)
	}
	if _, err := c.Join(ids[0]); err != nil { // epoch bump
		t.Fatal(err)
	}
	if _, _, err := c.RangeAdaptive(ids[0], r); err != nil {
		t.Fatal(err)
	}
	after := c.PlanStats()
	if after.CacheHits != mid.CacheHits {
		t.Fatalf("first query after the epoch bump was served from the stale cache (hits %d -> %d)", mid.CacheHits, after.CacheHits)
	}
	if _, _, err := c.RangeAdaptive(ids[0], r); err != nil {
		t.Fatal(err)
	}
	if final := c.PlanStats(); final.CacheHits != after.CacheHits+1 {
		t.Fatalf("caching did not resume at the new epoch (hits %d -> %d)", after.CacheHits, final.CacheHits)
	}
}

// TestPlanAutoFollowsSpanRule pins PlanAuto on a live cluster: every query
// of spans 1 to 13, from the very first, runs serially below a span of 4
// and in parallel from 4 on, and since the plan depends on the span alone,
// two identically seeded clusters spend identical messages on each query of
// the same list.
func TestPlanAutoFollowsSpanRule(t *testing.T) {
	a, _ := liveCluster(t, 64, 600, 44)
	b, _ := liveCluster(t, 64, 600, 44)
	ids := a.PeerIDs()
	rng := rand.New(rand.NewSource(44))
	type spanQuery struct {
		r    keyspace.Range
		span int
	}
	var list []spanQuery
	for rep := 0; rep < 3; rep++ {
		for span := 1; span <= 13; span++ {
			// Start inside a random peer with at least 13 peers to its
			// right, and take the narrowest width EstimateSpan says covers
			// span peers: span grows by one each time the upper bound
			// crosses a peer's lower bound.
			ring := a.topo.Load().ring
			i := rng.Intn(len(ring) - 13)
			lo := ring[i].lower + keyspace.Key(rng.Int63n(int64(ring[i+1].lower-ring[i].lower)))
			w := keyspace.Key(1)
			for a.EstimateSpan(keyspace.NewRange(lo, lo+w)) < span {
				w *= 2
			}
			for step := w / 2; step > 0; step /= 2 {
				if a.EstimateSpan(keyspace.NewRange(lo, lo+w-step)) >= span {
					w -= step
				}
			}
			r := keyspace.NewRange(lo, lo+w)
			if got := a.EstimateSpan(r); got != span {
				t.Fatalf("EstimateSpan(%v) = %d, want %d", r, got, span)
			}
			list = append(list, spanQuery{r, span})
		}
	}
	for n, q := range list {
		via := ids[n%len(ids)]
		before := a.PlanStats()
		aMsgs, bMsgs := a.Messages(), b.Messages()
		if _, _, err := a.Query(via, Query{Range: q.r}); err != nil {
			t.Fatalf("query %d over %v: %v", n, q.r, err)
		}
		if _, _, err := b.Query(via, Query{Range: q.r}); err != nil {
			t.Fatalf("query %d over %v on the twin: %v", n, q.r, err)
		}
		after := a.PlanStats()
		serial, parallel := after.Serial-before.Serial, after.Parallel-before.Parallel
		if q.span < 4 && (serial != 1 || parallel != 0) || q.span >= 4 && (serial != 0 || parallel != 1) {
			t.Fatalf("query %d (span %d): serial +%d, parallel +%d; want serial below span 4, parallel from 4", n, q.span, serial, parallel)
		}
		if da, db := a.Messages()-aMsgs, b.Messages()-bMsgs; da != db {
			t.Fatalf("query %d (span %d): %d messages, twin cluster %d", n, q.span, da, db)
		}
	}
}

// parallelQuery and serialQuery read r under a fixed plan.
func parallelQuery(r keyspace.Range) Query { return Query{Range: r, Plan: query.PlanParallel} }
func serialQuery(r keyspace.Range) Query   { return Query{Range: r, Plan: query.PlanSerial} }

// TestQueryMatchesModel is the read contract as one table: every plan ×
// every predicate × both entry points, over a wide range and two one-key
// ranges, in process and from a zero-peer wire client. Query returns
// exactly the model — the range's loaded keys that match, the lowest Limit
// of them under a limit — in key order; QueryIter yields the same set in
// arrival order, and under a limit stops after Limit of the range's keys,
// whichever arrive first. QueryIter refuses PlanSerial and sends nothing.
func TestQueryMatchesModel(t *testing.T) {
	local, localKeys := liveCluster(t, 60, 800, 45)
	_, _, client, wireKeys := wireTrio(t, 6, 6, 800, 45)
	for _, tc := range []struct {
		name string
		c    *Cluster
		keys []keyspace.Key
	}{{"local", local, localKeys}, {"wire", client, wireKeys}} {
		uniq := uniqueSortedKeys(tc.keys)
		wide := keyspace.NewRange(100_000_000, 900_000_000)
		in := keysIn(uniq, wide)
		preds := []*query.Pred{nil, {MinValueLen: 100}, {Keys: []keyspace.Key{in[3], in[7], in[11]}}, {Limit: 5}}
		model := func(r keyspace.Range, pred *query.Pred) (want []keyspace.Key) {
			for _, k := range keysIn(uniq, r) {
				if pred.Match(k, []byte(fmt.Sprint(k))) && (pred.LimitOrZero() == 0 || len(want) < pred.Limit) {
					want = append(want, k)
				}
			}
			return want
		}
		via := tc.c.PeerIDs()[0]
		for _, plan := range []query.Plan{query.PlanAuto, query.PlanSerial, query.PlanParallel} {
			for i, pred := range preds {
				for _, r := range []keyspace.Range{wide, keyspace.NewRange(in[3], in[3]+1), keyspace.NewRange(in[4], in[4]+1)} {
					q, want := Query{Range: r, Pred: pred, Plan: plan}, model(r, pred)
					label := fmt.Sprintf("%s: %v plan, pred %d, %v", tc.name, plan, i, r)
					items, _, err := tc.c.Query(via, q)
					if got := itemKeys(items); err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s: Query = %v, %v; want %v", label, got, err, want)
					}
					sent := tc.c.Messages()
					it, err := tc.c.QueryIter(via, q)
					if plan == query.PlanSerial {
						if err == nil || tc.c.Messages() != sent {
							t.Fatalf("%s: QueryIter = %v after %d messages, want an error and none", label, err, tc.c.Messages()-sent)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: QueryIter: %v", label, err)
					}
					var got []keyspace.Key
					for it.Next() {
						got = append(got, it.Item().Key)
					}
					slices.Sort(got)
					eligible := want
					if pred.LimitOrZero() > 0 {
						eligible = keysIn(uniq, r) // the limit filters nothing else
					}
					ok := it.Err() == nil && len(got) == len(want)
					for j, k := range got {
						ok = ok && (j == 0 || got[j-1] < k) && slices.Contains(eligible, k)
					}
					if !ok {
						t.Fatalf("%s: QueryIter = %v, %v; want %v", label, got, it.Err(), want)
					}
				}
			}
		}
	}
}

// TestRangeFilteredPushdown pins what a limit saves: the limited walk
// terminates the chain early — measurably fewer hops than the full walk.
// (What each predicate returns is TestQueryMatchesModel's.)
func TestRangeFilteredPushdown(t *testing.T) {
	c, _ := liveCluster(t, 60, 800, 45)
	ids := c.PeerIDs()
	r := keyspace.NewRange(100_000_000, 900_000_000)
	_, limHops, err := c.Query(ids[2], Query{Range: r, Pred: &query.Pred{Limit: 5}})
	if err != nil {
		t.Fatal(err)
	}
	_, fullHops, err := c.Query(ids[2], serialQuery(r))
	if err != nil {
		t.Fatal(err)
	}
	if limHops >= fullHops {
		t.Fatalf("limited walk took %d hops, full serial walk %d: the limit did not terminate the chain early", limHops, fullHops)
	}
}

// TestRangeIterStreams pins the iterator contract on a healthy cluster:
// the full item set arrives in strictly increasing key order, Err is nil
// and Hops is populated. (Predicates and limits are
// TestQueryMatchesModel's.)
func TestRangeIterStreams(t *testing.T) {
	c, keys := liveCluster(t, 60, 800, 46)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	r := keyspace.NewRange(200_000_000, 800_000_000)

	it, err := c.QueryIter(ids[0], Query{Range: r})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var items []store.Item
	for it.Next() {
		if n := len(items); n > 0 && items[n-1].Key >= it.Item().Key {
			t.Fatalf("item %d: key %d after %d, want strictly increasing keys", n, it.Item().Key, items[n-1].Key)
		}
		items = append(items, it.Item())
	}
	if it.Err() != nil {
		t.Fatalf("iterator ended with %v", it.Err())
	}
	checkExactItems(t, items, keysIn(uniq, r), "streamed range")
	if it.Hops() == 0 {
		t.Fatal("iterator reported no hops")
	}
}

// TestRangeIterEpochBumpMidIteration is the red/green churn case: an
// iterator started under one epoch keeps streaming the exact item set
// while a join and a departure republish ownership mid-consumption.
func TestRangeIterEpochBumpMidIteration(t *testing.T) {
	c, keys := liveCluster(t, 50, 900, 47)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	r := keyspace.NewRange(100_000_000, 950_000_000)

	it, err := c.QueryIter(ids[0], Query{Range: r})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var items []store.Item
	for i := 0; i < 10 && it.Next(); i++ {
		items = append(items, it.Item())
	}
	// Membership changes mid-consumption: both bump the epoch and move
	// item ownership under the pages still to come, which are cut from the
	// ring as published when each is read. They run concurrently with the
	// consumption below, so a page may also be read mid-operation.
	churnDone := make(chan error, 1)
	go func() {
		joined, err := c.Join(ids[1])
		if err != nil {
			churnDone <- err
			return
		}
		churnDone <- c.Depart(joined)
	}()
	for it.Next() {
		items = append(items, it.Item())
	}
	if it.Err() != nil {
		t.Fatalf("iterator across epoch bumps ended with %v", it.Err())
	}
	if err := <-churnDone; err != nil {
		t.Fatalf("churn during iteration: %v", err)
	}
	checkExactItems(t, items, keysIn(uniq, r), "iterator across join+depart")
}

// TestQueryLayerChurnStress interleaves every kind of read — Query under
// each plan, QueryIter, a one-key filtered Query and a limited Query — with
// joins, departures, crashes and recoveries under the race detector. The
// exactness contract: a read that reports success returns exactly its model
// (the range's complete item set with no duplicates, the one key, the
// range's lowest ten keys); churn may fail a read (ErrOwnerDown) but must
// never silently lose or duplicate items. The data set is static (no
// writes), so ground truth never moves.
func TestQueryLayerChurnStress(t *testing.T) {
	c, keys := liveCluster(t, 80, 800, 48)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	const workers = 8
	const perWorker = 42
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < perWorker; i++ {
				via := ids[rng.Intn(len(ids))]
				lo := keyspace.DomainMin + keyspace.Key(rng.Int63n(700_000_000))
				r := keyspace.NewRange(lo, lo+keyspace.Key(1+rng.Int63n(250_000_000)))
				want := keysIn(uniq, r)
				switch i % 6 {
				case 0, 1, 2: // PlanAuto, PlanSerial, PlanParallel
					items, _, err := c.Query(via, Query{Range: r, Plan: query.Plan(i % 6)})
					if err == nil && !slices.Equal(itemKeys(items), want) {
						t.Errorf("%v query over %v under churn: %d keys, want exactly the %d loaded", query.Plan(i%6), r, len(items), len(want))
					}
				case 3:
					it, err := c.QueryIter(via, Query{Range: r})
					if err != nil {
						continue
					}
					var got []keyspace.Key
					for it.Next() {
						got = append(got, it.Item().Key)
					}
					if slices.Sort(got); it.Err() == nil && !slices.Equal(got, want) {
						t.Errorf("iterator over %v under churn: %d keys, want exactly the %d loaded", r, len(got), len(want))
					}
					it.Close()
				case 4:
					k := uniq[rng.Intn(len(uniq))]
					items, _, err := c.Query(via, Query{Range: keyspace.NewRange(k, k+1), Pred: &query.Pred{MinValueLen: 1}})
					if err == nil && (len(items) != 1 || items[0].Key != k || string(items[0].Value) != fmt.Sprint(k)) {
						t.Errorf("filtered read of %d returned %v", k, items)
					}
				case 5:
					items, _, err := c.Query(via, Query{Range: r, Pred: &query.Pred{Limit: 10}})
					if want = want[:min(10, len(want))]; err == nil && !slices.Equal(itemKeys(items), want) {
						t.Errorf("limited query over %v returned %v, want the lowest ten keys %v", r, itemKeys(items), want)
					}
				}
			}
		}(w)
	}
	// Churn alongside the queries: grow, shrink, crash and recover. Any
	// individual structural op may be refused (e.g. departing a peer that
	// is mid-something); refusals are not failures.
	churn := rand.New(rand.NewSource(49))
	for i := 0; i < 12; i++ {
		if id, err := c.Join(ids[churn.Intn(len(ids))]); err == nil && i%2 == 0 {
			c.Depart(id)
		}
		victim := ids[churn.Intn(len(ids))]
		if err := c.Kill(victim); err == nil {
			time.Sleep(time.Millisecond)
			c.Recover(victim)
		}
	}
	withTimeout(t, 60*time.Second, "query layer under churn", wg.Wait)
}

// benchRangeCluster builds one shared cluster for the allocation
// benchmarks: wide enough that a full-domain range is a real scatter.
var benchRange = keyspace.FullDomain()

// BenchmarkRangeMaterialised is the baseline the streaming iterator is
// judged against: the scatter's branches scan their items straight into one
// O(result) slice, sized at the coordinator and ordered by segment. Run with
// -benchmem: the bytes/op are dominated by that one answer.
func BenchmarkRangeMaterialised(b *testing.B) {
	c, _ := liveCluster(b, 32, 2000, 50)
	ids := c.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, _, err := c.Query(ids[i%len(ids)], parallelQuery(benchRange))
		if err != nil {
			b.Fatal(err)
		}
		if len(items) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRangeWire is BenchmarkRangeMaterialised from a zero-peer client:
// the same 32 peers and items, half of them on another node, so every part
// of the answer crosses a socket. Its bytes/op hold the frames written and
// read besides the answer.
func BenchmarkRangeWire(b *testing.B) {
	_, _, client, _ := wireTrio(b, 16, 16, 2000, 50)
	ids := client.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, _, err := client.Query(ids[i%len(ids)], parallelQuery(benchRange))
		if err != nil {
			b.Fatal(err)
		}
		if len(items) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRangeIterStreaming consumes the same range through the
// iterator: one ring slot per page, each a one-peer Query, so the iterator
// holds one peer's part at a time instead of the whole result.
func BenchmarkRangeIterStreaming(b *testing.B) {
	c, _ := liveCluster(b, 32, 2000, 50)
	ids := c.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := c.QueryIter(ids[i%len(ids)], Query{Range: benchRange})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil || n == 0 {
			b.Fatalf("streamed %d items, err %v", n, it.Err())
		}
		it.Close()
	}
}

// BenchmarkRangeIterWire is BenchmarkRangeIterStreaming from a zero-peer
// client over BenchmarkRangeWire's nodes: every page is a round trip, one
// after another, where the materialised query's parts travel at once.
func BenchmarkRangeIterWire(b *testing.B) {
	_, _, client, _ := wireTrio(b, 16, 16, 2000, 50)
	ids := client.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := client.QueryIter(ids[i%len(ids)], Query{Range: benchRange})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil || n == 0 {
			b.Fatalf("streamed %d items, err %v", n, it.Err())
		}
	}
}

// onePeerRange returns the lower half of the range of a peer holding at
// least minKeys of keys, in the cluster's published ring, and the keys it
// holds.
func onePeerRange(t *testing.T, c *Cluster, keys []keyspace.Key, minKeys int) (keyspace.Range, []keyspace.Key) {
	t.Helper()
	uniq := uniqueSortedKeys(keys)
	ring := c.topo.Load().ring
	for i := 1; i+1 < len(ring); i++ {
		lo, hi := ring[i].lower, ring[i+1].lower
		r := keyspace.Range{Lower: lo, Upper: lo + (hi-lo)/2}
		if want := keysIn(uniq, r); len(want) >= minKeys {
			return r, want
		}
	}
	t.Fatalf("no peer holds %d keys in the lower half of its range", minKeys)
	return keyspace.Range{}, nil
}

// TestOnePeerQueryAllocs: a materialising parallel query whose range one
// peer covers has nothing to scatter, so it is answered like a serial one —
// the same hops, and one allocation, the answer itself: no collector, no
// chunk, no stitched copy.
func TestOnePeerQueryAllocs(t *testing.T) {
	c, keys := liveCluster(t, 64, 100_000, 181)
	r, want := onePeerRange(t, c, keys, 200)
	via := c.PeerIDs()[0]
	quiesce(t, c)
	items, hops, err := c.Query(via, parallelQuery(r))
	if got := itemKeys(items); err != nil || !slices.Equal(got, want) {
		t.Fatalf("parallel query over one peer: %d items, err %v; want %d", len(got), err, len(want))
	}
	if _, serialHops, err := c.Query(via, serialQuery(r)); err != nil || hops != serialHops {
		t.Fatalf("parallel query took %d hops, serial %d (err %v); want equal", hops, serialHops, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if items, _, err := c.Query(via, parallelQuery(r)); err != nil || len(items) != len(want) {
			t.Fatalf("parallel query: %d items, err %v", len(items), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a one-peer parallel query allocates %.1f objects, want 1 (the answer)", allocs)
	}
}

// slotRange returns the range from the middle of ring slot i to the middle
// of slot i+span-1: it touches exactly span peers and ends inside the last.
func slotRange(c *Cluster, i, span int) keyspace.Range {
	ring := c.topo.Load().ring
	mid := func(j int) keyspace.Key { return ring[j].lower + (ring[j+1].lower-ring[j].lower)/2 }
	return keyspace.Range{Lower: mid(i), Upper: mid(i + span - 1)}
}

// TestRangeAnswerAllocatedOnce: an unfiltered in-process range answer is
// allocated once, sized from the ring at the peer where phase 2 starts, and
// every covering peer scans its part straight into it — serially into the
// travelling accumulator, in parallel into its region of the collector's
// buffer. Bytes allocated per query stay within 1.2× the answer's own.
func TestRangeAnswerAllocatedOnce(t *testing.T) {
	c, _ := liveCluster(t, 64, 100_000, 211)
	quiesce(t, c)
	via := c.PeerIDs()[0]
	const queries = 60
	for _, tc := range []struct {
		plan query.Plan
		span int
	}{{query.PlanSerial, 2}, {query.PlanSerial, 3}, {query.PlanParallel, 4}, {query.PlanParallel, 13}, {query.PlanParallel, 32}} {
		var before, after runtime.MemStats
		answer := 0
		runtime.ReadMemStats(&before)
		for q := 0; q < queries; q++ {
			r := slotRange(c, 1+q%(64-tc.span-2), tc.span)
			items, _, err := c.Query(via, Query{Range: r, Plan: tc.plan})
			if err != nil || len(items) == 0 {
				t.Fatalf("%v span %d over %v: %d items, err %v", tc.plan, tc.span, r, len(items), err)
			}
			answer += len(items)
		}
		runtime.ReadMemStats(&after)
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(answer*int(unsafe.Sizeof(store.Item{})))
		t.Logf("%v span %d: %.3f× the answer's bytes", tc.plan, tc.span, ratio)
		if ratio > 1.2 {
			t.Errorf("%v span %d allocates %.2f× the answer's bytes, want ≤ 1.2", tc.plan, tc.span, ratio)
		}
	}
}

// TestRangeAnswerValuesStableUnderPuts: the values of an in-process range
// answer are views of the covering peers' leaf buffers, which those peers
// keep writing while the client reads the answer. Clients read serial and
// parallel answers over a few peers and check every value against its key,
// while a writer overwrites keys of the same peers with values of changing
// length: each put appends to a leaf an answer aliases, and a leaf whose
// buffer fills or turns half dead moves its values to a fresh one. Every
// value a client holds must keep its bytes until it is dropped.
func TestRangeAnswerValuesStableUnderPuts(t *testing.T) {
	c, keys := liveCluster(t, 16, 2000, 229)
	via := c.PeerIDs()[0]
	r := slotRange(c, 3, 4)
	hot := keysIn(uniqueSortedKeys(keys), r)
	valid := func(k keyspace.Key, v []byte) bool {
		head := fmt.Sprint(k)
		return string(v) == head || strings.HasPrefix(string(v), head+"/")
	}
	stop := make(chan struct{})
	writes := make(chan int, 1)
	go func() {
		ver := 0
		for ; ; ver++ {
			select {
			case <-stop:
				writes <- ver
				return
			default:
			}
			k := hot[ver%len(hot)]
			if _, err := c.Put(via, k, fmt.Appendf(nil, "%d/%d%s", k, ver, strings.Repeat("#", ver%29))); err != nil {
				t.Errorf("put %d: %v", k, err)
			}
		}
	}()
	type held struct {
		it  store.Item
		was string
	}
	var wg sync.WaitGroup
	for client, plan := range []query.Plan{query.PlanSerial, query.PlanParallel, query.PlanSerial} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []held
			for q := 0; q < 60; q++ {
				items, _, err := c.Query(via, Query{Range: r, Plan: plan})
				if err != nil || len(items) != len(hot) {
					t.Errorf("client %d: %v over %v: %d items, err %v; want %d", client, plan, r, len(items), err, len(hot))
					return
				}
				for _, it := range items {
					if !valid(it.Key, it.Value) {
						t.Errorf("client %d: key %d holds %q", client, it.Key, it.Value)
						return
					}
					kept = append(kept, held{it, string(it.Value)})
				}
				if q%10 == 9 {
					for _, h := range kept {
						if string(h.it.Value) != h.was {
							t.Errorf("client %d: a value read for key %d changed from %q to %q", client, h.it.Key, h.was, h.it.Value)
							return
						}
					}
					kept = kept[:0]
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-writes; n < len(hot) {
		t.Errorf("the writer overwrote %d keys while the clients read; want at least the %d keys of the range", n, len(hot))
	}
}

// TestRangeAnswerStaleCounts: the published item counts that size an answer
// are an estimate. A count too low, too high or zero — in the middle of the
// span or in its last slot — costs a copy, never an item: every plan still
// answers exactly. At the collector, a segment lower bound claimed twice
// gets its region once, so two branches can never write the same items.
func TestRangeAnswerStaleCounts(t *testing.T) {
	t.Run("cluster", func(t *testing.T) {
		c, keys := liveCluster(t, 32, 20_000, 223)
		uniq := uniqueSortedKeys(keys)
		quiesce(t, c)
		via := c.PeerIDs()[0]
		ring := c.topo.Load().ring
		for i := 1; i+8 < len(ring); i += 4 {
			r := slotRange(c, i, 6)
			ring[i+2].p.items.Store(0)
			ring[i+3].p.items.Store(2 * ring[i+3].p.items.Load())
			ring[i+5].p.items.Store(0)
			want := keysIn(uniq, r)
			for _, plan := range []query.Plan{query.PlanSerial, query.PlanParallel} {
				items, _, err := c.Query(via, Query{Range: r, Plan: plan})
				if got := itemKeys(items); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%v over %v with stale counts: %d items, err %v; want %d", plan, r, len(got), err, len(want))
				}
				for _, it := range items {
					if string(it.Value) != fmt.Sprint(it.Key) {
						t.Fatalf("%v over %v: key %d holds %q", plan, r, it.Key, it.Value)
					}
				}
			}
		}
	})
	t.Run("collector", func(t *testing.T) {
		itemsOf := func(keys ...keyspace.Key) []store.Item {
			out := make([]store.Item, len(keys))
			for i, k := range keys {
				out[i] = store.Item{Key: k}
			}
			return out
		}
		g := &collector{reply: make(chan response, 1), buf: make([]store.Item, 4),
			regions: []region{{lo: 10, end: 2}, {lo: 20, off: 2, end: 4}}}
		g.grow(3)
		first, again := g.claim(10), g.claim(10)
		if cap(first) != 2 || again != nil {
			t.Fatalf("claiming lower bound 10 twice: capacities %d and %d (nil %v); want the region once", cap(first), cap(again), again == nil)
		}
		if g.claim(15) != nil {
			t.Fatal("a lower bound without a region got one")
		}
		// The region of 20 is filled exactly; the branch at 10 holds one
		// item more than its region and so scans into a chunk of its own.
		g.settle(chunk{lo: 20, items: append(g.claim(20), itemsOf(20, 21)...)}, 1, nil, 1, 0)
		g.settle(chunk{lo: 10, items: append(first, itemsOf(10, 11, 12)...)}, 1, nil, 1, 0)
		g.settle(chunk{lo: 30, items: itemsOf(30)}, 1, nil, 1, 0)
		resp := <-g.reply
		if got, want := itemKeys(resp.items), []keyspace.Key{10, 11, 12, 20, 21, 30}; !slices.Equal(got, want) {
			t.Fatalf("stitched answer %v, want %v", got, want)
		}
	})
}

// TestQueryOutsideDomain: the extreme peers store the keys outside the
// domain, and every plan reads them back through a one-key range that lies
// wholly outside the domain, which the extreme peer answers alone.
func TestQueryOutsideDomain(t *testing.T) {
	c, _ := liveCluster(t, 16, 200, 191)
	via := c.PeerIDs()[0]
	for _, k := range []keyspace.Key{keyspace.DomainMin - 10, keyspace.DomainMax + 10} {
		if _, err := c.Put(via, k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		for _, plan := range []query.Plan{query.PlanAuto, query.PlanSerial, query.PlanParallel} {
			items, _, err := c.Query(via, Query{Range: keyspace.NewRange(k, k+1), Plan: plan})
			if got := itemKeys(items); err != nil || !slices.Equal(got, []keyspace.Key{k}) {
				t.Fatalf("%v plan over [%d, %d): %v, err %v; want the one key", plan, k, k+1, got, err)
			}
		}
	}
}
