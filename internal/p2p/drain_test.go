package p2p

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"baton/internal/keyspace"
)

// TestIdleClusterGoroutines: a peer is a queue that gets a goroutine only
// while it holds work, so an idle cluster runs no goroutine per peer —
// neither once built nor after a burst of parallel range queries, whose
// queued scatter branches start drainers that exit when their queues empty.
func TestIdleClusterGoroutines(t *testing.T) {
	const peers, slack = 1024, 4
	runtime.GC()
	baseline := runtime.NumGoroutine()
	c, _ := liveCluster(t, peers, 4000, 181)
	check := func(when string) {
		t.Helper()
		quiesce(t, c)
		if n := settleGoroutines(baseline+slack, 5*time.Second); n > baseline+slack {
			t.Fatalf("%s: an idle %d-peer cluster runs %d goroutines beyond the %d before it, want <= %d",
				when, peers, n-baseline, baseline, slack)
		}
	}
	check("built")

	before := c.Metrics()
	ids := c.PeerIDs()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 8 {
				lo := keyspace.Key(50_000_000 * (1 + (w+i)%8))
				r := keyspace.NewRange(lo, lo+400_000_000)
				if _, _, err := c.Query(ids[(w*37+i*101)%len(ids)], parallelQuery(r)); err != nil {
					t.Errorf("query %v: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	after := c.Metrics()
	queued := after.Delivered["RANGE_SCATTER"] - after.Inline["RANGE_SCATTER"] -
		(before.Delivered["RANGE_SCATTER"] - before.Inline["RANGE_SCATTER"])
	if queued == 0 {
		t.Fatal("the burst queued no scatter branch: no drainer was started")
	}
	check(fmt.Sprintf("after a burst that queued %d branches", queued))
}

// TestTombstoneReapedAfterQueueDrains: a tombstone is retired only once no
// request is queued or running there. The test holds a departed ghost's
// token while four replica deltas queue behind it, so its drainer waits
// with the batch in hand; two reap passes must keep the tombstone, and once
// the token is released the deltas reach its successor, in order, and the
// next pass retires it with every delivery counted once.
func TestTombstoneReapedAfterQueueDrains(t *testing.T) {
	c, _ := liveCluster(t, 4, 0, 113)
	h := addGhost(c, 9994)
	c.wg.Add(1)
	go c.drain(h) // finds nothing queued: h is an ordinary peer from here
	tomb := addGhost(c, 9993)
	tomb.departed, tomb.departTo = true, h.id

	tomb.busy.Add(1) // the test takes the token, so every send queues
	tomb.run.Lock()
	k := len(fifoKeys)
	for seq := 1; seq <= k; seq++ {
		if !c.send(tomb.id, fifoDelta(seq)) {
			t.Fatalf("delta %d refused", seq)
		}
	}
	c.wg.Add(1)
	go c.drain(tomb)

	reap := func() (kept bool) {
		c.memberMu.Lock()
		defer c.memberMu.Unlock()
		c.reapTombstones()
		return slices.Contains(c.tombstones, tomb)
	}
	c.memberMu.Lock()
	c.tombstones = append(c.tombstones, tomb)
	c.memberMu.Unlock()
	for pass := 1; pass <= 2; pass++ {
		if !reap() || c.peerByID(tomb.id) != tomb {
			t.Fatalf("reap pass %d retired the tombstone with %d deltas queued or running", pass, k)
		}
	}

	tomb.run.Unlock()
	tomb.busy.Add(-1)
	quiesce(t, c)
	if reap() || c.peerByID(tomb.id) != nil {
		t.Fatal("a drained tombstone survived its reap pass")
	}
	if got := fifoReplica(t, c, h); got != fifoInOrder {
		t.Fatalf("replica at the successor after %d deltas = %v, want %v", k, got, fifoInOrder)
	}
	if n := h.met.Snapshot(int64(h.id), kindName).Delivered["REPLICATE"]; n != int64(k) {
		t.Fatalf("successor received %d deltas, want %d", n, k)
	}
	quiesce(t, c)
	if msgs, delivered := c.Messages(), sumCounts(c.Metrics().Delivered); msgs != delivered {
		t.Fatalf("Messages() = %d, Σ Metrics().Delivered = %d after the reap", msgs, delivered)
	}
}
