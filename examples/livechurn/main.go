// Live churn: grow and shrink the running cluster online — full Section
// III-A joins and Section III-B graceful departures with data migration —
// while concurrent clients keep reading and writing, then audit the
// quiesced structure against the simulator's invariant suite.
//
// The walkthrough has three acts:
//
//  1. Explicit membership: join a handful of peers one at a time, watch the
//     cluster grow, then depart them again and check that every previously
//     acknowledged write is still readable (the handoffs moved the data).
//  2. Load balancing: skew one peer with a burst of writes and trigger the
//     adjacent-peer shuffle of Section V.
//  3. Steady-state churn under load: the workload driver serves a mixed
//     read/write/range workload while matched join/depart rates turn the
//     membership over; the size stays put while the composition changes.
//
// Run with:
//
//	go run ./examples/livechurn
package main

import (
	"fmt"
	"log"

	"baton"
	"baton/internal/workload/driver"
)

func main() {
	// Build and load a 64-peer overlay with the simulator, then animate it.
	cluster, keys, stop, err := driver.Build(driver.Spec{Peers: 64, Items: 10_000, Seed: 7})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	defer stop()
	fmt.Printf("live cluster: %d peer goroutines, %d items\n\n", cluster.Size(), len(keys))

	// --- Act 1: explicit joins and departures -----------------------------
	via := cluster.PeerIDs()[0]
	var joined []baton.PeerID
	for i := 0; i < 8; i++ {
		id, err := cluster.Join(via)
		if err != nil {
			log.Fatalf("join: %v", err)
		}
		joined = append(joined, id)
	}
	fmt.Printf("after 8 online joins: %d peers\n", cluster.Size())
	for _, id := range joined[:4] {
		if err := cluster.Depart(id); err != nil {
			log.Fatalf("depart %d: %v", id, err)
		}
	}
	fmt.Printf("after 4 graceful departures: %d peers\n", cluster.Size())
	missing := 0
	for _, k := range keys {
		if _, found, _, err := cluster.Get(via, k); err != nil || !found {
			missing++
		}
	}
	fmt.Printf("pre-loaded keys still readable: %d/%d\n\n", len(keys)-missing, len(keys))

	// --- Act 2: the adjacent-peer load-balance shuffle --------------------
	snaps, err := cluster.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	hot := snaps[len(snaps)/2]
	span := hot.Range.Size()
	for i := int64(0); i < 500; i++ {
		k := hot.Range.Lower + baton.Key(i*span/500)
		if _, err := cluster.Put(hot.ID, k, []byte("hot")); err != nil {
			log.Fatalf("put: %v", err)
		}
	}
	moved, err := cluster.LoadBalance(hot.ID)
	if err != nil {
		log.Fatalf("load balance: %v", err)
	}
	fmt.Printf("overloaded peer %d shuffled %d items to its lighter adjacent peer\n\n", hot.ID, moved)

	// --- Act 3: steady-state churn under load -----------------------------
	before := cluster.Size()
	rep := driver.Run(cluster, driver.Config{
		Clients:       16,
		Ops:           20_000,
		GetFraction:   0.6,
		PutFraction:   0.25,
		RangeFraction: 0.15,
		Keys:          keys,
		JoinPeers:     16,
		DepartPeers:   16,
		Seed:          11,
	})
	fmt.Println("steady-state churn under a mixed workload:")
	fmt.Print(rep.String())
	fmt.Printf("cluster size: %d -> %d (matched join/depart rates)\n\n", before, cluster.Size())

	// --- The audit: quiesce, snapshot, re-verify every invariant ----------
	snaps, err = cluster.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	if err := baton.VerifySnapshot(cluster.Domain(), snaps); err != nil {
		log.Fatalf("structural invariants violated after churn: %v", err)
	}
	items := 0
	for _, ps := range snaps {
		items += len(ps.Items)
	}
	fmt.Printf("post-quiesce audit: %d peers, %d items, balanced tree, gap-free ranges, symmetric routing tables — all invariants OK\n", len(snaps), items)
}
