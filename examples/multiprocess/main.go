// Multi-process overlay: the cluster spanning OS-process boundaries over
// the TCP wire transport (internal/transport), compressed into a single
// runnable program.
//
// Everything built on the in-process cluster — routing, replication,
// recovery, parallel ranges, bulk operations — works unchanged when peers
// live in different processes: the coordinator (p2p.NewClusterListen) owns
// the topology and listens on a real socket; daemons (p2p.JoinRemote) dial
// it, join the overlay, and host their share of the keyspace; every
// message that crosses a process boundary travels the length-prefixed
// binary wire codec, and every reply finds its way home through the
// correlation table instead of a channel.
//
// This example runs the three roles in one process for convenience — the
// sockets, codec and correlation machinery are exactly what separate
// processes use. For the real thing, run the coordinator and the daemon as
// OS processes:
//
//	batond -listen 127.0.0.1:7331 -peers 8 -items 10000     # terminal 1
//	batond -seed 127.0.0.1:7331 -peers 4                    # terminal 2
//
// and attach any program that calls p2p.JoinRemote("127.0.0.1:7331", 0) as
// the third: a pure data-plane client, since structural operations (joins,
// departures, crash repair, balancing, audits) are the coordinator's alone.
// cmd/batond's main_test.go is the worked one. The daemon exits on its own
// when the coordinator goes away (the seed connection is its lifeline).
//
// Run with:
//
//	go run ./examples/multiprocess
package main

import (
	"fmt"
	"log"

	"baton"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/store"
	"baton/internal/workload"
)

func main() {
	// 1. The coordinator: grow an 8-peer overlay in the simulator, load it,
	// and animate it with a listening wire transport. Port :0 picks a free
	// loopback port — real deployments pass a routable host:port.
	nw := baton.NewNetwork(baton.Config{Seed: 7})
	for nw.Size() < 8 {
		if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
			log.Fatalf("join: %v", err)
		}
	}
	gen := workload.NewGenerator(workload.Config{Seed: 11})
	keys := gen.Keys(5_000)
	for _, k := range keys {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			log.Fatalf("insert: %v", err)
		}
	}
	head, err := p2p.NewClusterListen(nw, "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer head.Stop()
	fmt.Printf("coordinator: %d peers, listening on %s\n", head.Size(), head.Addr())

	// 2. A daemon joins through the wire and hosts 4 more peers. From here
	// on the overlay spans two "processes": half the ring answers locally,
	// half across the socket, and neither side can tell which is which.
	daemon, err := p2p.JoinRemote(head.Addr(), 4)
	if err != nil {
		log.Fatalf("daemon join: %v", err)
	}
	defer daemon.Stop()
	fmt.Printf("daemon: joined, hosting 4 of %d peers\n", daemon.Size())

	// 3. A pure client attaches with no hosted peers: a data-plane window
	// onto the overlay.
	client, err := p2p.JoinRemote(head.Addr(), 0)
	if err != nil {
		log.Fatalf("client join: %v", err)
	}
	defer client.Stop()

	// Singleton traffic from the client: every key in the overlay is
	// reachable, wherever it lives.
	vias := client.PeerIDs()
	hits := 0
	for _, k := range keys[:1000] {
		if _, found, _, err := client.Get(vias[int(k)%len(vias)], k); err == nil && found {
			hits++
		}
	}
	fmt.Printf("client gets: %d/1000 hits\n", hits)

	// Writes from the client land on whichever process owns the key and
	// replicate to the owner's replica holder as usual.
	if _, err := client.Put(vias[0], 424_242, []byte("cross-process")); err != nil {
		log.Fatalf("put: %v", err)
	}
	v, found, hops, err := daemon.Get(daemon.PeerIDs()[0], 424_242)
	fmt.Printf("daemon reads the client's write: %q (found=%v, hops=%d, err=%v)\n", v, found, hops, err)

	// A parallel range query enters at the owner of its lower bound,
	// scatters across both processes and stitches the answer in key order.
	quarter := keyspace.Range{Lower: keyspace.DomainMin, Upper: keyspace.DomainMin + (keyspace.DomainMax-keyspace.DomainMin)/4}
	items, _, err := client.Query(vias[1], p2p.Query{Range: quarter, Plan: baton.PlanParallel})
	if err != nil {
		log.Fatalf("range: %v", err)
	}
	fmt.Printf("client range over the first quarter of the domain: %d items\n", len(items))

	// Bulk writes batch per owning peer; the batches for daemon-hosted
	// peers cross the wire as single frames.
	var bulk []store.Item
	for i := 0; i < 64; i++ {
		bulk = append(bulk, store.Item{Key: keyspace.Key(600_000 + i), Value: []byte("b")})
	}
	results, err := client.BulkPut(bulk)
	if err != nil {
		log.Fatalf("bulk put: %v", err)
	}
	ok := 0
	for _, r := range results {
		if r.Err == nil {
			ok++
		}
	}
	fmt.Printf("client bulk put: %d/%d applied\n", ok, len(bulk))

	// Structural operations stay with the coordinator: the audit exports
	// cross the wire to collect every process's peers, and the invariant
	// suite holds over the whole overlay.
	if err := head.SyncReplicas(); err != nil {
		log.Fatalf("sync replicas: %v", err)
	}
	snaps, err := head.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	if err := baton.VerifySnapshot(head.Domain(), snaps); err != nil {
		log.Fatalf("structural audit: %v", err)
	}
	fmt.Printf("coordinator audit: %d peers across 2 processes, structural invariants OK\n", len(snaps))

	// And a daemon asking for one is refused — the topology has one owner.
	if _, err := daemon.Snapshot(); err != nil {
		fmt.Printf("daemon asking for the audit: %v\n", err)
	}
}
