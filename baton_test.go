package baton_test

import (
	"testing"
	"time"

	"baton"
)

// TestPublicAPIQuickstart exercises the re-exported public API end to end:
// grow a network, store data, query it, remove peers, and read the metrics.
func TestPublicAPIQuickstart(t *testing.T) {
	nw := baton.NewNetwork(baton.Config{Seed: 42})
	for nw.Size() < 50 {
		if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	if nw.Domain() != baton.FullDomain() {
		t.Fatalf("domain = %v", nw.Domain())
	}

	keys := []baton.Key{7, 1_000, 999_999_999 / 2, 123_456_789}
	for _, k := range keys {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		_, found, cost, err := nw.SearchExact(nw.RandomPeer(), k)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", k, found, err)
		}
		if cost.Messages > 40 {
			t.Fatalf("unreasonable search cost %d", cost.Messages)
		}
	}

	res, _, err := nw.SearchRange(nw.RandomPeer(), baton.NewRange(1, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("range query returned %d items, want 2", len(res.Items))
	}

	if _, err := nw.Leave(nw.RandomPeer()); err != nil {
		t.Fatal(err)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nw.Metrics().TotalMessages() == 0 {
		t.Fatal("metrics should have accumulated messages")
	}
}

func TestPublicAPILoadBalancing(t *testing.T) {
	nw := baton.NewNetwork(baton.Config{
		Seed:        7,
		LoadBalance: baton.LoadBalanceConfig{OverloadThreshold: 30},
	})
	for nw.Size() < 20 {
		if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	// Insert a skewed burst of keys into one narrow region.
	for i := 0; i < 600; i++ {
		k := baton.Key(500_000_000 + i)
		if _, err := nw.Insert(nw.RandomPeer(), k, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := nw.LoadBalanceStats()
	if st.Events == 0 {
		t.Fatal("expected load balancing to trigger")
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPILiveCluster exercises the re-exported live cluster: animate
// the network, run single-key and bulk operations, both range modes, and
// shut down cleanly.
func TestPublicAPILiveCluster(t *testing.T) {
	nw := baton.NewNetwork(baton.Config{Seed: 43})
	for nw.Size() < 40 {
		if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		k := baton.Key(1 + i*4_999_999)
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cluster := baton.NewCluster(nw)
	defer cluster.Stop()
	via := cluster.PeerIDs()[0]

	if _, err := cluster.Put(via, 123, []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, found, _, err := cluster.Get(via, 123)
	if err != nil || !found || string(v) != "x" {
		t.Fatalf("cluster round trip: %q %v %v", v, found, err)
	}

	items := []baton.Item{{Key: 1_000, Value: []byte("a")}, {Key: 900_000_000, Value: []byte("b")}}
	res, err := cluster.BulkPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("bulk put: %+v", r)
		}
	}
	got, err := cluster.BulkGet([]baton.Key{1_000, 900_000_000})
	if err != nil || !got[0].Found || !got[1].Found {
		t.Fatalf("bulk get: %+v %v", got, err)
	}
	if string(got[0].Value) != "a" || string(got[1].Value) != "b" {
		t.Fatalf("bulk get values: %q %q", got[0].Value, got[1].Value)
	}
	if _, err := cluster.BulkDelete([]baton.Key{1_000}); err != nil {
		t.Fatal(err)
	}

	r := baton.NewRange(1, 500_000_000)
	par, _, err := cluster.Query(via, baton.Query{Range: r, Plan: baton.PlanParallel})
	if err != nil {
		t.Fatal(err)
	}
	ser, _, err := cluster.Query(via, baton.Query{Range: r, Plan: baton.PlanSerial})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(ser) {
		t.Fatalf("parallel range returned %d items, serial %d", len(par), len(ser))
	}

	cluster.Stop()
	if _, _, _, err := cluster.Get(via, 123); err != baton.ErrClusterStopped {
		t.Fatalf("after stop: %v, want ErrClusterStopped", err)
	}
}

// TestPublicAPILiveMembership exercises the live membership surface through
// the facade: online join, graceful departure, the adjacent-peer shuffle,
// and the snapshot audit round trip.
func TestPublicAPILiveMembership(t *testing.T) {
	nw := baton.NewNetwork(baton.Config{Seed: 47})
	for nw.Size() < 20 {
		if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		k := baton.Key(1 + i*3_333_333)
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cluster := baton.NewCluster(nw)
	defer cluster.Stop()

	via := cluster.PeerIDs()[0]
	newID, err := cluster.Join(via)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if cluster.Size() != 21 {
		t.Fatalf("size after join = %d, want 21", cluster.Size())
	}
	if err := cluster.Depart(cluster.PeerIDs()[5]); err != nil {
		t.Fatalf("depart: %v", err)
	}
	if _, err := cluster.LoadBalance(newID); err != nil {
		t.Fatalf("load balance: %v", err)
	}

	snaps, err := cluster.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := baton.VerifySnapshot(cluster.Domain(), snaps); err != nil {
		t.Fatalf("snapshot audit: %v", err)
	}
	rebuilt, err := baton.NetworkFromSnapshot(cluster.Domain(), snaps)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Size() != cluster.Size() {
		t.Fatalf("rebuilt network has %d peers, cluster %d", rebuilt.Size(), cluster.Size())
	}
	// Every key inserted before the churn is still readable.
	for i := 0; i < 300; i++ {
		k := baton.Key(1 + i*3_333_333)
		_, found, _, err := cluster.Get(cluster.PeerIDs()[0], k)
		if err != nil || !found {
			t.Fatalf("key %d after membership changes: found=%v err=%v", k, found, err)
		}
	}
}

// TestPublicAPIAdaptiveLoadBalancing exercises the re-exported load
// management surface: Loads/ImbalanceRatio metering, one manual BalanceOnce
// pass, and the background balancer on a deliberately skewed cluster.
func TestPublicAPIAdaptiveLoadBalancing(t *testing.T) {
	nw := baton.NewNetwork(baton.Config{Seed: 77})
	for nw.Size() < 20 {
		if _, _, err := nw.Join(nw.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	cluster := baton.NewCluster(nw)
	defer cluster.Stop()
	// Pile every write onto one narrow slice of the domain.
	via := cluster.PeerIDs()[0]
	lo := baton.FullDomain().Lower + baton.Key(baton.FullDomain().Size()/2)
	for i := 0; i < 800; i++ {
		if _, err := cluster.Put(via, lo+baton.Key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	loads, err := cluster.Loads()
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 20 {
		t.Fatalf("Loads reported %d peers, want 20", len(loads))
	}
	before := baton.ImbalanceRatio(loads)
	if before < 4 {
		t.Fatalf("skew setup too tame: ratio %.2f", before)
	}
	act, moved, err := cluster.BalanceOnce(baton.AutoBalanceConfig{Theta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if act == baton.BalanceNone || moved == 0 {
		t.Fatalf("BalanceOnce on a skewed cluster: action %v, moved %d", act, moved)
	}
	cluster.StartAutoBalance(baton.AutoBalanceConfig{Theta: 2, Interval: time.Millisecond})
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := cluster.ImbalanceRatio()
		if err != nil {
			t.Fatal(err)
		}
		if r < before/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background balancer left ratio at %.2f (was %.2f)", r, before)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cluster.BalanceEvents() == 0 {
		t.Fatal("no balance events counted")
	}
	snaps, err := cluster.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := baton.VerifySnapshot(cluster.Domain(), snaps); err != nil {
		t.Fatalf("audit after balancing: %v", err)
	}
}
