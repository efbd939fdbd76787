package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/workload"
)

// scenarioEvents is how many structural events a churn or fault row fires,
// at evenly spaced points of its first client's op stream.
const scenarioEvents = 6

// TestScenarios is the live overlay's end-to-end audit table: {churn, fault,
// skew, range} × {local, tcp} × fanout {2, 4}. Each row grows a 24-peer
// cluster, in process or as a loopback coordinator + daemon pair that serves
// traffic the moment JoinRemote returns, and runs concurrent clients doing
// gets, puts and ranges (every plan: auto, serial, parallel)
// while its structural events fire:
//   - churn: online joins and graceful departures;
//   - fault: kills and crash repairs, under RouteDirect;
//   - skew: Zipf data and puts with the background balancer on;
//   - range: no events and a range-heavy mix.
//
// Every row then repairs whatever is still dead (a lost replica is
// tolerated), quiesces the balancer if it ran, and audits structure and
// replication. Outside the fault rows, whose write guarantee is
// TestCrashStormNoReplicatedWriteLost's, every read finds its loaded key,
// every range answer holds exactly the loaded keys it covers, and every
// acknowledged put reads back after the audit. A skew row must also end
// less imbalanced than it began.
func TestScenarios(t *testing.T) {
	churn := func(c *Cluster, i int, rng *rand.Rand) error {
		ids := c.PeerIDs()
		if i%2 == 0 {
			_, err := c.Join(ids[rng.Intn(len(ids))])
			return err
		}
		return c.Depart(ids[rng.Intn(len(ids))])
	}
	fault := func(c *Cluster, i int, rng *rand.Rand) error {
		if i%2 == 0 {
			return c.Kill(randomAlive(c, rng))
		}
		return recoverDead(c)
	}
	rows := []struct {
		name                string
		event               func(c *Cluster, i int, rng *rand.Rand) error
		direct, skew, exact bool
		rangeShare          float64
	}{
		{name: "churn", event: churn, exact: true, rangeShare: 0.2},
		{name: "fault", event: fault, direct: true, rangeShare: 0.2},
		{name: "skew", skew: true, exact: true, rangeShare: 0.2},
		{name: "range", exact: true, rangeShare: 0.6},
	}
	seed := int64(0)
	for _, row := range rows {
		for _, transport := range []string{"local", "tcp"} {
			for _, m := range []int{2, 4} {
				seed++
				t.Run(fmt.Sprintf("%s/%s/m%d", row.name, transport, m), func(t *testing.T) {
					const peers, items, clients, ops = 16, 800, 4, 120
					preload := items
					if row.skew {
						preload = 0 // the row loads Zipf data below
					}
					var c *Cluster
					var keys []keyspace.Key
					if transport == "tcp" {
						c, _, keys = wirePair(t, m, peers/2, peers/2, preload, seed)
					} else {
						c, keys = liveClusterFanout(t, peers, preload, seed, m)
					}
					if row.skew {
						keys = workload.NewGenerator(workload.Config{Distribution: workload.Zipf, Seed: seed}).Keys(items)
						loadKeys(t, c, keys)
					}
					keys = uniqueSortedKeys(keys)
					imbalance, err := c.ImbalanceRatio()
					if err != nil {
						t.Fatal(err)
					}
					if row.direct {
						c.SetRouteMode(RouteDirect)
					}
					if row.skew {
						c.StartAutoBalance(AutoBalanceConfig{Interval: 2 * time.Millisecond})
					}

					// want[j] is the value keys[j] must read back with, "" once a
					// put to it failed. Client cl alone writes the keys with
					// j%clients == cl, so each element has one writer.
					want := make([]string, len(keys))
					for j, k := range keys {
						want[j] = fmt.Sprint(k)
					}
					var wg sync.WaitGroup
					for cl := 0; cl < clients; cl++ {
						wg.Add(1)
						go func(cl int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(seed*100 + int64(cl)))
							fired := 0
							for i := 0; i < ops; i++ {
								if cl == 0 && row.event != nil && fired < scenarioEvents && i == (fired+1)*ops/(scenarioEvents+1) {
									if err := row.event(c, fired, rng); err != nil {
										t.Errorf("structural event %d: %v", fired, err)
									}
									fired++
								}
								via := randomAlive(c, rng)
								switch roll := rng.Float64(); {
								case roll < row.rangeShare:
									r := scenarioRange(c.Domain(), keys, rng)
									plan := query.Plan(i % 3) // auto, serial, parallel in turn
									got, _, err := c.Query(via, Query{Range: r, Plan: plan})
									if err == nil && row.exact && !slices.Equal(itemKeys(got), keysIn(keys, r)) {
										t.Errorf("range %v (%v plan): %d keys, want exactly the %d loaded", r, plan, len(got), len(keysIn(keys, r)))
									}
								case roll < (1+row.rangeShare)/2:
									k := keys[rng.Intn(len(keys))]
									if _, found, _, err := c.Get(via, k); err == nil && row.exact && !found {
										t.Errorf("get %d: loaded key not found", k)
									}
								default:
									j := cl + clients*rng.Intn(len(keys)/clients)
									v := fmt.Sprintf("c%d-%d", cl, i)
									if _, err := c.Put(via, keys[j], []byte(v)); err != nil {
										v = ""
									}
									want[j] = v
								}
							}
						}(cl)
					}
					withTimeout(t, time.Minute, "scenario clients", wg.Wait)

					// The closing sequence: repair, quiesce, audit, read back.
					if err := recoverDead(c); err != nil {
						t.Fatalf("final repair: %v", err)
					}
					if row.skew {
						if _, err := c.BalanceUntilStable(AutoBalanceConfig{}, 8*c.Size()); err != nil {
							t.Fatal(err)
						}
					}
					auditCluster(t, c)
					if row.exact {
						ids := c.PeerIDs()
						for j, v := range want {
							if v == "" {
								continue
							}
							got, found, _, err := c.Get(ids[j%len(ids)], keys[j])
							if err != nil || !found || string(got) != v {
								t.Fatalf("acknowledged put %d=%q reads back found=%v %q err=%v", keys[j], v, found, got, err)
							}
						}
					}
					if row.skew {
						after, err := c.ImbalanceRatio()
						if err != nil {
							t.Fatal(err)
						}
						t.Logf("imbalance ratio %.2f -> %.2f (%d balance actions)", imbalance, after, c.BalanceEvents())
						if after >= imbalance {
							t.Fatalf("the balancer did not cut the imbalance ratio: %.2f -> %.2f", imbalance, after)
						}
					}
				})
			}
		}
	}
}

// randomAlive picks a random alive member of c (the last one tried if 16
// tries find none).
func randomAlive(c *Cluster, rng *rand.Rand) core.PeerID {
	ids := c.PeerIDs()
	id := ids[rng.Intn(len(ids))]
	for tries := 0; tries < 16 && !c.Alive(id); tries++ {
		id = ids[rng.Intn(len(ids))]
	}
	return id
}

// recoverDead repairs every dead member of c; a lost replica still heals
// the range, so ErrReplicaLost is tolerated.
func recoverDead(c *Cluster) error {
	for _, id := range c.PeerIDs() {
		if c.Alive(id) {
			continue
		}
		if _, err := c.Recover(id); err != nil && !errors.Is(err, ErrReplicaLost) {
			return fmt.Errorf("recover %d: %w", id, err)
		}
	}
	return nil
}

// loadKeys bulk-puts keys into c, each valued with its decimal form.
func loadKeys(t *testing.T, c *Cluster, keys []keyspace.Key) {
	t.Helper()
	batch := make([]store.Item, len(keys))
	for i, k := range keys {
		batch[i] = store.Item{Key: k, Value: []byte(fmt.Sprint(k))}
	}
	results, err := c.BulkPut(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("load key %d: %v", r.Key, r.Err)
		}
	}
}

// scenarioRange draws a range starting at a loaded key, 1/1 to 1/2048 of
// the domain wide.
func scenarioRange(domain keyspace.Range, keys []keyspace.Key, rng *rand.Rand) keyspace.Range {
	w := keyspace.Key(domain.Size() >> (2 + rng.Intn(10)))
	lo := min(keys[rng.Intn(len(keys))], domain.Upper-w)
	return keyspace.NewRange(lo, lo+w)
}

// itemKeys returns the keys of items, in order.
func itemKeys(items []store.Item) []keyspace.Key {
	out := make([]keyspace.Key, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}
