// Command batond hosts peers of a live BATON overlay in their own OS
// process, connected to the rest of the cluster over the TCP wire
// transport (internal/transport). It runs in one of two roles:
//
//   - Coordinator: -listen makes this process the overlay's head. It grows
//     a cluster of -peers locally (optionally preloading -items uniformly
//     distributed items), listens for daemons, and owns every structural
//     operation — joins of remote peers, departures, crash repair, load
//     balancing, audits.
//   - Daemon: -seed dials a running coordinator and joins the live overlay,
//     hosting -peers additional peers in this process. The daemon serves
//     its share of the keyspace (gets, puts, ranges, bulk, replication all
//     cross the wire as needed) until it is interrupted or the seed
//     connection drops.
//
// Usage:
//
//	batond -listen 127.0.0.1:7331 -peers 8 -items 10000   # coordinator
//	batond -seed 127.0.0.1:7331 -peers 4                  # daemon
//
// Any program that calls p2p.JoinRemote(addr, 0) attaches to the running
// cluster as a pure data-plane client; main_test.go drives one through a
// coordinator and a daemon process end to end, and examples/multiprocess
// walks the whole surface in one process.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"baton/internal/core"
	"baton/internal/p2p"
	"baton/internal/workload"
)

// options is batond's command line.
type options struct {
	listen, seed         string
	peers, items, fanout int
	rngseed              int64
}

// defineFlags binds batond's flags on fs to the fields of o.
func defineFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.listen, "listen", "", "coordinator role: address to listen on (host:port; :0 picks a free port)")
	fs.StringVar(&o.seed, "seed", "", "daemon role: address of a running coordinator to join")
	fs.IntVar(&o.peers, "peers", 4, "peers hosted in this process")
	fs.IntVar(&o.items, "items", 0, "coordinator role: items preloaded into the overlay before listening")
	fs.IntVar(&o.fanout, "fanout", 2, "coordinator role: overlay tree fanout m (2 = binary BATON, >2 = BATON*)")
	fs.Int64Var(&o.rngseed, "rngseed", 1, "coordinator role: random seed for the initial topology and preload")
}

func main() {
	var o options
	defineFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := validateFlags(flag.CommandLine, o); err != nil {
		fatal(err)
	}

	var c *p2p.Cluster
	var err error
	if o.listen != "" {
		c, err = startCoordinator(o)
	} else {
		c, err = p2p.JoinRemote(o.seed, o.peers)
		if err == nil {
			fmt.Printf("batond: joined overlay via %s, hosting %d peers (cluster size %d)\n", o.seed, o.peers, c.Size())
		}
	}
	if err != nil {
		fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("batond: %v, shutting down\n", s)
	case <-c.SeedDown(): // nil (blocks forever) for the coordinator
		fmt.Fprintln(os.Stderr, "batond: seed connection lost, shutting down")
		c.Stop()
		os.Exit(1)
	}
	c.Stop()
}

// startCoordinator grows the initial overlay in-process, preloads it, and
// opens the listener. The listen address is printed on stdout so scripts
// can scrape the bound port when :0 was asked for.
func startCoordinator(o options) (*p2p.Cluster, error) {
	nw := core.NewNetwork(core.Config{Seed: o.rngseed, Fanout: o.fanout})
	rng := rand.New(rand.NewSource(o.rngseed))
	for nw.Size() < o.peers {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			return nil, fmt.Errorf("growing initial overlay: %w", err)
		}
	}
	gen := workload.NewGenerator(workload.Config{Seed: o.rngseed + 1, Distribution: workload.Uniform})
	for _, k := range gen.Keys(o.items) {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			return nil, fmt.Errorf("preloading items: %w", err)
		}
	}
	c, err := p2p.NewClusterListen(nw, o.listen)
	if err != nil {
		return nil, err
	}
	fmt.Printf("batond: coordinator listening on %s (%d peers, %d items, fanout %d)\n",
		c.Addr(), o.peers, o.items, o.fanout)
	return c, nil
}

// validateFlags enforces the role split on the parsed flag set fs: exactly
// one of -listen and -seed, a valid -fanout for a coordinator, and the
// coordinator-only knobs rejected in daemon role rather than silently
// ignored.
func validateFlags(fs *flag.FlagSet, o options) error {
	if (o.listen == "") == (o.seed == "") {
		return fmt.Errorf("exactly one of -listen (coordinator) or -seed (daemon) is required")
	}
	if o.seed == "" {
		if !core.ValidFanout(o.fanout) {
			return fmt.Errorf("invalid -fanout %d (want 2..%d)", o.fanout, core.MaxFanout)
		}
		return nil
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "items", "fanout", "rngseed":
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("daemon role (-seed) ignores flag(s) %v: the coordinator owns the topology and the data preload", bad)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "batond:", err)
	os.Exit(1)
}
