// Package experiments reproduces the evaluation of the BATON paper
// (Section V, Figure 8(a)–(i)). Each figure has one driver function that
// builds the necessary networks (BATON, and where the paper compares against
// them, CHORD and the multiway tree), runs the workload the paper describes,
// and returns the plotted series as structured data.
//
// The drivers are used by cmd/batonsim, which prints the series as tables.
package experiments

import (
	"fmt"
	"math/rand"

	"baton/internal/chord"
	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/multiway"
	"baton/internal/stats"
	"baton/internal/workload"
)

// Options controls the scale of an experiment run.
type Options struct {
	// Sizes is the list of network sizes to sweep (the paper uses
	// 1,000–10,000 peers).
	Sizes []int
	// DataPerNode is the number of data items inserted per peer (the paper
	// uses 1,000).
	DataPerNode int
	// Queries is the number of exact-match and range queries per
	// measurement (the paper uses 1,000).
	Queries int
	// Churn is the number of join and leave operations measured per network
	// size.
	Churn int
	// Runs is the number of independent repetitions (different event
	// sequences) averaged together (the paper uses 10).
	Runs int
	// RangeSelectivity is the fraction of the key domain covered by each
	// range query.
	RangeSelectivity float64
	// LoadBalanceThreshold is the per-peer item threshold used by the load
	// balancing experiments (Figures 8(g) and 8(h)).
	LoadBalanceThreshold int
	// Seed seeds all random sources.
	Seed int64
}

// Default returns the paper-scale options: 1,000–10,000 peers, 1,000 items
// per peer and 1,000 queries, averaged over 10 runs. A full sweep at this
// scale takes tens of minutes.
func Default() Options {
	sizes := make([]int, 0, 10)
	for n := 1000; n <= 10000; n += 1000 {
		sizes = append(sizes, n)
	}
	return Options{
		Sizes:                sizes,
		DataPerNode:          1000,
		Queries:              1000,
		Churn:                200,
		Runs:                 10,
		RangeSelectivity:     0.001,
		LoadBalanceThreshold: 2000,
		Seed:                 1,
	}
}

// Quick returns reduced options suitable for tests and benchmarks: the same
// experiments at a scale that completes in seconds.
func Quick() Options {
	return Options{
		Sizes:                []int{200, 400, 600, 800},
		DataPerNode:          20,
		Queries:              150,
		Churn:                60,
		Runs:                 2,
		RangeSelectivity:     0.001,
		LoadBalanceThreshold: 60,
		Seed:                 1,
	}
}

func (o Options) normalised() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = Quick().Sizes
	}
	if o.DataPerNode <= 0 {
		o.DataPerNode = 20
	}
	if o.Queries <= 0 {
		o.Queries = 100
	}
	if o.Churn <= 0 {
		o.Churn = 50
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.RangeSelectivity <= 0 {
		o.RangeSelectivity = 0.001
	}
	if o.LoadBalanceThreshold <= 0 {
		o.LoadBalanceThreshold = 60
	}
	return o
}

// Result is the outcome of one figure reproduction.
type Result struct {
	// ID is the figure identifier ("8a" .. "8i").
	ID string
	// Title is the figure caption from the paper.
	Title string
	// XLabel names the x axis.
	XLabel string
	// Series are the plotted lines.
	Series []stats.Series
	// Notes records qualitative observations checked against the paper.
	Notes []string
}

// Table renders the result as an aligned text table.
func (r Result) Table() string { return stats.Table(r.XLabel, r.Series) }

// Figures lists the identifiers of all reproducible figures in order.
func Figures() []string {
	return []string{"8a", "8b", "8c", "8d", "8e", "8f", "8g", "8h", "8i"}
}

// Run executes the driver for the given figure identifier.
func Run(id string, opt Options) (Result, error) {
	switch id {
	case "8a":
		return FigureA(opt), nil
	case "8b":
		return FigureB(opt), nil
	case "8c":
		return FigureC(opt), nil
	case "8d":
		return FigureD(opt), nil
	case "8e":
		return FigureE(opt), nil
	case "8f":
		return FigureF(opt), nil
	case "8g":
		return FigureG(opt), nil
	case "8h":
		return FigureH(opt), nil
	case "8i":
		return FigureI(opt), nil
	default:
		return Result{}, fmt.Errorf("experiments: unknown figure %q (valid: %v)", id, Figures())
	}
}

// All runs every figure driver.
func All(opt Options) []Result {
	out := make([]Result, 0, len(Figures()))
	for _, id := range Figures() {
		r, _ := Run(id, opt)
		out = append(out, r)
	}
	return out
}

// --- shared builders --------------------------------------------------------

// batonNetwork builds a BATON network of the given size through random joins
// and loads it with data drawn from the given distribution.
func batonNetwork(size int, seed int64, items int, dist workload.Distribution, lb core.LoadBalanceConfig) (*core.Network, []keyspace.Key) {
	nw := core.NewNetwork(core.Config{Seed: seed, LoadBalance: lb})
	rng := rand.New(rand.NewSource(seed))
	for nw.Size() < size {
		ids := nw.PeerIDs()
		via := ids[rng.Intn(len(ids))]
		if _, _, err := nw.Join(via); err != nil {
			panic(fmt.Sprintf("experiments: building BATON network: %v", err))
		}
	}
	gen := workload.NewGenerator(workload.Config{Distribution: dist, ZipfTheta: 1.0, Seed: seed + 1})
	keys := gen.Keys(items)
	for _, k := range keys {
		if _, err := nw.Insert(nw.RandomPeer(), k, nil); err != nil {
			panic(fmt.Sprintf("experiments: loading BATON network: %v", err))
		}
	}
	return nw, keys
}

// chordRing builds a Chord ring of the given size and loads it with data.
func chordRing(size int, seed int64, items int) (*chord.Ring, []keyspace.Key) {
	r := chord.NewRing(chord.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	for r.Size() < size {
		ids := r.NodeIDs()
		if _, _, err := r.Join(ids[rng.Intn(len(ids))]); err != nil {
			panic(fmt.Sprintf("experiments: building Chord ring: %v", err))
		}
	}
	gen := workload.NewGenerator(workload.Config{Seed: seed + 1})
	keys := gen.Keys(items)
	for _, k := range keys {
		if _, err := r.Insert(r.RandomNode(), k); err != nil {
			panic(fmt.Sprintf("experiments: loading Chord ring: %v", err))
		}
	}
	return r, keys
}

// multiwayTree builds a multiway tree of the given size and loads it with
// data.
func multiwayTree(size int, seed int64, items int) (*multiway.Tree, []keyspace.Key) {
	t := multiway.NewTree(multiway.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	for t.Size() < size {
		ids := t.PeerIDs()
		if _, _, err := t.Join(ids[rng.Intn(len(ids))]); err != nil {
			panic(fmt.Sprintf("experiments: building multiway tree: %v", err))
		}
	}
	gen := workload.NewGenerator(workload.Config{Seed: seed + 1})
	keys := gen.Keys(items)
	for _, k := range keys {
		if _, err := t.Insert(t.RandomPeer(), k, nil); err != nil {
			panic(fmt.Sprintf("experiments: loading multiway tree: %v", err))
		}
	}
	return t, keys
}

// averageOver runs fn for each run index and averages the returned values.
func averageOver(runs int, fn func(run int) float64) float64 {
	if runs <= 0 {
		runs = 1
	}
	total := 0.0
	for i := 0; i < runs; i++ {
		total += fn(i)
	}
	return total / float64(runs)
}
