// Package workload generates the data sets, query streams and churn
// (join/leave) sequences used by the paper's evaluation: uniformly
// distributed keys in [1, 10^9), Zipf(1.0)-skewed keys over the same domain,
// exact-match and range queries, and batched join/leave event sequences for
// the network-dynamics experiment.
//
// All generators are deterministic given a seed so experiments are
// repeatable, and every experiment in the paper is averaged over several
// seeds ("the experiments are executed 10 times using 10 different sequences
// and the average is taken").
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"baton/internal/keyspace"
)

// Distribution names the key distributions used in the evaluation.
type Distribution string

const (
	// Uniform draws keys uniformly at random from the domain.
	Uniform Distribution = "uniform"
	// Zipf draws keys from a Zipf(theta) distribution over the domain,
	// matching the paper's skewed data set ("generated by Zipfian method
	// with parameter 1.0").
	Zipf Distribution = "zipf"
)

// Generator produces keys from a configured distribution over a key range.
type Generator struct {
	domain keyspace.Range
	dist   Distribution
	rng    *rand.Rand
	zipf   *zipfSampler
}

// Config describes a workload generator.
type Config struct {
	// Domain is the key domain; the zero value means the paper's default
	// domain [1, 10^9).
	Domain keyspace.Range
	// Distribution selects Uniform or Zipf key generation. Default Uniform.
	Distribution Distribution
	// ZipfTheta is the skew parameter for the Zipf distribution. The paper
	// uses 1.0. Values <= 0 default to 1.0.
	ZipfTheta float64
	// ZipfRanks bounds the number of distinct "hot" ranks the Zipf sampler
	// distinguishes; keys are spread across the domain by rank. Default
	// 100000.
	ZipfRanks int
	// Seed seeds the deterministic random source.
	Seed int64
}

// NewGenerator builds a key generator from the configuration.
func NewGenerator(cfg Config) *Generator {
	domain := cfg.Domain
	if domain.IsEmpty() {
		domain = keyspace.FullDomain()
	}
	dist := cfg.Distribution
	if dist == "" {
		dist = Uniform
	}
	g := &Generator{
		domain: domain,
		dist:   dist,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if dist == Zipf {
		theta := cfg.ZipfTheta
		if theta <= 0 {
			theta = 1.0
		}
		ranks := cfg.ZipfRanks
		if ranks <= 0 {
			ranks = 100_000
		}
		g.zipf = newZipfSampler(theta, ranks)
	}
	return g
}

// Domain returns the key domain the generator draws from.
func (g *Generator) Domain() keyspace.Range { return g.domain }

// NextKey returns the next key from the configured distribution.
func (g *Generator) NextKey() keyspace.Key {
	switch g.dist {
	case Zipf:
		rank := g.zipf.sample(g.rng)
		// Spread ranks over the domain with a fixed pseudo-random permutation
		// derived from the rank so hot keys cluster in key space the way a
		// skewed real data set does (hot ranks map to a contiguous hot
		// region), which is what stresses BATON's range partitioning.
		span := g.domain.Size()
		pos := int64(float64(span) * float64(rank) / float64(g.zipf.n))
		jitter := g.rng.Int63n(maxI64(span/int64(g.zipf.n), 1))
		k := int64(g.domain.Lower) + pos + jitter
		return g.domain.Clamp(keyspace.Key(k))
	default:
		return g.domain.Lower + keyspace.Key(g.rng.Int63n(g.domain.Size()))
	}
}

// Keys returns n keys drawn from the distribution.
func (g *Generator) Keys(n int) []keyspace.Key {
	out := make([]keyspace.Key, n)
	for i := range out {
		out[i] = g.NextKey()
	}
	return out
}

// ExactQuery returns a key to search for. With probability hitRate it is
// drawn from existing (a non-empty slice of previously inserted keys);
// otherwise it is a fresh key from the distribution.
func (g *Generator) ExactQuery(existing []keyspace.Key, hitRate float64) keyspace.Key {
	if len(existing) > 0 && g.rng.Float64() < hitRate {
		return existing[g.rng.Intn(len(existing))]
	}
	return g.NextKey()
}

// RangeQuery returns a query range whose width is the given fraction of the
// domain (selectivity), positioned around a key drawn from the distribution.
func (g *Generator) RangeQuery(selectivity float64) keyspace.Range {
	if selectivity <= 0 {
		selectivity = 0.0001
	}
	if selectivity > 1 {
		selectivity = 1
	}
	width := int64(float64(g.domain.Size()) * selectivity)
	if width < 1 {
		width = 1
	}
	start := int64(g.NextKey())
	if start+width > int64(g.domain.Upper) {
		start = int64(g.domain.Upper) - width
	}
	if start < int64(g.domain.Lower) {
		start = int64(g.domain.Lower)
	}
	return keyspace.NewRange(keyspace.Key(start), keyspace.Key(start+width))
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// zipfSampler samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta using inverse-CDF sampling over a precomputed table.
type zipfSampler struct {
	n   int
	cdf []float64
}

func newZipfSampler(theta float64, n int) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{n: n, cdf: cdf}
}

func (z *zipfSampler) sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ChurnEventKind distinguishes join and leave events in a churn sequence.
type ChurnEventKind int

const (
	// EventJoin is a new peer joining the network.
	EventJoin ChurnEventKind = iota
	// EventLeave is an existing peer leaving gracefully.
	EventLeave
	// EventFail is an existing peer failing abruptly.
	EventFail
)

// String returns the event kind name.
func (k ChurnEventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventFail:
		return "fail"
	default:
		return fmt.Sprintf("ChurnEventKind(%d)", int(k))
	}
}

// ChurnEvent is one membership change in a churn sequence.
type ChurnEvent struct {
	Kind ChurnEventKind
	// PeerIndex selects which live peer leaves or fails; it is interpreted
	// modulo the current network size by whoever applies the sequence.
	// Unused for joins.
	PeerIndex int
}

// ChurnConfig describes a churn sequence.
type ChurnConfig struct {
	// Events is the total number of membership changes to generate.
	Events int
	// JoinFraction is the probability that an event is a join (the rest are
	// split between leaves and failures according to FailFraction).
	JoinFraction float64
	// FailFraction is the probability that a non-join event is an abrupt
	// failure rather than a graceful leave.
	FailFraction float64
	// Seed seeds the deterministic random source.
	Seed int64
}

// ChurnSequence generates a deterministic churn sequence.
func ChurnSequence(cfg ChurnConfig) []ChurnEvent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]ChurnEvent, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		var ev ChurnEvent
		if rng.Float64() < cfg.JoinFraction {
			ev = ChurnEvent{Kind: EventJoin}
		} else {
			kind := EventLeave
			if rng.Float64() < cfg.FailFraction {
				kind = EventFail
			}
			ev = ChurnEvent{Kind: kind, PeerIndex: rng.Intn(1 << 30)}
		}
		events = append(events, ev)
	}
	return events
}
