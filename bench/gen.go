package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
)

// The benchmark's own seeded input generator. The program under test sees
// only what comes out of here: keys, values, ranges and entry peers. The
// same -seed gives the same inputs; PCG's stream is fixed by its
// specification, not by the Go release.

const (
	clients   = 2  // closed-loop client goroutines; the box has two cores
	valueLen  = 16 // key ‖ version, both big-endian uint64
	hotRanges = 64 // fixed hot set of the range workloads; fits the 256-slot plan cache
	maxLive   = 64 // ephemeral keys one client keeps alive at most
	hotSeed   = 1  // places the hot set, the same in every run
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// genKeys draws n unique, uniformly distributed even keys inside dom and
// returns them sorted. Preloaded keys are all even so that odd keys are free
// for the ephemeral inserts of mixed-churn-local.
func genKeys(seed int64, n int, dom Range) []Key {
	rng := newRand(seed, 1)
	half := (int64(dom.Upper) - int64(dom.Lower)) / 2
	seen := make(map[Key]struct{}, n)
	keys := make([]Key, 0, n)
	for len(keys) < n {
		k := Key((int64(dom.Lower)+1)/2*2 + 2*rng.Int64N(half))
		if !dom.Contains(k) {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func encodeValue(k Key, version uint64) []byte {
	v := make([]byte, valueLen)
	binary.BigEndian.PutUint64(v, uint64(k))
	binary.BigEndian.PutUint64(v[8:], version)
	return v
}

func decodeValue(v []byte) (k Key, version uint64, ok bool) {
	if len(v) != valueLen {
		return 0, 0, false
	}
	return Key(binary.BigEndian.Uint64(v)), binary.BigEndian.Uint64(v[8:]), true
}

// preloadItems pairs every key with its version-1 value.
func preloadItems(keys []Key) []Item {
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = Item{Key: k, Value: encodeValue(k, 1)}
	}
	return items
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opInsert
	opDelete
	opRange
)

const numOps = int(opRange) + 1

var opNames = [numOps]string{"get", "put", "insert", "delete", "range"}

// mix is an operation mix in percent; the entries sum to 100.
type mix [numOps]int

// op is one generated client operation.
type op struct {
	kind opKind
	idx  int   // get/put of a preloaded key: its index in the sorted key array
	key  Key   // the key (every kind but range)
	rng  Range // range only
	via  PeerID
}

// opGen produces one client's operation stream. Client c touches only the
// preloaded keys whose index is ≡ c (mod clients) and only ephemeral keys of
// its own residue class, so the oracle's per-key state needs no lock.
type opGen struct {
	rng     *rand.Rand
	client  int
	spec    *spec
	keys    []Key
	dom     Range
	hot     []Range
	live    []Key // ephemeral keys inserted and not yet deleted, oldest first
	liveSet map[Key]struct{}
	// maybe holds the ephemeral keys whose insert or delete returned an error
	// and may or may not have been applied: they are not read back, and the
	// closing check accepts them present or absent.
	maybe map[Key]struct{}
}

func newOpGen(seed int64, client int, sp *spec, keys []Key, dom Range) *opGen {
	g := &opGen{
		rng:     newRand(seed, 100+uint64(client)),
		client:  client,
		spec:    sp,
		keys:    keys,
		dom:     dom,
		liveSet: make(map[Key]struct{}, maxLive),
		maybe:   make(map[Key]struct{}),
	}
	if sp.mix[opRange] > 0 {
		// The hot set belongs to the workload, not to the seed: half of all
		// queries come from these 64 ranges, so which peers they happen to
		// cover would otherwise decide a run's median latency and message
		// count. Their widths are the 64 evenly spaced quantiles of the width
		// distribution, their positions come from a fixed stream.
		hr := newRand(hotSeed, 7)
		for i := 0; i < hotRanges; i++ {
			g.hot = append(g.hot, placeRange(hr, dom, sp.widthAt((float64(i)+0.5)/hotRanges)))
		}
	}
	return g
}

// widthAt is the width distribution's quantile function: log-uniform between
// widthLo and widthHi, as a share of the domain.
func (sp *spec) widthAt(u float64) float64 {
	return sp.widthLo * math.Pow(sp.widthHi/sp.widthLo, u)
}

// placeRange places a range of the given width (a share of the domain)
// uniformly inside dom.
func placeRange(rng *rand.Rand, dom Range, share float64) Range {
	size := int64(dom.Upper) - int64(dom.Lower)
	w := max(int64(share*float64(size)), 2)
	start := int64(dom.Lower) + rng.Int64N(size-w)
	return Range{Lower: Key(start), Upper: Key(start + w)}
}

// drawRange draws a range of the workload's width distribution.
func (sp *spec) drawRange(rng *rand.Rand, dom Range) Range {
	return placeRange(rng, dom, sp.widthAt(rng.Float64()))
}

// next generates the client's next operation, entering at a uniformly random
// peer of entry.
func (g *opGen) next(entry []PeerID) op {
	o := op{via: entry[g.rng.IntN(len(entry))]}
	r := g.rng.IntN(100)
	for k := opGet; int(k) < numOps; k++ {
		if r < g.spec.mix[k] {
			o.kind = k
			break
		}
		r -= g.spec.mix[k]
	}
	switch o.kind {
	case opGet:
		// One get in eight reads back a live ephemeral key, so "readable
		// between insert ack and delete" is checked continuously.
		if len(g.live) > 0 && g.rng.IntN(8) == 0 {
			o.idx = -1
			o.key = g.live[g.rng.IntN(len(g.live))]
			return o
		}
		fallthrough
	case opPut:
		o.idx = g.rng.IntN(len(g.keys)/clients)*clients + g.client
		o.key = g.keys[o.idx]
	case opInsert, opDelete:
		// Insert and delete are equally likely; turning an insert into a
		// delete at the cap (and a delete into an insert on an empty set)
		// keeps the working set bounded without changing the long-run mix.
		if (o.kind == opInsert && len(g.live) < maxLive) || len(g.live) == 0 {
			o.kind = opInsert
			o.key = g.freshOdd()
		} else {
			o.kind = opDelete
			o.key = g.live[0]
		}
	case opRange:
		if g.rng.IntN(2) == 0 {
			o.rng = g.hot[g.rng.IntN(len(g.hot))]
		} else {
			o.rng = g.spec.drawRange(g.rng, g.dom)
		}
	}
	return o
}

// freshOdd draws an odd key of this client's residue class (k ≡ 1+2·client
// mod 2·clients) that is neither live nor of unknown state.
func (g *opGen) freshOdd() Key {
	span := (int64(g.dom.Upper) - int64(g.dom.Lower)) / (2 * clients)
	for {
		k := Key(int64(g.dom.Lower)/(2*clients)*(2*clients) + 2*clients*(1+g.rng.Int64N(span-1)) + 1 + 2*int64(g.client))
		_, live := g.liveSet[k]
		_, maybe := g.maybe[k]
		if !live && !maybe && g.dom.Contains(k) {
			return k
		}
	}
}

// inserted and deleted keep the live set in step with acknowledged ops.
func (g *opGen) inserted(k Key) {
	g.live = append(g.live, k)
	g.liveSet[k] = struct{}{}
}

func (g *opGen) deleted(k Key) {
	if len(g.live) > 0 && g.live[0] == k {
		g.live = g.live[1:]
	}
	delete(g.liveSet, k)
}

// unknown records an insert or delete of k that returned an error.
func (g *opGen) unknown(k Key) {
	g.deleted(k)
	g.maybe[k] = struct{}{}
}
