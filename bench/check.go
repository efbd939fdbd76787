package main

import (
	"fmt"
	"sort"
)

// The correctness oracle. It holds the benchmark's model of what the cluster
// must contain and judges every answer against it, outside the timed
// interval of the op. An answer it rejects is a *wrong answer*: it counts as
// a failed op and additionally makes the command exit non-zero.
//
// Preloaded keys are partitioned among the clients (index mod clients) and
// ephemeral keys by residue class, so each piece of per-key state has one
// writer and the checks need no lock.

type oracle struct {
	keys []Key // sorted, all even; the stationary key set
	// acked[i] is the highest version of keys[i] whose put was acknowledged;
	// tried[i] the highest version ever sent. They differ only after a put
	// that returned an error and may or may not have been applied.
	acked, tried []uint64
}

func newOracle(keys []Key) *oracle {
	o := &oracle{keys: keys, acked: make([]uint64, len(keys)), tried: make([]uint64, len(keys))}
	for i := range keys {
		o.acked[i], o.tried[i] = 1, 1
	}
	return o
}

// nextVersion reserves the version a put of keys[i] will write.
func (o *oracle) nextVersion(i int) uint64 {
	o.tried[i]++
	return o.tried[i]
}

func (o *oracle) putAcked(i int) { o.acked[i] = o.tried[i] }

// checkGet judges the answer to a get of preloaded key keys[i]: present, a
// value that decodes to its own key, and a version no older than the last
// acknowledged put and no newer than the last one sent.
func (o *oracle) checkGet(i int, value []byte, found bool) error {
	return checkValue(o.keys[i], value, found, o.acked[i], o.tried[i])
}

// checkEphemeral judges a get of a live ephemeral key: it must be readable
// between its insert ack and its delete.
func checkEphemeral(k Key, value []byte, found bool) error {
	return checkValue(k, value, found, 1, 1)
}

func checkValue(k Key, value []byte, found bool, minVer, maxVer uint64) error {
	if !found {
		return fmt.Errorf("get %d: not found", k)
	}
	gk, ver, ok := decodeValue(value)
	if !ok {
		return fmt.Errorf("get %d: value of %d bytes", k, len(value))
	}
	if gk != k {
		return fmt.Errorf("get %d: value belongs to key %d", k, gk)
	}
	if ver < minVer || ver > maxVer {
		return fmt.Errorf("get %d: version %d outside [%d, %d]", k, ver, minVer, maxVer)
	}
	return nil
}

// expected is the number of preloaded keys inside r, from the sorted array.
func (o *oracle) expected(r Range) int {
	lo := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= r.Lower })
	hi := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= r.Upper })
	return hi - lo
}

// checkRange judges a range answer: sorted, inside its bounds, every value
// its own key's, and exactly the expected number of preloaded (even) keys.
// Odd keys are other clients' ephemerals and may come and go.
func (o *oracle) checkRange(r Range, items []Item) error {
	even := 0
	for i, it := range items {
		if !r.Contains(it.Key) {
			return fmt.Errorf("range %v: key %d outside the bounds", r, it.Key)
		}
		if i > 0 && items[i-1].Key >= it.Key {
			return fmt.Errorf("range %v: keys %d, %d out of order", r, items[i-1].Key, it.Key)
		}
		if gk, _, ok := decodeValue(it.Value); !ok || gk != it.Key {
			return fmt.Errorf("range %v: key %d carries a foreign value", r, it.Key)
		}
		if it.Key%2 == 0 {
			even++
		}
	}
	if want := o.expected(r); even != want {
		return fmt.Errorf("range %v: %d preloaded keys, want %d", r, even, want)
	}
	return nil
}

// checkFinal compares a full-domain range, taken after the clients have
// stopped, with the whole model: every preloaded key at a version the oracle
// allows, plus exactly the ephemeral keys still live. The keys in maybe, whose
// insert or delete returned an error, may be there or not.
func (o *oracle) checkFinal(items []Item, live []Key, maybe map[Key]struct{}) error {
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	i, l := 0, 0
	for _, it := range items {
		if it.Key%2 == 0 {
			if i >= len(o.keys) || o.keys[i] != it.Key {
				return fmt.Errorf("final: unexpected preloaded key %d", it.Key)
			}
			if err := o.checkGet(i, it.Value, true); err != nil {
				return fmt.Errorf("final: %w", err)
			}
			i++
			continue
		}
		if err := checkEphemeral(it.Key, it.Value, true); err != nil {
			return fmt.Errorf("final: %w", err)
		}
		if _, ok := maybe[it.Key]; ok {
			continue
		}
		if l >= len(live) || live[l] != it.Key {
			return fmt.Errorf("final: ephemeral key %d is present but not live", it.Key)
		}
		l++
	}
	if i != len(o.keys) || l != len(live) {
		return fmt.Errorf("final: %d of %d preloaded and %d of %d live ephemeral keys present", i, len(o.keys), l, len(live))
	}
	return nil
}
