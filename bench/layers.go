package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"
)

// Per-layer probes: each of the program's packages alone, driven from here
// through its public functions with the workload's own inputs, so that an
// end-to-end number can be read against the parts it is made of. Spans
// inside the program are a later change; until then this is what "the store
// costs 0.1 µs of a 3 µs get" rests on.

// probes holds the isolated layers. They are measured before the workload
// warms up and stay alive through the traced window, where sampled client
// ops are replayed against them for their child spans.
type probes struct {
	share      storeProbe // one peer's share of the keys: the store layer metrics
	shareStart int        // index of the share's first key in the sorted key array
	// replay is what the traced window's ops are replayed against, one set
	// per client: a store has no lock, and put, insert and delete replays
	// change the tree.
	replay [clients]replayStores
	core   coreProbe
	query  queryProbe
	echo   *echoProbe
}

// layerSizes scales the probes: how long each timed loop runs and how many
// ops the exact-count core replay makes. The test uses the minimum.
type layerSizes struct {
	loop       time.Duration // per timed metric
	coreOps    int           // exact and insert replays; ranges are coreOps/20, join/leave pairs coreOps/100
	directGets time.Duration // the in-process direct-get pin
}

var fullLayers = layerSizes{loop: 120 * time.Millisecond, coreOps: 10000, directGets: 500 * time.Millisecond}

func newProbes(seed int64, items []Item) (*probes, error) {
	n := len(items) / peers
	start := newRand(seed, 3).IntN(len(items) - n)
	p := &probes{
		share:      newStoreProbe(items[start : start+n]),
		shareStart: start,
		query:      newQueryProbe(),
	}
	for c := range p.replay {
		p.replay[c] = newReplayStores(items)
	}
	var err error
	if p.core, err = newCoreProbe(items); err != nil {
		return nil, err
	}
	if p.echo, err = newEchoProbe(); err != nil {
		return nil, fmt.Errorf("echo probe: %w", err)
	}
	return p, nil
}

func (p *probes) close() { p.echo.close() }

// replayStores holds every preloaded key, cut into as many contiguous shares
// as there are peers with a store each, so that a replayed op meets a store
// of the size a peer's is. (One store of 100 000 keys answers a get in 2 µs
// and a delete in 200 µs, where a peer's answers in 0.1 µs and 2 µs.)
type replayStores struct {
	first  []Key // first key of each share
	shares []storeProbe
}

func newReplayStores(items []Item) replayStores {
	var r replayStores
	for i := 0; i < peers; i++ {
		share := items[i*len(items)/peers : (i+1)*len(items)/peers]
		r.first = append(r.first, share[0].Key)
		r.shares = append(r.shares, newStoreProbe(share))
	}
	return r
}

// at returns the store whose share of the key space k falls into.
func (r replayStores) at(k Key) storeProbe {
	i := sort.Search(len(r.first), func(i int) bool { return r.first[i] > k })
	return r.shares[max(i-1, 0)]
}

// scan appends the items inside rg, share by share as a range query visits
// peer after peer.
func (r replayStores) scan(dst []Item, rg Range) []Item {
	for i, s := range r.shares {
		if i+1 < len(r.first) && r.first[i+1] <= rg.Lower {
			continue
		}
		if r.first[i] >= rg.Upper {
			break
		}
		dst = s.scan(dst, rg)
	}
	return dst
}

func (r replayStores) len() (n int) {
	for _, s := range r.shares {
		n += s.len()
	}
	return n
}

// timeLoop calls fn(batch) again and again for about d and returns the
// median over the calls of ns per unit, where fn reports how many units
// (ops, items) the call processed. Timing a batch rather than an op keeps
// the clock's own ≈ 25 ns out of a 50 ns operation.
func timeLoop(d time.Duration, fn func() (units int)) (nsPerUnit float64, total int64) {
	var per []float64
	for end := time.Now().Add(d); ; {
		t0 := time.Now()
		u := fn()
		el := time.Since(t0)
		if u > 0 {
			per = append(per, float64(el.Nanoseconds())/float64(u))
			total += int64(u)
		}
		if time.Now().After(end) {
			return median(per), total
		}
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

const probeBatch = 1024

// sink keeps the compiler from discarding the probes' reads.
var sink int

// measure runs every probe and adds the layer metrics to out.
func (p *probes) measure(sp *spec, seed int64, keys []Key, items []Item, sz layerSizes, out *metricSet) error {
	// The workload's own op stream supplies the keys and range widths; a
	// workload without ranges lends the scans the narrow default.
	rsp := *sp
	if rsp.mix[opRange] == 0 {
		rsp.widthLo, rsp.widthHi = 0.0002, 0.02
	}
	rng := newRand(seed, 4)
	if err := p.measureStore(&rsp, rng, items, sz, out); err != nil {
		return err
	}
	// The timed loops above draw a different number of values each run; the
	// core replay's counts must repeat exactly, so it has a stream of its own.
	if err := p.measureCore(&rsp, newRand(seed, 6), keys, sz, out); err != nil {
		return err
	}
	p.measureQuery(&rsp, rng, sz, out)
	if err := p.measureTransport(sz, out); err != nil {
		return err
	}
	var oh obsHist
	ns, tot := timeLoop(sz.loop, func() int {
		for i := 0; i < probeBatch; i++ {
			oh.observe(int64(i) * 37)
		}
		return probeBatch
	})
	out.set("obs.hist_observe_ns", "ns", ns, tot)
	return measureDirectGet(rng, keys, items, sz, out)
}

// measureStore times the B-tree holding one peer's share. The share is a
// contiguous run of the sorted keys, as a peer's is; the workloads draw keys
// uniformly, so uniform draws from the share are the workload's key stream
// as one peer sees it.
func (p *probes) measureStore(sp *spec, rng *rand.Rand, items []Item, sz layerSizes, out *metricSet) error {
	n, first := p.share.len(), p.shareStart
	lo, hi := items[first].Key, items[first+n-1].Key
	batch := make([]Key, probeBatch)
	for i := range batch {
		batch[i] = items[first+rng.IntN(n)].Key
	}
	ns, tot := timeLoop(sz.loop, func() int {
		for _, k := range batch {
			if v, ok := p.share.get(k); ok {
				sink += len(v)
			}
		}
		return len(batch)
	})
	out.set("store.get_ns", "ns", ns, tot)

	val := encodeValue(batch[0], 2)
	ns, tot = timeLoop(sz.loop, func() int {
		for _, k := range batch {
			p.share.put(k, val)
		}
		return len(batch)
	})
	out.set("store.put_ns", "ns", ns, tot)
	p.share.absorb(items[first : first+n]) // restore the overwritten values

	// Deletes need something to delete: each round inserts a batch of odd
	// keys untimed, then times their removal.
	odd := make([]Key, probeBatch)
	var perDelete []float64
	for end := time.Now().Add(sz.loop); time.Now().Before(end); {
		for i := range odd {
			odd[i] = lo + Key(rng.Int64N(int64(hi-lo)))/2*2 + 1
			p.share.put(odd[i], val)
		}
		t0 := time.Now()
		for _, k := range odd {
			p.share.del(k)
		}
		perDelete = append(perDelete, float64(time.Since(t0).Nanoseconds())/float64(len(odd)))
	}
	out.set("store.delete_ns", "ns", median(perDelete), int64(len(perDelete)*len(odd)))
	if p.share.len() != n {
		return fmt.Errorf("store probe: %d items after the delete loop, want %d", p.share.len(), n)
	}

	var buf []Item
	ns, tot = timeLoop(sz.loop, func() int {
		w := sp.drawRange(rng, fullDomain())
		r := Range{Lower: lo + Key(rng.Int64N(int64(hi-lo)))}
		r.Upper = min(r.Lower+(w.Upper-w.Lower), hi+1)
		buf = p.share.scan(buf[:0], r)
		return len(buf)
	})
	out.set("store.scan_ns_per_item", "ns", ns, tot)

	upper := Range{Lower: lo + (hi-lo)/2, Upper: hi + 1}
	ns, tot = timeLoop(sz.loop, func() int {
		moved := p.share.extract(upper)
		p.share.absorb(moved)
		return len(moved)
	})
	out.set("store.extract_ns_per_item", "ns", ns, tot)
	return nil
}

// measureCore replays a fixed number of ops on the message-counting
// simulator; the message counts must repeat exactly for a seed.
func (p *probes) measureCore(sp *spec, rng *rand.Rand, keys []Key, sz layerSizes, out *metricSet) error {
	ids := p.core.peerIDs()
	via := func() PeerID { return ids[rng.IntN(len(ids))] }
	// replay runs n ops, each reporting its message count, and sets the
	// layer's <name>_msgs and, when timed, <name>_ns.
	replay := func(name string, n int, timed bool, op func() (int, error)) error {
		var msgs int64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m, err := op()
			if err != nil {
				return fmt.Errorf("core probe: %s: %w", name, err)
			}
			msgs += int64(m)
		}
		if timed {
			out.set("core."+name+"_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(n), int64(n))
		}
		out.set("core."+name+"_msgs", "count", float64(msgs)/float64(n), int64(n))
		return nil
	}
	val := encodeValue(keys[0], 2)
	if err := replay("exact", sz.coreOps, true, func() (int, error) {
		m, found, err := p.core.exact(via(), keys[rng.IntN(len(keys))])
		if err == nil && !found {
			err = fmt.Errorf("preloaded key not found")
		}
		return m, err
	}); err != nil {
		return err
	}
	if err := replay("insert", sz.coreOps, true, func() (int, error) {
		return p.core.insert(via(), keys[rng.IntN(len(keys))], val)
	}); err != nil {
		return err
	}
	if err := replay("range", max(sz.coreOps/20, 1), false, func() (int, error) {
		m, _, err := p.core.rangeSearch(via(), sp.drawRange(rng, fullDomain()))
		return m, err
	}); err != nil {
		return err
	}
	// Joins and leaves in pairs, so the overlay keeps its size; only the
	// join is timed.
	var leaveMsgs int64
	var leaveErr error
	pairs := max(sz.coreOps/100, 1)
	var joinNs time.Duration
	if err := replay("join", pairs, false, func() (int, error) {
		t0 := time.Now()
		id, m, err := p.core.join(via())
		joinNs += time.Since(t0)
		if err == nil {
			var lm int
			lm, leaveErr = p.core.leave(id)
			leaveMsgs += int64(lm)
		}
		return m, errors.Join(err, leaveErr)
	}); err != nil {
		return err
	}
	out.set("core.join_ns", "ns", float64(joinNs.Nanoseconds())/float64(pairs), int64(pairs))
	out.set("core.leave_msgs", "count", float64(leaveMsgs)/float64(pairs), int64(pairs))
	return nil
}

// measureQuery times one planning decision and one plan-cache hit.
func (p *probes) measureQuery(sp *spec, rng *rand.Rand, sz layerSizes, out *metricSet) {
	span := 0
	ns, tot := timeLoop(sz.loop, func() int {
		for i := 0; i < probeBatch; i++ {
			span = span%16 + 1
			p.query.choose(span, 50_000)
		}
		return probeBatch
	})
	out.set("query.choose_ns", "ns", ns, tot)
	hot := make([]Range, hotRanges)
	for i := range hot {
		hot[i] = sp.drawRange(rng, fullDomain())
		p.query.cachePut(hot[i], 3)
	}
	ns, tot = timeLoop(sz.loop, func() int {
		for i := 0; i < probeBatch; i++ {
			if p.query.cacheGet(hot[i%hotRanges]) {
				sink++
			}
		}
		return probeBatch
	})
	out.set("query.cache_get_ns", "ns", ns, tot)
}

// measureTransport times the codec alone and the loopback echo, at the
// smallest payload and at 64 KiB.
func (p *probes) measureTransport(sz layerSizes, out *metricSet) error {
	var frame []byte
	rd := bytes.NewReader(nil)
	for _, size := range []struct {
		name string
		n    int
	}{{"64", 64}, {"64k", 64 << 10}} {
		payload := make([]byte, size.n)
		var err error
		ns, tot := timeLoop(sz.loop, func() int {
			for i := 0; i < 64 && err == nil; i++ {
				frame, err = frameRoundTrip(frame, rd, payload)
			}
			return 64
		})
		if err != nil {
			return fmt.Errorf("transport probe: frame round trip: %w", err)
		}
		out.set("transport.frame_ns_"+size.name, "ns", ns, tot)
		if size.n == 64 {
			before := mallocs()
			for i := 0; i < probeBatch; i++ {
				frame, _ = frameRoundTrip(frame, rd, payload)
			}
			out.set("transport.allocs_per_frame", "count", float64(mallocs()-before)/probeBatch, probeBatch)
		}
		var rtt hist
		for end := time.Now().Add(sz.loop); time.Now().Before(end); {
			d, err := p.echo.roundTrip(payload)
			if err != nil {
				return err
			}
			rtt.add(d.Nanoseconds())
		}
		out.set("transport.echo_rtt_us_"+size.name, "us", rtt.quantile(50)/1e3, int64(rtt.n))
	}
	frames, el, err := p.echo.pipeline(make([]byte, 64), 64, sz.loop)
	if err != nil {
		return err
	}
	out.set("transport.frames_per_s_64", "1/s", float64(frames)/el.Seconds(), frames)
	return nil
}

// measureDirectGet pins the 0-alloc fast path: one client, RouteDirect, an
// in-process cluster of its own.
func measureDirectGet(rng *rand.Rand, keys []Key, items []Item, sz layerSizes, out *metricSet) error {
	local, err := newSUT(&spec{direct: true}, items)
	if err != nil {
		return fmt.Errorf("direct-get probe: %w", err)
	}
	defer local.stop()
	ids := local.peerIDs()
	get := func(rounds int) error {
		for i := 0; i < rounds; i++ {
			k := keys[rng.IntN(len(keys))]
			if v, found, _, err := local.get(ids[rng.IntN(len(ids))], k); err != nil || checkValue(k, v, found, 1, 1) != nil {
				return fmt.Errorf("direct-get probe: get %d: found=%v err=%v", k, found, err)
			}
		}
		return nil
	}
	if err := get(probeBatch); err != nil { // warm the reply-channel pool
		return err
	}
	var gets int64
	before := mallocs()
	t0 := time.Now()
	for time.Since(t0) < sz.directGets {
		if err := get(probeBatch); err != nil {
			return err
		}
		gets += probeBatch
	}
	el := time.Since(t0)
	allocs := mallocs() - before
	out.set("p2p.direct_get_local_ns", "ns", float64(el.Nanoseconds())/float64(gets), gets)
	out.set("p2p.direct_get_local_allocs", "count", float64(allocs)/float64(gets), gets)
	return nil
}

// roundTrip sends one frame and waits for its echo. One frame is in flight
// at a time: the two clients' replays share the probe connection.
func (p *echoProbe) roundTrip(payload []byte) (time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t0 := time.Now()
	if !p.send(payload) {
		return 0, fmt.Errorf("echo probe: send refused")
	}
	p.lost.Reset(5 * time.Second) // one reused timer: a fresh one per round trip would be part of the 8 µs measured
	select {
	case <-p.replies:
		return time.Since(t0), nil
	case <-p.lost.C:
		return 0, fmt.Errorf("echo probe: no echo within 5 s")
	}
}

// pipeline keeps depth frames in flight for about d and counts the echoes.
func (p *echoProbe) pipeline(payload []byte, depth int, d time.Duration) (int64, time.Duration, error) {
	t0 := time.Now()
	inFlight := 0
	for ; inFlight < depth; inFlight++ {
		if !p.send(payload) {
			return 0, 0, fmt.Errorf("echo probe: send refused")
		}
	}
	var done int64
	timeout := time.NewTimer(d + 5*time.Second)
	defer timeout.Stop()
	for inFlight > 0 {
		select {
		case <-p.replies:
			done++
			inFlight--
			if time.Since(t0) < d && p.send(payload) {
				inFlight++
			}
		case <-timeout.C:
			return 0, 0, fmt.Errorf("echo probe: pipeline stalled with %d frames in flight", inFlight)
		}
	}
	return done, time.Since(t0), nil
}
