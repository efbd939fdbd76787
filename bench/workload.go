package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// spec is one workload. Every workload shares the common shape: 64 peers,
// fanout 2, 100 000 preloaded even keys with 16-byte values, two closed-loop
// clients, every op entering at a uniformly random peer, a fresh cluster, a
// warm-up, then the measured window cut into sub-windows.
type spec struct {
	name   string
	why    string
	tcp    bool // the loopback trio instead of one in-process cluster
	direct bool // RouteDirect instead of the paper's hop-by-hop RouteOverlay
	mix    mix
	// Range widths are log-uniform between these shares of the domain.
	widthLo, widthHi float64
	// churn > 0: a scheduler runs one Join, then one Depart, alternately,
	// one structural op per interval of wall time — a slower system gets the
	// same churn, not less.
	churn time.Duration
}

const (
	nKeys       = 100_000
	warmUp      = 3 * time.Second // fills route and plan cache, commits the planner's trials, opens sockets
	subWindows  = 5
	tracedSlots = 4 // traced run only: two slots with the flight recorder on, two more with spans on too
	// stablePeers of the 64 initial peers never depart, so they can serve as
	// entry points throughout mixed-churn-local; the scheduler departs only
	// the others and the peers it joined itself.
	stablePeers = 48
)

var specs = []spec{
	{
		name: "point-overlay-local",
		why:  "the paper's exact-match experiment run live: every op walks the tree hop by hop, so inbox queueing, dispatch and routing-table lookup do the work; store, codec and sockets almost none",
		mix:  mix{opGet: 90, opPut: 10},
	},
	{
		name: "point-direct-tcp",
		why:  "smallest messages, one hop, every op crossing a loopback socket once each way: wire codec, framing, correlation table and socket hand-off do the work; routing does none",
		tcp:  true, direct: true,
		mix: mix{opGet: 90, opPut: 10},
	},
	{
		name: "range-local",
		why:  "adaptive ranges from 20 items in one peer to 20 000 across 13, half from a hot set: p50 loads planner, plan cache and entry routing, p99 the B-tree scan, result copy and serial-vs-scatter choice",
		mix:  mix{opRange: 100}, widthLo: 0.0002, widthHi: 0.2,
	},
	{
		name: "range-tcp",
		why:  "the same range stream through the zero-peer client: frames up to 0.5 MB, so per-byte codec and copy cost shows where point-direct-tcp shows per-message cost",
		tcp:  true, direct: true,
		mix: mix{opRange: 100}, widthLo: 0.0002, widthHi: 0.2,
	},
	{
		name:   "mixed-churn-local",
		why:    "writes beside reads and joins/departs beside data on a fixed time schedule: handoff, tombstone forwarding, stale-route fallback, epoch bumps and replication run here and nowhere else",
		direct: true,
		mix:    mix{opGet: 60, opPut: 20, opInsert: 5, opDelete: 5, opRange: 10}, widthLo: 0.0002, widthHi: 0.02,
		churn: 250 * time.Millisecond,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// runConfig is one run of one workload.
type runConfig struct {
	sp      *spec
	seed    int64
	seconds float64 // measured time, all slots together
	warmUp  time.Duration
	trace   bool
	keys    int
	setups  int // set-ups timed (the last one is kept and used)
	layers  layerSizes
	outDir  string
}

// runResult is what one run reports.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Wrong     int64            `json:"wrong"` // answers the oracle rejected, and failed audits; part of Failed
	Unstable  bool             `json:"unstable,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	order     []string
	problems  []string
}

// slotStats is what one client records in one slot of the timeline.
type slotStats struct {
	lat       [numOps]hist
	attempted int64
	failed    int64
	items     int64
}

type clientState struct {
	gen      *opGen
	slots    []slotStats
	hops     [64]int64 // client ops by hop count, plain slots only
	wrong    int64
	problems []string
}

type run struct {
	cfg    runConfig
	sut    *sut
	orc    *oracle
	tr     *tracer
	entry  []PeerID
	start  time.Time // start of slot 0
	slot   time.Duration
	nSlots int
	cl     [clients]*clientState
}

// runWorkload sets the workload up, warms it, measures it and checks it.
func runWorkload(cfg runConfig) (*runResult, error) {
	dom := fullDomain()
	keys := genKeys(cfg.seed, cfg.keys, dom)
	items := preloadItems(keys)
	res := &runResult{Workload: cfg.sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]value{}}
	var ms metricSet

	// Set-up, timed: several times over, so that its median is steady enough
	// to guard — work moved out of the measured window into set-up shows here.
	var s *sut
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = newSUT(cfg.sp, items); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { s.stop() }()

	r := &run{cfg: cfg, sut: s, orc: newOracle(keys), nSlots: subWindows}
	r.entry = s.peerIDs()
	if cfg.sp.churn > 0 {
		r.entry = r.entry[:stablePeers*len(r.entry)/peers]
	}
	var pr *probes
	if cfg.trace {
		res.Trace = 1
		r.nSlots += tracedSlots
		var err error
		if pr, err = newProbes(cfg.seed, items); err != nil {
			return nil, err
		}
		defer pr.close()
		if err := pr.measure(cfg.sp, cfg.seed, keys, items, cfg.layers, &ms); err != nil {
			return nil, err
		}
	}
	r.slot = time.Duration(cfg.seconds / float64(r.nSlots) * float64(time.Second))
	for c := range r.cl {
		r.cl[c] = &clientState{gen: newOpGen(cfg.seed, c, cfg.sp, keys, dom), slots: make([]slotStats, r.nSlots)}
	}
	runtime.GC()

	// The timeline: warm-up, then nSlots equal slots. Clients place each op
	// by the time it completed; the controller reads the program's counters
	// at the slot boundaries.
	begin := time.Now()
	r.start = begin.Add(cfg.warmUp)
	end := r.start.Add(time.Duration(r.nSlots) * r.slot)
	if cfg.trace {
		r.tr = newTracer(s, cfg.sp, pr, begin)
	}
	var wg sync.WaitGroup
	for c := range r.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.client(c)
		}()
	}
	var ch *churner
	if cfg.sp.churn > 0 {
		ch = startChurn(s, r.tr, cfg.sp.churn, cfg.seed, r.entry, r.start, end)
	}
	msgs := make([]int64, r.nSlots+1)
	var c0, c1 counters
	var m0, m1 runtime.MemStats
	var cpu0, cpu1 time.Duration
	for i := 0; i <= r.nSlots; i++ {
		time.Sleep(time.Until(r.start.Add(time.Duration(i) * r.slot)))
		msgs[i] = s.messages()
		switch i {
		case 0:
			c0 = s.counters()
			runtime.ReadMemStats(&m0)
			cpu0 = cpuTime()
		case subWindows:
			c1 = s.counters()
			runtime.ReadMemStats(&m1)
			cpu1 = cpuTime()
			if cfg.trace {
				s.setTraceSampling(spanEvery)
			}
		case subWindows + tracedSlots/2:
			r.tr.on.Store(true)
		}
	}
	wg.Wait()
	if ch != nil {
		ch.wait()
	}
	s.setTraceSampling(0)

	// Live heap, cluster still up.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	r.finalCheck(res)

	// The five plain slots carry the metrics; the traced slots only their
	// throughput, for the overheads.
	var slots [subWindows]slotStats
	for i := range slots {
		slots[i] = r.merge(i, i+1)
	}
	plain := r.merge(0, subWindows)
	if plain.attempted == plain.failed {
		return nil, fmt.Errorf("no op completed in the measured window (%d attempted; problems: %v)", plain.attempted, res.problems)
	}
	var rates []float64
	for i := range slots {
		rates = append(rates, float64(slots[i].attempted-slots[i].failed)/r.slot.Seconds())
	}
	wcv := cv(rates)
	res.Unstable = wcv > 0.10
	secs := (subWindows * r.slot).Seconds()
	if cfg.trace {
		r.layerMetrics(&ms, &plain, c1.since(c0), secs, wcv,
			float64(m1.Mallocs-m0.Mallocs), (cpu1 - cpu0).Seconds(), ch)
		name, err := r.tr.write(cfg.outDir, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", name)
	} else {
		endToEndMetrics(&ms, &plain, slots[:], rates, secs, msgs)
		ms.set("setup_s", "s", median(setups), int64(len(setups)), setups...)
		ms.set("live_heap_mb", "MB", float64(mem.HeapAlloc)/(1<<20), 1)
		ms.set("bench.window_cv", "share", wcv, subWindows)
	}

	total := r.merge(0, r.nSlots)
	res.Attempted += total.attempted
	res.Failed += total.failed
	if ch != nil {
		res.Attempted += ch.attempted
		res.Failed += ch.failed
		res.problems = append(res.problems, ch.problems...)
	}
	res.Metrics, res.order = ms.m, ms.names
	return res, nil
}

// finalCheck runs after the clients have stopped: the program's own audits,
// then a full-domain range against the whole model. A failure counts as a
// wrong answer.
func (r *run) finalCheck(res *runResult) {
	var live []Key
	maybe := map[Key]struct{}{}
	for _, cl := range r.cl {
		live = append(live, cl.gen.live...)
		for k := range cl.gen.maybe {
			maybe[k] = struct{}{}
		}
		res.Wrong += cl.wrong // already among the slots' failed ops
		res.problems = append(res.problems, cl.problems...)
	}
	err := r.sut.audit()
	if err == nil {
		var all []Item
		if all, _, err = r.sut.rangeQuery(r.entry[0], fullDomain()); err == nil {
			err = r.orc.checkFinal(all, live, maybe)
		}
	}
	if err != nil {
		res.Wrong++
		res.Failed++
		res.problems = append(res.problems, fmt.Sprintf("closing audit: %v", err))
	}
}

// endToEndMetrics derives the client-observed metrics of the untraced run:
// whole-window values, with the sub-windows' values beside them as the run's
// own spread.
func endToEndMetrics(ms *metricSet, plain *slotStats, slots []slotStats, rates []float64, secs float64, msgs []int64) {
	done := plain.attempted - plain.failed
	ms.set("ops_per_s", "1/s", float64(done)/secs, done, rates...)
	// Latency over all ops (the two metrics every workload has), then by op
	// type where the type occurs.
	latency := func(prefix string, pick func(a *slotStats) *hist) {
		h := pick(plain)
		for _, p := range []float64{50, 99} {
			v, ok := h.percentile(p)
			if !ok {
				continue
			}
			var w []float64
			for i := range slots {
				if sv, ok := pick(&slots[i]).percentile(p); ok {
					w = append(w, sv/1e3)
				}
			}
			ms.set(fmt.Sprintf("%s_p%.0f_us", prefix, p), "us", v/1e3, int64(h.n), w...)
		}
	}
	latency("op", (*slotStats).all)
	latency("get", func(a *slotStats) *hist { return &a.lat[opGet] })
	latency("put", func(a *slotStats) *hist { return &a.lat[opPut] })
	latency("range", func(a *slotStats) *hist { return &a.lat[opRange] })
	var w []float64
	for i := range slots {
		if slots[i].attempted > 0 {
			w = append(w, float64(msgs[i+1]-msgs[i])/float64(slots[i].attempted))
		}
	}
	ms.set("msgs_per_op", "count", float64(msgs[len(slots)]-msgs[0])/float64(plain.attempted), plain.attempted, w...)
	ms.set("fail_share", "share", float64(plain.failed)/float64(plain.attempted), plain.attempted)
}

// all merges a slot's per-type histograms.
func (a *slotStats) all() *hist {
	h := new(hist)
	for k := range a.lat {
		h.merge(&a.lat[k])
	}
	return h
}

// merge adds up both clients' slots [from, to).
func (r *run) merge(from, to int) slotStats {
	var out slotStats
	for _, cl := range r.cl {
		for i := from; i < to; i++ {
			s := &cl.slots[i]
			for k := range s.lat {
				out.lat[k].merge(&s.lat[k])
			}
			out.attempted += s.attempted
			out.failed += s.failed
			out.items += s.items
		}
	}
	return out
}

// client is one closed-loop client: it sends its next op when the previous
// one has returned. Everything but the call itself — generating the op,
// building the value, the oracle, the spans — happens outside the timed
// interval.
func (r *run) client(c int) {
	cl := r.cl[c]
	total := time.Duration(r.nSlots) * r.slot
	for {
		o := cl.gen.next(r.entry)
		var val []byte
		if o.kind == opPut {
			val = encodeValue(o.key, r.orc.nextVersion(o.idx))
		} else if o.kind == opInsert {
			val = encodeValue(o.key, 1)
		}
		keep, force := false, false
		if r.tr != nil && r.tr.on.Load() {
			keep, force = r.tr.begin(c, o.kind)
		}

		var (
			got   []byte
			found bool
			hops  int
			items []Item
			err   error
		)
		t0 := time.Now()
		switch o.kind {
		case opGet:
			got, found, hops, err = r.sut.get(o.via, o.key)
		case opPut, opInsert:
			hops, err = r.sut.put(o.via, o.key, val)
		case opDelete:
			found, hops, err = r.sut.del(o.via, o.key)
		case opRange:
			items, hops, err = r.sut.rangeQuery(o.via, o.rng)
		}
		t1 := time.Now()

		if keep {
			r.tr.end(c, &o, t0, t1, hops, len(items), err, force)
		}
		var wrong error
		if err == nil {
			switch o.kind {
			case opGet:
				if o.idx >= 0 {
					wrong = r.orc.checkGet(o.idx, got, found)
				} else {
					wrong = checkEphemeral(o.key, got, found)
				}
			case opPut:
				r.orc.putAcked(o.idx)
			case opInsert:
				cl.gen.inserted(o.key)
			case opDelete:
				cl.gen.deleted(o.key)
				if !found {
					wrong = fmt.Errorf("delete %d: acknowledged insert not found", o.key)
				}
			case opRange:
				wrong = r.orc.checkRange(o.rng, items)
			}
		} else if o.kind == opInsert || o.kind == opDelete {
			cl.gen.unknown(o.key) // applied or not: stop reading it back
		}
		if wrong != nil {
			cl.wrong++
		}
		if (wrong != nil || err != nil) && len(cl.problems) < 5 {
			cl.problems = append(cl.problems, fmt.Sprintf("client %d %s: %v", c+1, opNames[o.kind], errors.Join(err, wrong)))
		}

		off := t1.Sub(r.start)
		if off >= total {
			return
		}
		if off < 0 {
			continue // warm-up: checked, not recorded
		}
		i := int(off / r.slot)
		st := &cl.slots[i]
		st.attempted++
		if err != nil || wrong != nil {
			st.failed++ // a failed op also misses every latency
			continue
		}
		st.lat[o.kind].add(t1.Sub(t0).Nanoseconds())
		st.items += int64(len(items))
		if i < subWindows {
			cl.hops[min(hops, len(cl.hops)-1)]++
		}
	}
}

// layerMetrics derives the p2p, query, obs and bench layer metrics of the
// traced run from the plain slots' counter deltas and the traced slots'
// throughput.
func (r *run) layerMetrics(ms *metricSet, plain *slotStats, iv interval, secs, wcv, mallocs, cpuSecs float64, ch *churner) {
	ops := float64(plain.attempted)
	n := plain.attempted
	ms.set("p2p.queue_wait_us_mean", "us", iv.queueWaitMeanNs/1e3, iv.delivered)
	ms.set("p2p.handle_us_mean", "us", iv.handleMeanNs/1e3, iv.delivered)
	var hopOps, seen int64
	for _, cl := range r.cl {
		for _, k := range cl.hops {
			hopOps += k
		}
	}
	for h := range r.cl[0].hops {
		for _, cl := range r.cl {
			seen += cl.hops[h]
		}
		if seen*2 >= hopOps {
			ms.set("p2p.hops_p50", "count", float64(h), hopOps)
			break
		}
	}
	share := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	ms.set("p2p.spilled_share", "share", share(iv.spilled, iv.delivered), iv.delivered)
	ms.set("p2p.refused_share", "share", share(iv.refused, iv.delivered), iv.delivered)
	ms.set("p2p.stale_route_share", "share", share(iv.stale, n), n)
	ms.set("p2p.allocs_per_op", "count", mallocs/ops, n)
	ms.set("p2p.cpu_us_per_op", "us", cpuSecs*1e6/ops, n)
	if rn := int64(plain.lat[opRange].n); rn > 0 {
		ms.set("p2p.range_items_per_s", "1/s", float64(plain.items)/secs, rn)
		planned := iv.planSerial + iv.planParallel
		ms.set("query.cache_hit_share", "share", share(iv.planHits, planned), planned)
		ms.set("query.serial_share", "share", share(iv.planSerial, planned), planned)
	}
	if ch != nil {
		ch.metrics(ms)
	}
	// Overheads: the recorder alone against the plain slots, the spans on
	// top of the recorder against the recorder alone.
	rate := func(from, to int) float64 {
		a := r.merge(from, to)
		return float64(a.attempted-a.failed) / (time.Duration(to-from) * r.slot).Seconds()
	}
	plainRate := rate(0, subWindows)
	recRate := rate(subWindows, subWindows+tracedSlots/2)
	spanRate := rate(subWindows+tracedSlots/2, r.nSlots)
	ms.set("obs.trace_overhead_share", "share", 1-recRate/plainRate, n)
	ms.set("bench.window_cv", "share", wcv, subWindows)
	ms.set("bench.span_overhead_share", "share", 1-spanRate/recRate, n)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// churner runs mixed-churn-local's structural schedule.
type churner struct {
	done      chan struct{}
	attempted int64
	failed    int64
	problems  []string
	sut       *sut
	firstSeq  int64 // journal entries after this one belong to the measured slots
}

// startChurn starts the scheduler: structural op k is due k intervals after
// the start, whatever the earlier ones took. It runs through the warm-up too,
// so the measured window sees the steady state. Ops before measureFrom are
// not counted. While tr's traced window is open, each op leaves a root span.
func startChurn(s *sut, tr *tracer, every time.Duration, seed int64, stable []PeerID, measureFrom, end time.Time) *churner {
	ch := &churner{done: make(chan struct{}), sut: s}
	rng := newRand(seed, 5)
	isStable := make(map[PeerID]bool, len(stable))
	for _, id := range stable {
		isStable[id] = true
	}
	var volatile []PeerID
	for _, id := range s.peerIDs() {
		if !isStable[id] {
			volatile = append(volatile, id)
		}
	}
	began := time.Now()
	go func() {
		defer close(ch.done)
		for k := 1; ; k++ {
			due := began.Add(time.Duration(k) * every)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			measured := !time.Now().Before(measureFrom)
			if measured && ch.firstSeq == 0 {
				if evs := s.structuralOps(); len(evs) > 0 {
					ch.firstSeq = evs[len(evs)-1].seq
				} else {
					ch.firstSeq = -1
				}
			}
			var err error
			name, via, t0 := "join", PeerID(0), time.Now()
			if k%2 == 1 {
				via = stable[rng.IntN(len(stable))]
				var id PeerID
				if id, err = s.join(via); err == nil {
					volatile = append(volatile, id)
				}
			} else {
				i := rng.IntN(len(volatile))
				name, via = "depart", volatile[i]
				if err = s.depart(via); err == nil {
					volatile[i] = volatile[len(volatile)-1]
					volatile = volatile[:len(volatile)-1]
				}
			}
			if tr != nil && tr.on.Load() {
				tr.structuralOp(name, via, t0, time.Now(), err)
			}
			if measured {
				ch.attempted++
				if err != nil {
					ch.failed++
					ch.problems = append(ch.problems, fmt.Sprintf("structural op %d: %v", k, err))
				}
			}
		}
	}()
	return ch
}

func (ch *churner) wait() { <-ch.done }

// metrics reads the measured joins and departs back from the coordinator's
// journal.
func (ch *churner) metrics(ms *metricSet) {
	var join, depart hist
	var moved, joins int64
	for _, ev := range ch.sut.structuralOps() {
		if ev.seq <= ch.firstSeq || !ev.ok {
			continue
		}
		switch ev.op {
		case "join":
			join.add(ev.duration.Nanoseconds())
			moved += int64(ev.migrated)
			joins++
		case "depart":
			depart.add(ev.duration.Nanoseconds())
		}
	}
	// Structural ops are few: report the median whatever the count, with it.
	if joins > 0 {
		ms.set("p2p.join_ms_p50", "ms", join.quantile(50)/1e6, joins)
		ms.set("p2p.items_moved_per_join", "count", float64(moved)/float64(joins), joins)
	}
	if depart.n > 0 {
		ms.set("p2p.depart_ms_p50", "ms", depart.quantile(50)/1e6, int64(depart.n))
	}
}
