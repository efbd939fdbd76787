package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own spans, recorded from here around the calls into the
// program (spans inside it are a later change). In the traced window every
// client op is counted; one op in spanEvery per client is retained as a root
// span and then replayed against the isolated layers for child spans that
// share its op id. A child's interval is that of its replay — it lies after
// the root's — so self time is taken by duration: the root minus its
// children is what internal/p2p itself spent (queues, dispatch, routing,
// codec, sockets).

const (
	spanEvery = 64 // retain 1 op in 64 per client
	// mergeEvery: of the retained ops, 1 in 16 is additionally forced through
	// the flight recorder so its hop chain can be merged under the root span.
	// The recorder keeps no op id, so a forced op costs two ring snapshots;
	// at 1 in 1024 ops that stays under 1 % of the traced window.
	mergeEvery = 16
)

type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the run's start
	EndNs   int64  `json:"end_ns"`
	// Root spans only.
	Client int    `json:"client,omitempty"`
	Via    PeerID `json:"via,omitempty"`
	Hops   int    `json:"hops,omitempty"`
	Items  int    `json:"items,omitempty"`
	Err    string `json:"err,omitempty"`
	// Children only: the span times a replay against an isolated layer, or
	// repeats a hop record of the program's flight recorder.
	Replay      bool  `json:"replay,omitempty"`
	Peer        int64 `json:"peer,omitempty"`
	Level       int   `json:"level,omitempty"`
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
}

type tracer struct {
	on     atomic.Bool // the traced window is open
	start  time.Time
	nextID atomic.Int64
	sut    *sut
	sp     *spec
	pr     *probes

	// forceMu serialises ops forced through the recorder: two clients
	// toggling its sampling rate would undo each other.
	forceMu sync.Mutex
	seen    map[uint64]struct{} // fingerprints of recorder chains already attributed

	perClient [clients]clientTrace
	// structural holds the root spans of the churn scheduler's joins and
	// departs; only its goroutine appends, and write runs after it has ended.
	structural []span
}

type clientTrace struct {
	ops   int64
	spans []span
	// counts by root span name, taken on every op of the traced window.
	counts [numOps]int64
	selfNs [numOps]float64
	kept   [numOps]int64
	merged int64 // recorder chains merged under a root span
	_      [64]byte
}

func newTracer(s *sut, sp *spec, pr *probes, start time.Time) *tracer {
	return &tracer{sut: s, sp: sp, pr: pr, start: start, seen: make(map[uint64]struct{})}
}

// begin is called before the timed interval of every op once the traced
// window is open. It reports whether the op is retained and whether it is
// also forced through the flight recorder (in which case forceMu is held
// until end).
func (t *tracer) begin(c int, k opKind) (keep, force bool) {
	ct := &t.perClient[c]
	ct.ops++
	ct.counts[k]++
	if ct.ops%spanEvery != 0 {
		return false, false
	}
	if k != opRange && !t.sp.tcp && (ct.ops/spanEvery)%mergeEvery == 0 {
		t.forceMu.Lock()
		t.markSeen()
		t.sut.setTraceSampling(1)
		return true, true
	}
	return true, false
}

// end records the root span of a retained op and replays the op against the
// isolated layers. It runs after the timed interval.
func (t *tracer) end(c int, o *op, t0, t1 time.Time, hops, items int, opErr error, force bool) {
	ct := &t.perClient[c]
	root := span{
		ID: t.nextID.Add(1), Name: "op." + opNames[o.kind],
		StartNs: t0.Sub(t.start).Nanoseconds(), EndNs: t1.Sub(t.start).Nanoseconds(),
		Client: c + 1, Via: o.via, Hops: hops, Items: items,
	}
	root.Op = root.ID
	if opErr != nil {
		root.Err = opErr.Error()
	}
	ct.spans = append(ct.spans, root)
	if force {
		t.sut.setTraceSampling(spanEvery)
		t.mergeRecorder(ct, &root, o)
		t.forceMu.Unlock()
	}
	var children time.Duration
	child := func(name string, fn func()) {
		s0 := time.Now()
		fn()
		s1 := time.Now()
		children += s1.Sub(s0)
		ct.spans = append(ct.spans, span{
			ID: t.nextID.Add(1), Parent: root.ID, Op: root.Op, Name: name, Replay: true,
			StartNs: s0.Sub(t.start).Nanoseconds(), EndNs: s1.Sub(t.start).Nanoseconds(),
		})
	}
	stores := t.pr.replay[c] // this client's own
	own := stores.at(o.key)  // point ops: the store the key would live in
	if !t.sp.direct && o.kind != opRange {
		child("core.route", func() { _, _ = t.pr.core.route(o.via, o.key) })
	}
	switch o.kind {
	case opGet:
		child("store.get", func() { own.get(o.key) })
	case opPut:
		// The replay writes the preloaded value back, so the probe store
		// stays what later replays expect.
		if v, ok := own.get(o.key); ok {
			child("store.put", func() { own.put(o.key, v) })
		}
	case opInsert:
		child("store.put", func() { own.put(o.key, echoPayload[:valueLen]) })
		own.del(o.key)
	case opDelete:
		own.put(o.key, echoPayload[:valueLen])
		child("store.delete", func() { own.del(o.key) })
	case opRange:
		child("query.choose", func() { t.pr.query.choose(t.sut.estimateSpan(o.rng), t1.Sub(t0).Nanoseconds()) })
		child("store.scan", func() { replayBuf[c] = stores.scan(replayBuf[c][:0], o.rng) })
	}
	if t.sp.tcp {
		// One frame out, one back, of the size this op's answer has on the wire.
		size := 64
		if o.kind == opRange {
			size = min(items*(valueLen+12)+64, 1<<20)
		}
		child("transport.echo", func() { _, _ = t.pr.echo.roundTrip(echoPayload[:size]) })
	}
	if self := t1.Sub(t0) - children; self > 0 {
		ct.selfNs[o.kind] += float64(self.Nanoseconds())
	}
	ct.kept[o.kind]++
}

// structuralOp records the root span of a join (via is the peer asked to
// take the newcomer) or a depart (via is the peer that leaves). Every one is
// retained: the scheduler makes four a second.
func (t *tracer) structuralOp(name string, via PeerID, t0, t1 time.Time, opErr error) {
	s := span{
		ID: t.nextID.Add(1), Name: "op." + name, Via: via,
		StartNs: t0.Sub(t.start).Nanoseconds(), EndNs: t1.Sub(t.start).Nanoseconds(),
	}
	s.Op = s.ID
	if opErr != nil {
		s.Err = opErr.Error()
	}
	t.structural = append(t.structural, s)
}

var (
	replayBuf   [clients][]Item
	echoPayload = make([]byte, 1<<20)
)

func chainPrint(chain []Hop) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * 1099511628211 }
	for _, hop := range chain {
		mix(hop.Peer)
		mix(int64(hop.Level))
		mix(hop.QueueWaitNs)
		mix(hop.HandleNs)
	}
	return h
}

// markSeen fingerprints the chains already in the recorder's ring, so that
// after the forced op only new ones are candidates.
func (t *tracer) markSeen() {
	for _, ch := range t.sut.traces() {
		t.seen[chainPrint(ch)] = struct{}{}
	}
}

// mergeRecorder finds the forced op's hop chain among the recorder's new
// chains and writes its hops as children of the root span. The recorder's
// records carry kind, hop count and peers but no op id; a chain is taken
// only if it is the single new one that fits, because an op of the other
// client may have been sampled in the same instant. Requests to peers on
// another node leave no chain at all: trace pointers do not cross the wire.
func (t *tracer) mergeRecorder(ct *clientTrace, root *span, o *op) {
	var match []Hop
	matches := 0
	for _, ch := range t.sut.traces() {
		fp := chainPrint(ch)
		if _, old := t.seen[fp]; old {
			continue
		}
		t.seen[fp] = struct{}{}
		if len(ch) == 0 || ch[len(ch)-1].Kind != recorderKind[o.kind] {
			continue
		}
		if !t.sp.direct && PeerID(ch[0].Peer) != o.via {
			continue
		}
		match = ch
		matches++
	}
	if matches != 1 {
		return
	}
	ct.merged++
	at := root.StartNs
	for _, h := range match {
		ct.spans = append(ct.spans, span{
			ID: t.nextID.Add(1), Parent: root.ID, Op: root.Op, Name: "recorder." + h.Kind,
			StartNs: at + h.QueueWaitNs, EndNs: at + h.QueueWaitNs + h.HandleNs,
			Peer: h.Peer, Level: h.Level, QueueWaitNs: h.QueueWaitNs,
		})
		at += h.QueueWaitNs + h.HandleNs
	}
}

// recorderKind is the flight recorder's name for each client op's message.
var recorderKind = [numOps]string{opGet: "GET", opPut: "PUT", opInsert: "PUT", opDelete: "DELETE"}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Note     string             `json:"note"`
	Counts   map[string]int64   `json:"counts"`      // every op of the traced window, by root span name
	SelfUs   map[string]float64 `json:"p2p_self_us"` // mean over retained ops: root minus replayed children
	Merged   int64              `json:"recorder_chains_merged"`
	Spans    []span             `json:"spans"`
}

// write merges the clients' spans and writes them out; it returns the file
// name. Called once, when the workload has ended.
func (t *tracer) write(dir string, seed int64) (string, error) {
	f := traceFile{
		Workload: t.sp.name, Seed: seed,
		Note:   "root spans time client calls; children with replay=true time the same op replayed against an isolated layer after the root ended; recorder.* children repeat the program's own hop records",
		Counts: map[string]int64{},
		SelfUs: map[string]float64{},
	}
	for c := range t.perClient {
		ct := &t.perClient[c]
		f.Spans = append(f.Spans, ct.spans...)
		f.Merged += ct.merged
		for k := range opNames {
			if ct.counts[k] > 0 {
				f.Counts["op."+opNames[k]] += ct.counts[k]
			}
		}
	}
	f.Spans = append(f.Spans, t.structural...)
	for _, s := range t.structural {
		f.Counts[s.Name]++
	}
	for k := range opNames {
		var ns float64
		var n int64
		for c := range t.perClient {
			ns += t.perClient[c].selfNs[k]
			n += t.perClient[c].kept[k]
		}
		if n > 0 {
			f.SelfUs["op."+opNames[k]] = ns / float64(n) / 1e3
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("trace-%s.json", t.sp.name))
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, append(data, '\n'), 0o644)
}
