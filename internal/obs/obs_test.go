package obs

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	// Hop-count-sized samples must come back exact, not bucketed.
	for _, v := range []int64{1, 2, 2, 3, 3, 3, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	if got := s.Percentile(100); got != 7 {
		t.Fatalf("p100 = %d, want 7", got)
	}
	if s.Count != 7 || s.Sum != 21 {
		t.Fatalf("count/sum = %d/%d, want 7/21", s.Count, s.Sum)
	}
}

func TestHistogramLargeValuesBucketed(t *testing.T) {
	var h Histogram
	h.Observe(1_000_000) // ~1ms in ns
	s := h.Snapshot()
	p := s.Percentile(99)
	// Power-of-two bucket [2^19, 2^20) has midpoint 786432.
	if p < 500_000 || p > 2_000_000 {
		t.Fatalf("p99 = %d, want within 2x of 1e6", p)
	}
	if h.Snapshot().Percentile(50) != p {
		t.Fatalf("single-sample percentiles differ")
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if got := s.Percentile(50); got != 0 {
		t.Fatalf("p50 = %d, want 0", got)
	}
}

func TestHistogramSubAndMerge(t *testing.T) {
	var h Histogram
	h.Observe(4)
	before := h.Snapshot()
	h.Observe(4)
	h.Observe(10)
	delta := h.Snapshot().Sub(before)
	if delta.Count != 2 {
		t.Fatalf("delta count = %d, want 2", delta.Count)
	}
	if got := delta.Percentile(100); got != 10 {
		t.Fatalf("delta p100 = %d, want 10", got)
	}
	merged := delta.Merge(before)
	if merged.Count != 3 {
		t.Fatalf("merged count = %d, want 3", merged.Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i % 100)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestSamplerRate(t *testing.T) {
	var s Sampler
	for i := 0; i < 100; i++ {
		if s.Sample() {
			t.Fatal("sampler fired while disabled")
		}
	}
	s.SetEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 over 400 = %d hits, want 100", hits)
	}
	if s.Every() != 4 {
		t.Fatalf("Every = %d, want 4", s.Every())
	}
}

func TestTraceAppendAndBackfill(t *testing.T) {
	tr := NewTrace()
	i := tr.Append(Hop{Peer: 1, Kind: "GET", Level: 2, QueueWaitNs: 10})
	tr.Append(Hop{Peer: 2, Kind: "GET", Level: 3})
	tr.SetHandleNs(i, 42)
	hops := tr.Hops()
	if len(hops) != 2 || hops[0].HandleNs != 42 || hops[1].Peer != 2 {
		t.Fatalf("unexpected hops: %+v", hops)
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	r := NewTraceRing(2)
	for peer := int64(1); peer <= 3; peer++ {
		tr := NewTrace()
		tr.Append(Hop{Peer: peer})
		r.Add(tr)
	}
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("retained %d traces, want 2", len(snaps))
	}
	if snaps[0][0].Peer != 2 || snaps[1][0].Peer != 3 {
		t.Fatalf("wrong traces retained: %+v", snaps)
	}
}

func TestJournalRingAndSeq(t *testing.T) {
	j := NewJournal(2)
	for i := 0; i < 3; i++ {
		ev := Event{Op: "join", Start: time.Now(), Outcome: "ok"}
		ev.AddPhase("prepare", time.Millisecond)
		j.Record(ev)
	}
	evs := j.Events()
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want 2", len(evs))
	}
	if evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("seqs = %d,%d, want 2,3", evs[0].Seq, evs[1].Seq)
	}
	if len(evs[1].Phases) != 1 || evs[1].Phases[0].Name != "prepare" {
		t.Fatalf("phases not retained: %+v", evs[1].Phases)
	}
}

func TestPeerMetricsSnapshotAndAbsorb(t *testing.T) {
	name := func(i int) string { return map[int]string{0: "GET", 1: "PUT"}[i] }
	m := NewPeerMetrics(2)
	m.Delivered(0)
	m.Delivered(0)
	m.Delivered(1)
	m.Spilled(1)
	m.Refused(0)
	m.StaleRoute()
	m.SetQueueDepth(5)
	m.SetQueueDepth(2)
	m.ObserveQueueWait(100)
	m.ObserveHandle(200)

	s := m.Snapshot(7, name)
	if s.Peer != 7 || s.Delivered["GET"] != 2 || s.Delivered["PUT"] != 1 {
		t.Fatalf("delivered wrong: %+v", s)
	}
	if s.Spilled["PUT"] != 1 || s.Refused["GET"] != 1 || s.StaleRoutes != 1 {
		t.Fatalf("spilled/refused/stale wrong: %+v", s)
	}
	if s.QueueDepth != 2 || s.QueueHighWater != 5 {
		t.Fatalf("queue gauges wrong: %+v", s)
	}
	if s.QueueWait.Count != 1 || s.HandleTime.Count != 1 {
		t.Fatalf("histograms wrong: %+v", s)
	}

	agg := NewPeerMetrics(2)
	agg.Absorb(m)
	agg.Absorb(m)
	as := agg.Snapshot(-1, name)
	if as.Delivered["GET"] != 4 || as.StaleRoutes != 2 || as.QueueWait.Count != 2 {
		t.Fatalf("absorb wrong: %+v", as)
	}

	cm := BuildClusterMetrics([]PeerSnapshot{s}, as)
	if cm.Delivered["GET"] != 6 || cm.StaleRoutes != 3 {
		t.Fatalf("cluster totals wrong: %+v", cm)
	}
	if cm.QueueWait.Count != 3 {
		t.Fatalf("cluster queue-wait count = %d, want 3", cm.QueueWait.Count)
	}
}
