package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMetricsCounting(t *testing.T) {
	m := NewMetrics()
	m.CountMessage(MsgJoinRequest)
	m.CountMessage(MsgJoinRequest)
	m.CountMessage(MsgUpdateRouting)
	if m.TotalMessages() != 3 {
		t.Fatalf("TotalMessages = %d, want 3", m.TotalMessages())
	}
	by := m.MessagesByType()
	if by[MsgJoinRequest] != 2 || by[MsgUpdateRouting] != 1 {
		t.Fatalf("per-type counts wrong: %v", by)
	}
	// Mutating the copy must not affect the metrics.
	by[MsgJoinRequest] = 99
	if m.MessagesByType()[MsgJoinRequest] != 2 {
		t.Fatal("MessagesByType returned a live reference")
	}
}

func TestMetricsZeroValue(t *testing.T) {
	var m Metrics
	m.CountMessage(MsgInsert)
	m.RecordOp(OpCost{Kind: OpInsert, Messages: 4})
	if m.TotalMessages() != 1 || m.OpCount(OpInsert) != 1 {
		t.Fatal("zero-value Metrics should be usable")
	}
}

func TestMetricsOps(t *testing.T) {
	m := NewMetrics()
	m.RecordOp(OpCost{Kind: OpSearchExact, Messages: 5})
	m.RecordOp(OpCost{Kind: OpSearchExact, Messages: 7})
	m.RecordOp(OpCost{Kind: OpJoin, Messages: 10})
	if m.OpCount(OpSearchExact) != 2 {
		t.Fatalf("OpCount = %d", m.OpCount(OpSearchExact))
	}
	if got := m.AvgMessagesPerOp(OpSearchExact); got != 6 {
		t.Fatalf("AvgMessagesPerOp = %f, want 6", got)
	}
	if got := m.AvgMessagesPerOp(OpLeave); got != 0 {
		t.Fatalf("AvgMessagesPerOp for missing kind = %f, want 0", got)
	}
	m.Reset()
	if m.TotalMessages() != 0 || m.OpCount(OpJoin) != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics()
	m.CountMessage(MsgLeaveRequest)
	s := m.String()
	if !strings.Contains(s, "LEAVE") || !strings.Contains(s, "total messages: 1") {
		t.Fatalf("String output missing fields: %q", s)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.Count() != 8 {
		t.Fatalf("Count = %d", a.Count())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %f", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 1e-9 {
		t.Fatalf("StdDev = %f, want 2", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %f/%f", a.Min(), a.Max())
	}
	if a.Sum() != 40 {
		t.Fatalf("Sum = %f", a.Sum())
	}
	a.AddInt(3)
	if a.Count() != 9 {
		t.Fatalf("AddInt did not record")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 0; i < 50; i++ {
		h.Add(1)
	}
	for i := 0; i < 30; i++ {
		h.Add(2)
	}
	for i := 0; i < 20; i++ {
		h.Add(5)
	}
	if h.Total() != 100 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(2) != 30 {
		t.Fatalf("Count(2) = %d", h.Count(2))
	}
	if got := h.Fraction(1); got != 0.5 {
		t.Fatalf("Fraction(1) = %f", got)
	}
	if got := h.Buckets(); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("Buckets = %v", got)
	}
	if got := h.Mean(); math.Abs(got-2.1) > 1e-9 {
		t.Fatalf("Mean = %f, want 2.1", got)
	}
	if got := h.Percentile(0.5); got != 1 {
		t.Fatalf("P50 = %d, want 1", got)
	}
	if got := h.Percentile(0.8); got != 2 {
		t.Fatalf("P80 = %d, want 2", got)
	}
	if got := h.Percentile(0.99); got != 5 {
		t.Fatalf("P99 = %d, want 5", got)
	}
	if got := h.Percentile(2); got != 5 {
		t.Fatalf("clamped percentile = %d, want 5", got)
	}
}

// TestHistogramSortedCacheInvalidation exercises the cached sorted-bucket
// path: percentiles queried between Adds must stay correct whether an Add
// reuses an existing bucket (cache kept) or opens a new one (cache
// invalidated), and Buckets must hand out a private copy the caller may
// mutate without corrupting the cache.
func TestHistogramSortedCacheInvalidation(t *testing.T) {
	h := NewHistogram()
	h.Add(10)
	h.Add(20)
	if got := h.Percentile(1); got != 20 {
		t.Fatalf("P100 = %d, want 20", got)
	}
	// Same-bucket Adds keep the cache valid; the distribution still shifts.
	for i := 0; i < 8; i++ {
		h.Add(10)
	}
	if got := h.Percentile(0.9); got != 10 {
		t.Fatalf("P90 after same-bucket adds = %d, want 10", got)
	}
	// A new bucket must invalidate the cache: 5 sorts before 10 and 20.
	h.Add(5)
	if got := h.Percentile(0.01); got != 5 {
		t.Fatalf("P1 after new low bucket = %d, want 5", got)
	}
	if got := h.Buckets(); len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("Buckets = %v, want [5 10 20]", got)
	}
	// Mutating the returned slice must not corrupt later queries.
	b := h.Buckets()
	b[0] = 999
	if got := h.Percentile(0.01); got != 5 {
		t.Fatalf("P1 after caller mutation = %d, want 5 (Buckets leaked the cache)", got)
	}
	h.Add(30)
	if got := h.Percentile(1); got != 30 {
		t.Fatalf("P100 after new high bucket = %d, want 30", got)
	}
}

func TestLevelLoad(t *testing.T) {
	l := NewLevelLoad()
	l.Record(OpInsert, 0)
	l.Record(OpInsert, 3)
	l.Record(OpInsert, 3)
	l.Record(OpSearchExact, 5)
	if l.Load(OpInsert, 3) != 2 {
		t.Fatalf("Load = %d", l.Load(OpInsert, 3))
	}
	if l.Load(OpSearchExact, 3) != 0 {
		t.Fatalf("missing load should be zero")
	}
	levels := l.Levels()
	if len(levels) != 3 || levels[0] != 0 || levels[1] != 3 || levels[2] != 5 {
		t.Fatalf("Levels = %v", levels)
	}
	l.Reset()
	if len(l.Levels()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := Series{Label: "baton"}
	a.Add(1000, 5.5)
	a.Add(2000, 6)
	b := Series{Label: "chord"}
	b.Add(1000, 7)
	out := Table("N", []Series{a, b})
	if !strings.Contains(out, "baton") || !strings.Contains(out, "chord") {
		t.Fatalf("table missing headers: %q", out)
	}
	if !strings.Contains(out, "5.500") {
		t.Fatalf("table missing float value: %q", out)
	}
	if !strings.Contains(out, "2000") {
		t.Fatalf("table missing x value: %q", out)
	}
	// The missing chord point at x=2000 renders as "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "-") {
		t.Fatalf("missing point should render as '-': %q", last)
	}
}

func TestOpCostFields(t *testing.T) {
	c := OpCost{Kind: OpLoadBalance, Messages: 12, LocateMessages: 3, UpdateMessages: 6, DataMessages: 2, ExtraMessages: 1, NodesInvolved: 4}
	if c.LocateMessages+c.UpdateMessages+c.DataMessages+c.ExtraMessages > c.Messages {
		t.Fatal("component messages should not exceed total in this test fixture")
	}
}
