// Package stats collects the measurements the paper's evaluation reports:
// the number of messages each operation exchanges (broken down by message
// type), the access load handled by peers at each tree level, and simple
// distributions such as the number of peers displaced by one restructuring.
//
// All of Figure 8 of the paper is plotted from these quantities, so the
// experiment harness in internal/experiments works exclusively through this
// package.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MsgType classifies a protocol message for accounting purposes. The names
// follow the message names used in the paper (JOIN, LEAVE, FINDREPLACEMENT,
// INSERT, ...).
type MsgType string

// Message types counted by the simulator.
const (
	MsgJoinRequest      MsgType = "JOIN"
	MsgLeaveRequest     MsgType = "LEAVE"
	MsgFindReplacement  MsgType = "FINDREPLACEMENT"
	MsgSearchExact      MsgType = "SEARCH_EXACT"
	MsgSearchRange      MsgType = "SEARCH_RANGE"
	MsgInsert           MsgType = "INSERT"
	MsgDelete           MsgType = "DELETE"
	MsgUpdateRouting    MsgType = "UPDATE_ROUTING"
	MsgUpdateAdjacent   MsgType = "UPDATE_ADJACENT"
	MsgUpdateRange      MsgType = "UPDATE_RANGE"
	MsgTransferData     MsgType = "TRANSFER_DATA"
	MsgLoadBalance      MsgType = "LOAD_BALANCE"
	MsgRestructure      MsgType = "RESTRUCTURE"
	MsgFailureRecovery  MsgType = "FAILURE_RECOVERY"
	MsgRedirect         MsgType = "REDIRECT"
	MsgLookup           MsgType = "LOOKUP" // Chord / multiway lookup hop
	MsgStabilize        MsgType = "STABILIZE"
	MsgLoadProbe        MsgType = "LOAD_PROBE"
	MsgReply            MsgType = "REPLY"
	MsgNotifyChild      MsgType = "NOTIFY_CHILD"
	MsgNotifyNeighbour  MsgType = "NOTIFY_NEIGHBOUR"
	MsgNotifyReplace    MsgType = "NOTIFY_REPLACE"
	MsgExpandRange      MsgType = "EXPAND_RANGE"
	MsgChildInfoRequest MsgType = "CHILD_INFO"
)

// OpKind classifies a complete logical operation (one user-level action).
type OpKind string

// Operation kinds measured in the evaluation.
const (
	OpJoin        OpKind = "join"
	OpLeave       OpKind = "leave"
	OpFailure     OpKind = "failure"
	OpInsert      OpKind = "insert"
	OpDelete      OpKind = "delete"
	OpSearchExact OpKind = "search_exact"
	OpSearchRange OpKind = "search_range"
	OpLoadBalance OpKind = "load_balance"
	OpRestructure OpKind = "restructure"
)

// OpCost is the per-operation accounting record returned by the simulator
// for each user-level operation.
type OpCost struct {
	Kind OpKind
	// Messages is the total number of messages exchanged by the operation.
	Messages int
	// LocateMessages is the subset of Messages spent locating the target
	// (the join position, the replacement node, the peer owning a key).
	// Figure 8(a) plots this portion for join/leave.
	LocateMessages int
	// UpdateMessages is the subset spent updating routing tables, adjacent
	// links and cached ranges. Figure 8(b) plots this portion.
	UpdateMessages int
	// DataMessages is the subset spent transferring data items.
	DataMessages int
	// ExtraMessages counts redirects caused by stale routing state
	// (Figure 8(i)).
	ExtraMessages int
	// NodesInvolved is the number of distinct peers that changed position
	// or content during the operation (Figure 8(h) for load balancing).
	NodesInvolved int
}

// Metrics accumulates counters for a whole simulation run. The zero value is
// ready to use.
type Metrics struct {
	byType     map[MsgType]int64
	totalMsgs  int64
	opCounts   map[OpKind]int64
	opMessages map[OpKind]int64
}

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		byType:     make(map[MsgType]int64),
		opCounts:   make(map[OpKind]int64),
		opMessages: make(map[OpKind]int64),
	}
}

// CountMessage records one message of the given type.
func (m *Metrics) CountMessage(t MsgType) {
	if m.byType == nil {
		m.byType = make(map[MsgType]int64)
	}
	m.byType[t]++
	m.totalMsgs++
}

// RecordOp records the completion of one operation with the given cost.
func (m *Metrics) RecordOp(c OpCost) {
	if m.opCounts == nil {
		m.opCounts = make(map[OpKind]int64)
		m.opMessages = make(map[OpKind]int64)
	}
	m.opCounts[c.Kind]++
	m.opMessages[c.Kind] += int64(c.Messages)
}

// TotalMessages returns the total number of messages counted.
func (m *Metrics) TotalMessages() int64 { return m.totalMsgs }

// MessagesByType returns a copy of the per-type message counters.
func (m *Metrics) MessagesByType() map[MsgType]int64 {
	out := make(map[MsgType]int64, len(m.byType))
	for k, v := range m.byType {
		out[k] = v
	}
	return out
}

// OpCount returns how many operations of the given kind completed.
func (m *Metrics) OpCount(kind OpKind) int64 { return m.opCounts[kind] }

// AvgMessagesPerOp returns the mean number of messages per operation of the
// given kind, or 0 when none were recorded.
func (m *Metrics) AvgMessagesPerOp(kind OpKind) float64 {
	n := m.opCounts[kind]
	if n == 0 {
		return 0
	}
	return float64(m.opMessages[kind]) / float64(n)
}

// Reset clears all counters.
func (m *Metrics) Reset() {
	m.byType = make(map[MsgType]int64)
	m.opCounts = make(map[OpKind]int64)
	m.opMessages = make(map[OpKind]int64)
	m.totalMsgs = 0
}

// String renders a compact human-readable summary, useful for debugging and
// the CLI's verbose mode.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total messages: %d\n", m.totalMsgs)
	types := make([]string, 0, len(m.byType))
	for t := range m.byType {
		types = append(types, string(t))
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(&b, "  %-18s %d\n", t, m.byType[MsgType(t)])
	}
	return b.String()
}

// Accumulator tracks a stream of float64 samples and reports mean, min, max
// and standard deviation.
type Accumulator struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one sample.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
	a.sumSq += v * v
}

// AddInt records one integer sample.
func (a *Accumulator) AddInt(v int) { a.Add(float64(v)) }

// Count returns the number of samples recorded.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the mean of the samples, or 0 when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Min returns the smallest sample, or 0 when empty.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 when empty.
func (a *Accumulator) Max() float64 { return a.max }

// Sum returns the sum of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// StdDev returns the population standard deviation of the samples.
func (a *Accumulator) StdDev() float64 {
	if a.n == 0 {
		return 0
	}
	mean := a.Mean()
	variance := a.sumSq/float64(a.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

// Histogram counts integer-valued samples in unit-width buckets. It backs
// Figure 8(h): the distribution of the number of nodes displaced by one load
// balancing operation. It is not safe for concurrent use — including
// concurrent read-only calls: Percentile and Buckets lazily (re)build the
// sorted-bucket cache. The concurrent latency histogram is obs.Histogram.
type Histogram struct {
	counts map[int]int64
	total  int64
	// sorted caches the ascending bucket values for Percentile and Buckets,
	// invalidated only when an Add opens a new bucket — incrementing an
	// existing bucket leaves the value set unchanged. Without the cache,
	// every Percentile call re-collected and re-sorted the whole map, which
	// made percentile reporting over a long run quadratic.
	sorted []int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]int64)} }

// Add records one sample with the given integer value.
func (h *Histogram) Add(v int) {
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	if _, ok := h.counts[v]; !ok {
		h.sorted = nil
	}
	h.counts[v]++
	h.total++
}

// Count returns how many samples had exactly value v.
func (h *Histogram) Count(v int) int64 { return h.counts[v] }

// Total returns the total number of samples.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns the sorted distinct sample values. The returned slice is
// the caller's to keep.
func (h *Histogram) Buckets() []int {
	return append([]int(nil), h.sortedBuckets()...)
}

// sortedBuckets returns the cached ascending bucket values, rebuilding the
// cache if a new bucket invalidated it.
func (h *Histogram) sortedBuckets() []int {
	if h.sorted == nil {
		h.sorted = make([]int, 0, len(h.counts))
		for v := range h.counts {
			h.sorted = append(h.sorted, v)
		}
		sort.Ints(h.sorted)
	}
	return h.sorted
}

// Fraction returns the fraction of samples with value v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Mean returns the mean sample value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of the
// samples are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum int64
	buckets := h.sortedBuckets()
	for _, v := range buckets {
		cum += h.counts[v]
		if cum >= target {
			return v
		}
	}
	return buckets[len(buckets)-1]
}

// LevelLoad tracks the number of messages handled by peers at each tree
// level, separately per operation kind. Figure 8(f) plots these counters
// normalised by the number of peers per level.
type LevelLoad struct {
	// perLevel[kind][level] = messages handled
	perLevel map[OpKind]map[int]int64
}

// NewLevelLoad returns an empty per-level load tracker.
func NewLevelLoad() *LevelLoad {
	return &LevelLoad{perLevel: make(map[OpKind]map[int]int64)}
}

// Record adds one handled message at the given tree level for the given
// operation kind.
func (l *LevelLoad) Record(kind OpKind, level int) {
	if l.perLevel == nil {
		l.perLevel = make(map[OpKind]map[int]int64)
	}
	m := l.perLevel[kind]
	if m == nil {
		m = make(map[int]int64)
		l.perLevel[kind] = m
	}
	m[level]++
}

// Load returns the number of messages handled at the given level for the
// given operation kind.
func (l *LevelLoad) Load(kind OpKind, level int) int64 { return l.perLevel[kind][level] }

// Levels returns the sorted set of levels that have recorded load for any
// operation kind.
func (l *LevelLoad) Levels() []int {
	seen := map[int]bool{}
	for _, m := range l.perLevel {
		for lvl := range m {
			seen[lvl] = true
		}
	}
	out := make([]int, 0, len(seen))
	for lvl := range seen {
		out = append(out, lvl)
	}
	sort.Ints(out)
	return out
}

// Reset clears all counters.
func (l *LevelLoad) Reset() { l.perLevel = make(map[OpKind]map[int]int64) }

// Series is one plotted line of a figure: a label plus (x, y) points.
type Series struct {
	Label  string
	Points []Point
}

// Point is a single (x, y) measurement.
type Point struct {
	X float64
	Y float64
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Table renders a set of series sharing the same X values as an aligned
// text table, one row per X value and one column per series. It is the
// output format of cmd/batonsim.
func Table(xLabel string, series []Series) string {
	var b strings.Builder
	// Collect the union of X values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%-22s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14s", trimFloat(x))
		for _, s := range series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, "%-22s", trimFloat(y))
			} else {
				fmt.Fprintf(&b, "%-22s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
