package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json and the registry in
// metrics.go in step: the file declares exactly the registry's declared
// metrics, with the same unit, direction and bound, and exactly the five
// workloads with their reasons.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []declared, defs []metricDef) {
		want := map[string]metricDef{}
		for _, d := range defs {
			if d.declared {
				want[d.name] = d
			}
		}
		for _, g := range got {
			d, ok := want[g.Name]
			if !ok {
				t.Errorf("%s: BENCHMARK.json declares %s, the registry does not", kind, g.Name)
				continue
			}
			if g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %s: BENCHMARK.json has %+v, the registry %+v", kind, g.Name, g, d)
			}
			delete(want, g.Name)
		}
		for name := range want {
			t.Errorf("%s: the registry declares %s, BENCHMARK.json does not", kind, name)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), bench has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// smallLayers is the minimum size of every layer probe.
var smallLayers = layerSizes{loop: 2 * time.Millisecond, coreOps: 200, directGets: 10 * time.Millisecond}

// TestWorkloads runs every workload for 300 ms, untraced and traced with
// every layer probe at minimum size, and checks what comes out against what
// BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	names := func(ds []declared) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	want := [2][]string{names(b.EndToEnd), names(b.PerLayer)}
	units := map[string]string{}
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for i := range specs {
		sp := &specs[i]
		for trace := 0; trace < 2; trace++ {
			t.Run(sp.name+[]string{"/untraced", "/traced"}[trace], func(t *testing.T) {
				var res *runResult
				var line string
				// A percentile is refused below ten samples beyond it, so a
				// slow machine (or -race) may need more than 300 ms for the
				// p99 of the range workloads.
				for secs := 0.3; ; secs *= 4 {
					var err error
					res, err = runWorkload(runConfig{
						sp: sp, seed: 3, seconds: secs, warmUp: 100 * time.Millisecond, trace: trace == 1,
						keys: 10_000, setups: 2, layers: smallLayers, outDir: t.TempDir(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if line, err = resultLine(res); err == nil {
						break
					}
					if secs > 5 {
						t.Fatal(err)
					}
				}
				if res.Wrong != 0 || res.Failed != 0 {
					t.Errorf("%d failed, %d wrong of %d ops: %v", res.Failed, res.Wrong, res.Attempted, res.problems)
				}
				var out struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Attempted < 1 {
					t.Errorf("result line says correct=%v attempted=%d", out.Correct, out.Attempted)
				}
				var got []string
				for name, m := range out.Metrics {
					got = append(got, name)
					if m.Value == nil || math.IsNaN(*m.Value) || m.Unit != units[name] {
						t.Errorf("%s: value %v unit %q, want a number in %q", name, m.Value, m.Unit, units[name])
					}
				}
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(want[trace], " ") {
					t.Errorf("emitted metrics\n %v\ndeclared\n %v", got, want[trace])
				}
				if trace == 1 {
					return
				}
				// Metrics of op types the workload does not have are omitted,
				// never written as 0; those of the types it has are there.
				for prefix, k := range map[string]opKind{"get": opGet, "put": opPut, "range": opRange} {
					_, has := res.Metrics[prefix+"_p50_us"]
					if occurs := sp.mix[k] > 0; has != occurs {
						t.Errorf("%s_p50_us emitted=%v but the op occurs=%v", prefix, has, occurs)
					}
				}
				for name, v := range res.Metrics {
					if d, ok := endToEndDef(name); ok && name != "fail_share" && v.Value == 0 {
						t.Errorf("%s (%s) is 0", name, d.unit)
					}
				}
			})
		}
	}
}

// TestReplaysSideBySide has both clients replay ops of every kind against the
// isolated layers at the same time, as the span slots of a traced run do; a
// 300 ms window almost never puts two replays side by side, so -race would
// not see state the replays share. The spec has every op kind, overlay
// routing and the wire, so that every kind of child span is replayed.
func TestReplaysSideBySide(t *testing.T) {
	keys := genKeys(3, 10_000, fullDomain())
	items := preloadItems(keys)
	s, err := newSUT(&spec{}, items)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	pr, err := newProbes(3, items)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.close()
	sp := &spec{
		name: "replay", tcp: true,
		mix:     mix{opGet: 20, opPut: 20, opInsert: 20, opDelete: 20, opRange: 20},
		widthLo: 0.0002, widthHi: 0.02,
	}
	// The shares together answer a range as one store of every key would.
	orc, rr := newOracle(keys), newRand(3, 9)
	for i := 0; i < 100; i++ {
		rg := (&spec{widthLo: 0.0002, widthHi: 0.2}).drawRange(rr, fullDomain())
		if err := orc.checkRange(rg, pr.replay[0].scan(nil, rg)); err != nil {
			t.Fatalf("replay stores: %v", err)
		}
	}
	tr := newTracer(s, sp, pr, time.Now())
	entry := s.peerIDs()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newOpGen(3, c, sp, keys, fullDomain())
			for i := 0; i < 2000; i++ {
				o := g.next(entry)
				if o.kind == opInsert {
					g.inserted(o.key)
				} else if o.kind == opDelete {
					g.deleted(o.key)
				}
				now := time.Now()
				tr.end(c, &o, now, now, 0, 0, nil, false)
			}
		}()
	}
	wg.Wait()
	for c := range pr.replay {
		if n := pr.replay[c].len(); n != len(items) {
			t.Errorf("client %d's replay stores hold %d items after the replays, want %d", c+1, n, len(items))
		}
	}

	// What the span file holds: the scheduler's structural ops as root spans
	// beside the clients', and under each client op its replayed children.
	now := time.Now()
	tr.structuralOp("join", entry[0], now, now, nil)
	name, err := tr.write(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Counts["op.join"] != 1 {
		t.Errorf("span file counts %d op.join, want 1", f.Counts["op.join"])
	}
	roots := map[int64]string{}
	children := map[string]bool{}
	for _, sp := range f.Spans {
		if sp.Parent == 0 {
			roots[sp.ID] = sp.Name
		}
	}
	for _, sp := range f.Spans {
		if sp.Parent != 0 {
			if _, ok := roots[sp.Parent]; !ok || sp.Op != sp.Parent {
				t.Fatalf("child span %+v has no root", sp)
			}
			children[sp.Name] = true
		}
	}
	if len(roots) != clients*2000+1 {
		t.Errorf("%d root spans, want %d", len(roots), clients*2000+1)
	}
	for _, want := range []string{"core.route", "store.get", "store.put", "store.delete", "store.scan", "query.choose", "transport.echo"} {
		if !children[want] {
			t.Errorf("no %s child span in the file", want)
		}
	}
}

// TestOracleRejectsCorruptedAnswers feeds the oracle answers that are wrong
// in each way it is meant to catch.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	keys := genKeys(1, 1000, fullDomain())
	o := newOracle(keys)
	good := encodeValue(keys[7], 1)
	if err := o.checkGet(7, good, true); err != nil {
		t.Fatalf("correct get rejected: %v", err)
	}
	o.nextVersion(7)
	o.putAcked(7)
	for name, tc := range map[string]struct {
		value []byte
		found bool
	}{
		"stale version":           {good, true},
		"version from the future": {encodeValue(keys[7], 9), true},
		"another key's value":     {encodeValue(keys[8], 2), true},
		"truncated value":         {good[:8], true},
		"not found":               {nil, false},
	} {
		if err := o.checkGet(7, tc.value, tc.found); err == nil {
			t.Errorf("get: %s accepted", name)
		}
	}

	r := Range{Lower: keys[100], Upper: keys[110]}
	var items []Item
	for _, k := range keys[100:110] {
		items = append(items, Item{Key: k, Value: encodeValue(k, 1)})
	}
	if err := o.checkRange(r, items); err != nil {
		t.Fatalf("correct range rejected: %v", err)
	}
	withOdd := append(append([]Item(nil), items[:5]...), Item{Key: items[4].Key + 1, Value: encodeValue(items[4].Key+1, 1)})
	withOdd = append(withOdd, items[5:]...)
	if err := o.checkRange(r, withOdd); err != nil {
		t.Fatalf("range with another client's ephemeral key rejected: %v", err)
	}
	swapped := append([]Item(nil), items...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	foreign := append([]Item(nil), items...)
	foreign[4].Value = encodeValue(keys[0], 1)
	for name, bad := range map[string][]Item{
		"missing item":    items[1:],
		"duplicated item": append(append([]Item(nil), items[:1]...), items...),
		"unsorted":        swapped,
		"out of bounds":   append(append([]Item(nil), items...), Item{Key: keys[110], Value: encodeValue(keys[110], 1)}),
		"foreign value":   foreign,
	} {
		if err := o.checkRange(r, bad); err == nil {
			t.Errorf("range: %s accepted", name)
		}
	}

	all := preloadItems(keys)
	all[7].Value = encodeValue(keys[7], 2)
	if err := o.checkFinal(all, nil, nil); err != nil {
		t.Fatalf("correct final state rejected: %v", err)
	}
	if err := o.checkFinal(all[1:], nil, nil); err == nil {
		t.Error("final: lost key accepted")
	}
	odd := keys[3] + 1
	if err := o.checkFinal(all, []Key{odd}, nil); err == nil {
		t.Error("final: lost live ephemeral key accepted")
	}
	// An ephemeral key whose insert or delete returned an error may have been
	// applied or not: both final states are correct, and neither is without
	// the error.
	withOdd = append(append(append([]Item(nil), all[:4]...), Item{Key: odd, Value: encodeValue(odd, 1)}), all[4:]...)
	if err := o.checkFinal(withOdd, nil, nil); err == nil {
		t.Error("final: ephemeral key that is not live accepted")
	}
	unknown := map[Key]struct{}{odd: {}}
	if err := o.checkFinal(withOdd, nil, unknown); err != nil {
		t.Errorf("final: key of unknown state rejected when present: %v", err)
	}
	if err := o.checkFinal(all, nil, unknown); err != nil {
		t.Errorf("final: key of unknown state rejected when absent: %v", err)
	}
}

// TestHist checks the histogram's contract: ≤ 1 % relative error at
// nanosecond resolution, mergeable, and no percentile from too few samples.
func TestHist(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 1000, 1401, 65_537, 1_234_567, 987_654_321, 1 << 40} {
		got := histValue(histIndex(v))
		if v > 0 && math.Abs(got-float64(v))/float64(v) > 0.01 {
			t.Errorf("value %d is reported as %.1f: more than 1 %% off", v, got)
		}
	}
	var a, b hist
	for i := 1; i <= 600; i++ {
		a.add(int64(i) * 1000)
	}
	for i := 601; i <= 1000; i++ {
		b.add(int64(i) * 1000)
	}
	if _, ok := a.percentile(99); ok {
		t.Error("p99 of 600 samples reported; it has 6 samples beyond it")
	}
	a.merge(&b)
	p99, ok := a.percentile(99)
	if !ok || math.Abs(p99-990_000)/990_000 > 0.01 {
		t.Errorf("p99 of 1..1000 µs = %.0f ns (ok=%v), want 990 000 within 1 %%", p99, ok)
	}
	if p50, ok := a.percentile(50); !ok || math.Abs(p50-500_000)/500_000 > 0.01 {
		t.Errorf("p50 = %.0f ns (ok=%v), want 500 000 within 1 %%", p50, ok)
	}
	if a.n != 1000 || math.Abs(a.mean()-500_500) > 1 {
		t.Errorf("n=%d mean=%.1f after merge", a.n, a.mean())
	}
	// The quartile rule is Python's statistics.quantiles(v, n=4).
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("iqrShare(1..10) = %v, want 1 (quartiles 2.75 and 8.25, median 5.5)", got)
	}
}

// TestCompare checks the four verdicts and the exit status of -compare.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, p50 float64, windows []float64) string {
		f := resultFile{Runs: []*runResult{{
			Workload: "range-local",
			Metrics: map[string]value{
				"ops_per_s":    {Value: ops, Unit: "1/s", N: 1, Windows: []float64{ops, ops * 1.01, ops * 0.99, ops, ops}},
				"range_p50_us": {Value: p50, Unit: "us", N: 1, Windows: windows},
			},
		}}}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	a := write("a.json", 1000, 100, steady)
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, write("same.json", 998, 100.5, steady))
	if err != nil || worse || strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "shifted") {
		t.Errorf("within the runs' own spread: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, a, write("shifted.json", 900, 100, steady))
	if err != nil || worse || strings.Count(out.String(), "ok shifted") != 1 {
		t.Errorf("ops/s 10 %% down, inside the bound, beyond the 1 %% spread: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	ops, _ := endToEndDef("ops_per_s")
	worse, err = compareFiles(&out, a, write("slow.json", 1000*(1-ops.bound-0.03), 100, steady))
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("ops/s 3 points beyond its %.0f %% bound: worse=%v err=%v\n%s", 100*ops.bound, worse, err, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, a, write("noisy.json", 1000, 100, []float64{70, 130, 100, 80, 125}))
	if err != nil || worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
