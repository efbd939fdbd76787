// Command bench is the repository's benchmark: five closed-loop workloads
// against a live BATON cluster, client-observed end-to-end metrics with a
// regression bound each, and a per-layer budget behind them. See README.md
// in this directory.
//
//	go run ./bench                         every workload, untraced then traced
//	go run ./bench -workload range-tcp     one workload
//	go run ./bench -workload range-tcp -seed 7 -seconds 15 -trace 0
//	                                       one run; the last line is its result as JSON
//	go run ./bench -compare a.json b.json  delta table of two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of the input generator")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run, at least 1")
		trace    = flag.Int("trace", -1, "0: the untraced run (end-to-end metrics); 1: the traced run (per-layer metrics, spans); default: both")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and the span files")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("want -seconds ≥ 1 and -trace 0 or 1"))
	}
	todo := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		todo = []spec{*sp}
	}
	traces := []bool{false, true}
	if *trace >= 0 {
		traces = []bool{*trace == 1}
	}

	env := environment(*seed)
	fmt.Printf("# bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d; %d closed-loop clients, one OS process; TCP workloads cross the host's loopback interface\n",
		env.NProc, env.GoMaxProcs, env.Go, env.Commit, env.Seed, clients)
	file := resultFile{Env: env}
	bad := false
	for i := range todo {
		sp := &todo[i]
		var pair [2]*runResult
		for _, tr := range traces {
			cfg := runConfig{
				sp: sp, seed: *seed, seconds: *seconds, warmUp: warmUp, trace: tr,
				keys: nKeys, setups: 5, layers: fullLayers, outDir: *out,
			}
			if tr {
				cfg.setups = 1 // set-up time is an end-to-end metric; the traced run does not report it
			}
			res, err := runWorkload(cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			printRun(res)
			file.Runs = append(file.Runs, res)
			bad = bad || res.Wrong > 0
			pair[res.Trace] = res
		}
		if pair[0] != nil && pair[1] != nil {
			printBudget(sp, pair[0], pair[1])
		}
	}
	if err := file.write(filepath.Join(*out, "result.json")); err != nil {
		fatal(err)
	}
	// One workload, one kind of run, once: the driver's contract. The last
	// line of standard output is the run's result as one JSON object.
	if len(file.Runs) == 1 {
		line, err := resultLine(file.Runs[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "bench: wrong answers or failed audits, see above")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// envInfo records where and on what the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Network    string `json:"network"`
}

func environment(seed int64) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Seed: seed, Clients: clients,
		Network: "TCP workloads cross the host's loopback interface inside one OS process; no real link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

type resultFile struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) write(name string) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

// printRun prints every metric of the run by name, with its unit and the
// number of samples behind it.
func printRun(r *runResult) {
	kind := "untraced"
	if r.Trace == 1 {
		kind = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %.0f s): %d attempted, %d failed, %d wrong\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Wrong)
	for _, name := range r.order {
		v := r.Metrics[name]
		fmt.Printf("%-32s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	if r.Unstable {
		fmt.Printf("unstable: bench.window_cv > 0.10, this run cannot back a claim\n")
	}
	for _, p := range r.problems {
		fmt.Printf("problem: %s\n", p)
	}
}

// printBudget reads the end-to-end numbers of the untraced run against the
// layer numbers of the traced one: what the live cluster costs next to what
// the simulator says the protocol costs, and where a get's median goes.
func printBudget(sp *spec, e2e, layers *runResult) {
	get := func(r *runResult, name string) (float64, bool) {
		v, ok := r.Metrics[name]
		return v.Value, ok
	}
	add := func(name, unit string, v float64) {
		layers.Metrics[name] = value{Value: v, Unit: unit, N: 1}
		layers.order = append(layers.order, name)
		fmt.Printf("%-32s %14.4f %-6s\n", name, v, unit)
	}
	fmt.Printf("-- budget %s\n", sp.name)
	if points := sp.mix[opGet] + sp.mix[opPut]; !sp.direct && points == 100 {
		// The live cluster counts what the simulator does not: the delivery
		// of the client's request to its entry peer (+1 per op) and a put's
		// replica message to the adjacent peer (+1 per put).
		exact, _ := get(layers, "core.exact_msgs")
		ins, _ := get(layers, "core.insert_msgs")
		live, _ := get(e2e, "msgs_per_op")
		want := (float64(sp.mix[opGet])*(exact+1) + float64(sp.mix[opPut])*(ins+2)) / 100
		fmt.Printf("msgs_per_op live %.4f | simulator %.4f = %d %% × (core.exact_msgs %.4f + 1 entry) + %d %% × (core.insert_msgs %.4f + 1 entry + 1 replica) | offset %+.1f %%\n",
			live, want, sp.mix[opGet], exact, sp.mix[opPut], ins, 100*(live-want)/want)
	}
	p50, ok := get(e2e, "get_p50_us")
	if !ok {
		return
	}
	storeGet, _ := get(layers, "store.get_ns")
	self := p50 - storeGet/1e3
	if sp.tcp {
		rtt, _ := get(layers, "transport.echo_rtt_us_64")
		local, _ := get(layers, "p2p.direct_get_local_ns")
		self -= rtt
		residual := p50 - local/1e3 - rtt
		fmt.Printf("get_p50_us %.4f = transport.echo_rtt_us_64 %.4f + p2p.direct_get_local_ns %.4f us + p2p.wire_residual_us %.4f\n",
			p50, rtt, local/1e3, residual)
		add("p2p.wire_residual_us", "us", residual)
	}
	add("p2p.get_self_us", "us", self)
}

// resultLine is the last line of a single run: correct, attempted, failed
// and exactly the metrics BENCHMARK.json declares for this kind of run.
func resultLine(r *runResult) (string, error) {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	var missing []string
	for _, d := range defs {
		if !d.declared {
			continue
		}
		v, ok := r.Metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		metrics[d.name] = metric{v.Value, v.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("%s: declared metrics not measured: %s", r.Workload, strings.Join(missing, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Wrong == 0, r.Attempted, r.Failed, metrics})
	return string(line), err
}
