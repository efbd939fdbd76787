// Command batonsim reproduces the evaluation of the BATON paper and drives
// the live cluster. In the default figures mode it runs the experiment
// behind each panel of Figure 8 and prints the resulting series as aligned
// text tables (one row per x value, one column per plotted line). Every
// other mode is a preset over one scenario (scenario.go): build a live
// cluster, run the closed-loop workload driver against it, repair and
// quiesce it, audit the structural and replication invariants. The presets
// differ only in the flags they read and the defaults they fill in — see
// the presets table below. The printed latencies are smoke output at
// histogram-bucket resolution; performance numbers come from `go run ./bench`.
//
// Usage:
//
//	batonsim                  # run every figure at the quick (seconds) scale
//	batonsim -figure 8d       # run a single figure
//	batonsim -full            # paper-scale parameters (1,000–10,000 peers)
//	batonsim -sizes 500,1000  # custom network sizes
//	batonsim -list            # list the reproducible figures
//	batonsim -mode throughput -peers 256 -clients 32 -ops 50000 -kill 10 -route direct
//	batonsim -mode churnload -peers 128 -joins 32 -departs 32 -ops 50000
//	batonsim -mode faultload -peers 128 -kill 16 -recover 16 -ops 50000
//	batonsim -mode skewload -peers 64 -theta 1.0 -compare
//	batonsim -mode rangecmp -peers 256 -selectivity 0.15
//	batonsim -mode rangecmp -peers 64 -plan adaptive -rangedist bimodal
//	batonsim -mode throughput -peers 64 -fanout 4        # BATON* overlay, m-ary tree
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"baton/internal/core"
	"baton/internal/experiments"
	"baton/internal/p2p"
	"baton/internal/workload"
)

// options is everything the command line sets: the mode, the live-cluster
// scenario, and the figures-mode parameters.
type options struct {
	mode  string
	s     scenario
	route string // -route as typed; parse maps it to s.cfg.Route
	// theta and compare are skewload's: the Zipf skew of data set and key
	// stream, and the balancer-off vs balancer-on gate.
	theta   float64
	compare bool
	// queries is the per-measurement query count of the figures and the
	// per-plan range-query count of rangecmp (0 = the mode's default).
	queries             int
	figure, sizes       string
	full, list, verbose bool
	data, runs          int
}

// preset is one mode: the flags it reads, the defaults it fills in once the
// flags are parsed, and how it runs. Flag validity and the "only meaningful
// in mode …" hint are both derived from flags, so a flag a mode does not
// read cannot be silently dropped.
type preset struct {
	name  string
	flags string
	shape func(o *options, set map[string]bool)
	run   func(w io.Writer, o options) error
}

const (
	// liveFlags are read by every live-cluster mode, mixFlags by the four
	// that run a configurable operation mix.
	liveFlags = "seed peers items fanout selectivity transport listen tracesample metricsout"
	mixFlags  = liveFlags + " clients ops get put del range route"
)

var presets = []preset{
	{name: "figures", flags: "seed figure full list sizes queries data runs v", run: runFigures},
	{name: "throughput", flags: mixFlags + " kill bulk plan rangedist seedaddr", run: runOnce},
	{name: "churnload", flags: mixFlags + " kill joins departs", run: runOnce,
		shape: func(o *options, set map[string]bool) {
			if !set["joins"] && !set["departs"] && !set["kill"] {
				// No churn flags at all: steady-state churn turning over ~1/4
				// of the cluster (at least one event each, so tiny clusters
				// still churn). Explicit values — zero included — stand.
				o.s.cfg.JoinPeers = max(1, o.s.spec.Peers/4)
				o.s.cfg.DepartPeers = o.s.cfg.JoinPeers
			}
		}},
	{name: "faultload", flags: mixFlags + " kill recover", run: runOnce,
		shape: func(o *options, set map[string]bool) {
			if !set["kill"] {
				// Crash (and repair) ~1/4 of the cluster, at least one peer,
				// so the mode exercises kill -> ErrOwnerDown -> recover ->
				// readable out of the box. An explicit "-kill 0" stands.
				o.s.cfg.KillPeers = max(1, o.s.spec.Peers/4)
			}
			if o.s.cfg.RecoverPeers < 0 {
				o.s.cfg.RecoverPeers = o.s.cfg.KillPeers
			}
		}},
	{name: "skewload", flags: mixFlags + " theta autobalance compare", run: runSkew,
		shape: func(o *options, _ map[string]bool) {
			// Zipf data set and key stream: a few peers own nearly all the
			// data, the configuration the paper's Section V exists for.
			o.s.spec.Distribution, o.s.spec.ZipfTheta = workload.Zipf, o.theta
			o.s.cfg.Distribution, o.s.cfg.ZipfTheta = workload.Zipf, o.theta
		}},
	{name: "rangecmp", flags: liveFlags + " queries plan rangedist", run: runRangeCompare,
		shape: func(o *options, _ map[string]bool) {
			// One sequential client issuing only ranges, so every plan
			// answers the same (via, range) sequence uncontended.
			c := &o.s.cfg
			c.Clients, c.Ops = 1, o.queries
			if c.Ops <= 0 {
				c.Ops = 200
			}
			c.GetFraction, c.PutFraction, c.DeleteFraction, c.RangeFraction = 0, 0, 0, 1
		}},
}

// reads reports whether the mode reads the named flag.
func (p *preset) reads(name string) bool {
	return slices.Contains(strings.Fields(p.flags), name)
}

// modeNames lists the modes reading the named flag ("" lists every mode).
func modeNames(flagName string) []string {
	var names []string
	for i := range presets {
		if flagName == "" || presets[i].reads(flagName) {
			names = append(names, presets[i].name)
		}
	}
	return names
}

// parse turns the command line into validated options and the preset that
// runs them. Every explicitly set flag the mode does not read is an error:
// a run that drops -kill or -joins on the floor looks like a clean pass of
// a scenario that never executed, which is worse than failing.
func parse(args []string) (options, *preset, error) {
	var o options
	fs := flag.NewFlagSet("batonsim", flag.ContinueOnError)
	defineFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	spec, cfg := &o.s.spec, &o.s.cfg
	i := slices.IndexFunc(presets, func(p preset) bool { return p.name == o.mode })
	if i < 0 {
		return o, nil, fmt.Errorf("unknown mode %q (want %s)", o.mode, strings.Join(modeNames(""), ", "))
	}
	mode := &presets[i]
	// Only flags the user set explicitly are checked, and "-kill 0" (an
	// intentional no-crash baseline) stays distinguishable from an unset
	// flag, so a mode's default churn never overrides it.
	set := map[string]bool{}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if f.Name != "mode" && !mode.reads(f.Name) {
			ignored = append(ignored, fmt.Sprintf("-%s (only meaningful in mode %s)", f.Name, strings.Join(modeNames(f.Name), "/")))
		}
	})
	if len(ignored) > 0 {
		return o, nil, fmt.Errorf("mode %q ignores flag(s) %s; drop them or switch mode", o.mode, strings.Join(ignored, ", "))
	}
	if err := validateTransportFlags(o.s, set); err != nil {
		return o, nil, err
	}
	switch o.route {
	case "overlay":
	case "direct":
		cfg.Route = p2p.RouteDirect
	default:
		return o, nil, fmt.Errorf("unknown route mode %q (want overlay or direct)", o.route)
	}
	if !core.ValidFanout(spec.Fanout) {
		return o, nil, fmt.Errorf("invalid -fanout %d (want 2..%d)", spec.Fanout, core.MaxFanout)
	}
	if err := cfg.Validate(); err != nil {
		return o, nil, err
	}
	o.s.mode, cfg.Seed = o.mode, spec.Seed
	if mode.shape != nil {
		mode.shape(&o, set)
	}
	if cfg.RecoverPeers < 0 {
		cfg.RecoverPeers = 0 // "match -kill" is faultload's reading alone
	}
	return o, mode, nil
}

// defineFlags binds every batonsim flag to its field of o.
func defineFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.mode, "mode", "figures", strings.Join(modeNames(""), ", "))
	fs.StringVar(&o.figure, "figure", "", "figure to reproduce (8a..8i); empty means all")
	fs.BoolVar(&o.full, "full", false, "use the paper-scale parameters (slow: tens of minutes)")
	fs.BoolVar(&o.list, "list", false, "list reproducible figures and exit")
	fs.StringVar(&o.sizes, "sizes", "", "comma-separated network sizes overriding the defaults")
	fs.IntVar(&o.queries, "queries", 0, "queries per measurement; range queries per plan in rangecmp mode (0 = default)")
	fs.IntVar(&o.data, "data", 0, "data items per peer (0 = default)")
	fs.IntVar(&o.runs, "runs", 0, "independent repetitions to average (0 = default)")
	fs.BoolVar(&o.verbose, "v", false, "print the notes recorded for each figure")

	spec, cfg := &o.s.spec, &o.s.cfg
	fs.Int64Var(&spec.Seed, "seed", 1, "random seed")
	fs.IntVar(&spec.Peers, "peers", 256, "live cluster size")
	fs.IntVar(&spec.Items, "items", 20_000, "items pre-loaded into the cluster")
	fs.IntVar(&spec.Fanout, "fanout", 2, "overlay tree fanout m (2 = binary BATON, >2 = BATON*)")
	fs.StringVar(&spec.Transport, "transport", "local", "message transport: local (in-process channels) or tcp (a loopback wire pair: coordinator + daemon half)")
	fs.StringVar(&spec.Listen, "listen", "", "tcp transport: the coordinator's listen address (default 127.0.0.1:0, a free loopback port)")
	fs.StringVar(&o.s.seedAddr, "seedaddr", "", "tcp transport: attach to a running batond coordinator at this address instead of building a cluster in-process")
	fs.IntVar(&cfg.Clients, "clients", 32, "concurrent client goroutines")
	fs.IntVar(&cfg.Ops, "ops", 20_000, "total operations across all clients")
	fs.Float64Var(&cfg.GetFraction, "get", 0.7, "fraction of get operations")
	fs.Float64Var(&cfg.PutFraction, "put", 0.2, "fraction of put operations")
	fs.Float64Var(&cfg.DeleteFraction, "del", 0, "fraction of delete operations")
	fs.Float64Var(&cfg.RangeFraction, "range", 0.1, "fraction of range operations")
	fs.Float64Var(&cfg.RangeSelectivity, "selectivity", 0.01, "range query selectivity (fraction of the domain)")
	fs.IntVar(&cfg.KillPeers, "kill", 0, "peers to kill while the workload runs")
	fs.IntVar(&cfg.JoinPeers, "joins", 0, "peers that join online while the workload runs")
	fs.IntVar(&cfg.DepartPeers, "departs", 0, "peers that depart gracefully while the workload runs")
	fs.IntVar(&cfg.RecoverPeers, "recover", -1, "crash repairs to run while the workload runs (-1 means match -kill)")
	fs.StringVar(&cfg.Plan, "plan", "", "range execution plan: serial, parallel or adaptive (rangecmp default: compare all three)")
	fs.StringVar(&cfg.RangeDist, "rangedist", "", "range width distribution around -selectivity: fixed, uniform or bimodal")
	fs.IntVar(&cfg.BulkSize, "bulk", 0, "batch puts through BulkPut in groups of this size (0 = singleton puts)")
	fs.StringVar(&o.route, "route", "overlay", "singleton routing mode: overlay (paper-faithful per-hop) or direct (one-hop route cache)")
	fs.Float64Var(&o.theta, "theta", 1.0, "Zipf skew parameter of the data set and key stream")
	fs.BoolVar(&cfg.AutoBalance, "autobalance", false, "run the background load balancer during the workload")
	fs.BoolVar(&o.compare, "compare", false, "run balancer-off then balancer-on and fail unless the final imbalance ratio improves")
	fs.IntVar(&cfg.TraceSample, "tracesample", 0, "sample 1 in N requests for hop-level tracing (0 = off)")
	fs.StringVar(&o.s.metricsOut, "metricsout", "", "write the flight-recorder dump (metrics registry, structural-op journal, sampled traces) to this JSON file after the run")
}

// validateTransportFlags enforces the wire-transport flag combinations:
// -transport names a known medium, -listen and -seedaddr only mean
// something over tcp, and -seedaddr (attach to an external coordinator)
// excludes both -listen (we are not the coordinator) and kills (structural
// operations are the coordinator's alone; the mode check has already
// rejected every other churn flag, since only throughput reads -seedaddr).
func validateTransportFlags(s scenario, set map[string]bool) error {
	tcp, attach := s.spec.Transport == "tcp", s.seedAddr != ""
	switch {
	case !tcp && s.spec.Transport != "local":
		return fmt.Errorf("unknown -transport %q (want local or tcp)", s.spec.Transport)
	case !tcp && s.spec.Listen != "":
		return fmt.Errorf("-listen requires -transport tcp")
	case !tcp && attach:
		return fmt.Errorf("-seedaddr requires -transport tcp")
	case attach && s.spec.Listen != "":
		return fmt.Errorf("-seedaddr and -listen are mutually exclusive: attaching to a coordinator at %s means not listening as one", s.seedAddr)
	case attach && set["kill"]:
		return fmt.Errorf("-kill cannot be combined with -seedaddr: structural operations belong to the coordinator, and an attached client is not one")
	}
	return nil
}

func main() {
	o, mode, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		err = mode.run(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "batonsim:", err)
		os.Exit(1)
	}
}

// runFigures is the default mode: the experiment behind each requested
// panel of Figure 8, printed as aligned text tables.
func runFigures(w io.Writer, o options) error {
	if o.list {
		for _, id := range experiments.Figures() {
			fmt.Fprintln(w, id)
		}
		return nil
	}
	opt := experiments.Quick()
	if o.full {
		opt = experiments.Default()
	}
	if o.sizes != "" {
		parsed, err := parseSizes(o.sizes)
		if err != nil {
			return err
		}
		opt.Sizes = parsed
	}
	if o.queries > 0 {
		opt.Queries = o.queries
	}
	if o.data > 0 {
		opt.DataPerNode = o.data
	}
	if o.runs > 0 {
		opt.Runs = o.runs
	}
	opt.Seed = o.s.spec.Seed

	ids := experiments.Figures()
	if o.figure != "" {
		ids = []string{strings.TrimPrefix(strings.ToLower(o.figure), "figure ")}
	}
	for _, id := range ids {
		result, err := experiments.Run(id, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure %s — %s\n", result.ID, result.Title)
		fmt.Fprintln(w, strings.Repeat("-", 72))
		fmt.Fprint(w, result.Table())
		if o.verbose {
			for _, note := range result.Notes {
				fmt.Fprintf(w, "note: %s\n", note)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid network size %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
