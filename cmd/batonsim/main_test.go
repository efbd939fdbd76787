package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"baton/internal/p2p"
	"baton/internal/workload"
)

// definedFlags returns every flag batonsim defines with its default value
// (a value parse always accepts).
func definedFlags() map[string]string {
	var o options
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	defineFlags(fs, &o)
	defined := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = f.DefValue })
	return defined
}

// TestModeFlagMatrix walks every mode × flag pair generated from the
// presets table: a mode accepts exactly the flags it reads and rejects
// every other one with the hint naming the modes that do read it — no flag
// is ever silently ignored.
func TestModeFlagMatrix(t *testing.T) {
	defined := definedFlags()
	for _, p := range presets {
		for _, f := range strings.Fields(p.flags) {
			if _, ok := defined[f]; !ok {
				t.Errorf("mode %s lists flag -%s, which is not defined", p.name, f)
			}
		}
	}
	for name, def := range defined {
		if name == "mode" {
			continue
		}
		readers := modeNames(name)
		if len(readers) == 0 {
			t.Errorf("flag -%s is defined but no mode reads it", name)
		}
		for i := range presets {
			p := &presets[i]
			_, _, err := parse([]string{"-mode", p.name, "-" + name + "=" + def})
			if p.reads(name) {
				if err != nil {
					t.Errorf("mode %s reads -%s but rejected it: %v", p.name, name, err)
				}
				continue
			}
			want := fmt.Sprintf("mode %q ignores flag(s) -%s (only meaningful in mode %s)", p.name, name, strings.Join(readers, "/"))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("mode %s does not read -%s: got error %v, want %q", p.name, name, err, want)
			}
		}
	}
}

// TestFlagCombinations pins the checks that are not per-flag: the
// transport rules (-seedaddr excludes -listen and every churn flag), the
// value checks, and the command line the old CLI accepted while using none
// of its four flags.
func TestFlagCombinations(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"-mode throughput -transport tcp -seedaddr 127.0.0.1:1", ""},
		{"-mode churnload -transport tcp -listen 127.0.0.1:0", ""},
		{"-mode throughput -transport tcp -seedaddr 127.0.0.1:1 -listen 127.0.0.1:0", "mutually exclusive"},
		{"-mode throughput -transport tcp -seedaddr 127.0.0.1:1 -kill 1", "-kill cannot be combined with -seedaddr"},
		{"-mode throughput -transport tcp -seedaddr 127.0.0.1:1 -joins 1", "ignores flag(s) -joins"},
		{"-mode churnload -transport tcp -seedaddr 127.0.0.1:1 -departs 1", "ignores flag(s) -seedaddr"},
		{"-mode faultload -transport tcp -seedaddr 127.0.0.1:1 -recover 1", "ignores flag(s) -seedaddr"},
		{"-mode skewload -transport tcp -seedaddr 127.0.0.1:1 -autobalance", "ignores flag(s) -seedaddr"},
		{"-mode throughput -seedaddr 127.0.0.1:1", "-seedaddr requires -transport tcp"},
		{"-mode churnload -listen 127.0.0.1:0", "-listen requires -transport tcp"},
		{"-mode churnload -transport udp", "unknown -transport"},
		{"-mode throughput -route sideways", "unknown route mode"},
		{"-mode throughput -fanout 1", "invalid -fanout"},
		{"-mode throughput -plan zigzag", "unknown plan"},
		{"-mode rangecmp -rangedist lumpy", "unknown range distribution"},
		{"-mode bench", "unknown mode"},
		{"-mode rangecmp -clients 8 -ops 5 -figure 8d -sizes 10", "ignores flag(s) -clients (only meaningful in mode throughput/churnload/faultload/skewload), -figure (only meaningful in mode figures), -ops"},
		{"-peers 64", `mode "figures" ignores flag(s) -peers`},
	} {
		_, _, err := parse(strings.Fields(tc.args))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestPresetDefaults checks what each preset fills in, and that an explicit
// zero is never overridden by a mode's default churn.
func TestPresetDefaults(t *testing.T) {
	cfgOf := func(args string) scenario {
		t.Helper()
		o, _, err := parse(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		return o.s
	}
	churn := func(s scenario) [4]int {
		return [4]int{s.cfg.KillPeers, s.cfg.JoinPeers, s.cfg.DepartPeers, s.cfg.RecoverPeers}
	}
	for args, want := range map[string][4]int{
		"-mode throughput -peers 64":                   {0, 0, 0, 0},
		"-mode throughput -peers 64 -kill 3":           {3, 0, 0, 0},
		"-mode churnload -peers 64":                    {0, 16, 16, 0},
		"-mode churnload -peers 2":                     {0, 1, 1, 0},
		"-mode churnload -peers 64 -kill 0":            {0, 0, 0, 0},
		"-mode churnload -peers 64 -joins 5":           {0, 5, 0, 0},
		"-mode faultload -peers 64":                    {16, 0, 0, 16},
		"-mode faultload -peers 64 -kill 0":            {0, 0, 0, 0},
		"-mode faultload -peers 64 -kill 6 -recover 2": {6, 0, 0, 2},
		"-mode skewload -peers 64":                     {0, 0, 0, 0},
	} {
		if got := churn(cfgOf(args)); got != want {
			t.Errorf("%s: kill/join/depart/recover = %v, want %v", args, got, want)
		}
	}
	if s := cfgOf("-mode skewload -theta 0.8 -seed 9"); s.spec.Distribution != workload.Zipf || s.spec.ZipfTheta != 0.8 ||
		s.cfg.Distribution != workload.Zipf || s.cfg.ZipfTheta != 0.8 || s.spec.Seed != 9 || s.cfg.Seed != 9 {
		t.Errorf("skewload did not skew both the data set and the key stream: spec %+v cfg %+v", s.spec, s.cfg)
	}
	if s := cfgOf("-mode rangecmp"); s.cfg.Clients != 1 || s.cfg.Ops != 200 || s.cfg.RangeFraction != 1 || s.cfg.GetFraction+s.cfg.PutFraction+s.cfg.DeleteFraction != 0 {
		t.Errorf("rangecmp default is not 200 sequential range-only queries: %+v", s.cfg)
	}
	if s := cfgOf("-mode rangecmp -queries 50"); s.cfg.Ops != 50 {
		t.Errorf("rangecmp -queries 50 ran %d queries", s.cfg.Ops)
	}
	if s := cfgOf("-mode throughput -route direct"); s.cfg.Route != p2p.RouteDirect {
		t.Error("-route direct did not select the direct route mode")
	}
}

// TestRunPresets runs every preset end to end on a 16-peer cluster, on the
// in-process transport and over loopback TCP: each must print its report
// and end in the structural and replication audits.
func TestRunPresets(t *testing.T) {
	small := " -peers 16 -items 1500 -clients 4 -ops 800"
	for name, args := range map[string]string{
		"throughput": "-mode throughput -kill 2 -route direct" + small,
		"churnload":  "-mode churnload -joins 3 -departs 3" + small,
		"faultload":  "-mode faultload -kill 3" + small,
		"skewload":   "-mode skewload -compare" + small,
		"rangecmp":   "-mode rangecmp -peers 16 -items 1500 -queries 60 -selectivity 0.2",
	} {
		for _, transport := range []string{"local", "tcp"} {
			t.Run(name+"/"+transport, func(t *testing.T) {
				o, mode, err := parse(strings.Fields(args + " -transport " + transport))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := mode.run(&out, o); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				runs := map[string]int{"skewload": 2, "rangecmp": 3}[name]
				if runs == 0 {
					runs = 1
				}
				for _, section := range []string{
					"building live cluster: 16 peers", name + " run (route ", "elapsed ", "hops p50/p99",
					"cluster size: 16 -> ", "peer-to-peer messages delivered", "imbalance ratio (max/avg stored items)",
					"structural + replication invariants OK",
				} {
					if got := strings.Count(out.String(), section); got != runs {
						t.Errorf("section %q printed %d times, want %d\n%s", section, got, runs, out.String())
					}
				}
				for _, closing := range map[string][]string{
					"skewload": {"=== balancer OFF ===", "=== balancer ON ===", "skewload gate passed"},
					"rangecmp": {"=== plan serial ===", "=== plan adaptive ===", "parallel speedup over serial"},
				}[name] {
					if !strings.Contains(out.String(), closing) {
						t.Errorf("missing %q\n%s", closing, out.String())
					}
				}
			})
		}
	}
}

// TestRunFigures runs the default mode on a toy size.
func TestRunFigures(t *testing.T) {
	o, mode, err := parse(strings.Fields("-figure 8d -sizes 20,40 -queries 20 -data 5 -runs 1"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := mode.run(&out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Figure 8d — ") || strings.Count(out.String(), "\n") < 5 {
		t.Fatalf("unexpected figures output:\n%s", out.String())
	}
}
