package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/p2p"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

// scenario is the one thing every live-cluster mode runs: a cluster to
// build (or a coordinator to attach to), a workload to drive at it, and a
// file for the flight-recorder dump.
type scenario struct {
	mode       string
	spec       driver.Spec
	seedAddr   string
	cfg        driver.Config
	metricsOut string
}

// result is what the comparing modes (skewload -compare, rangecmp) read
// back from one scenario run.
type result struct {
	report              driver.Report
	imbBefore, imbAfter float64
	balanced            int64
}

// runScenario builds the cluster, runs the closed-loop workload against it
// and — unless the cluster is an attached data-plane client, which may not
// run structural operations — ends with the same closing sequence for every
// mode: repair whatever the scheduler left dead, quiesce the balancer,
// audit the structural invariants, then sync and audit replication.
func runScenario(w io.Writer, s scenario) (res result, err error) {
	var (
		cluster *p2p.Cluster
		keys    []keyspace.Key
		stop    func()
	)
	if s.seedAddr != "" {
		fmt.Fprintf(w, "attaching to coordinator at %s, preloading %d items ...\n", s.seedAddr, s.spec.Items)
		if cluster, keys, err = driver.Attach(s.seedAddr, s.spec.Items, s.spec.Seed); err == nil {
			stop = cluster.Stop
		}
	} else {
		dist := "uniform"
		if s.spec.Distribution == workload.Zipf {
			dist = fmt.Sprintf("Zipf(%.2f)", s.spec.ZipfTheta)
		}
		fmt.Fprintf(w, "building live cluster: %d peers, %d %s items, fanout %d, transport %s ...\n",
			s.spec.Peers, s.spec.Items, dist, s.spec.Fanout, s.spec.Transport)
		cluster, keys, stop, err = driver.Build(s.spec)
	}
	if err != nil {
		return res, err
	}
	defer stop()
	startSize := cluster.Size()
	coordinator := s.seedAddr == "" // an attached client may not run structural operations
	if coordinator {
		if res.imbBefore, err = cluster.ImbalanceRatio(); err != nil {
			return res, err
		}
	}

	s.cfg.Keys = keys
	res.report = driver.Run(cluster, s.cfg)
	fmt.Fprintf(w, "%s run (route %s, range plan %s, autobalance %v; churn requested kill/join/depart/recover %d/%d/%d/%d)\n",
		s.mode, s.cfg.Route, cmp.Or(s.cfg.Plan, driver.PlanParallel), s.cfg.AutoBalance, s.cfg.KillPeers, s.cfg.JoinPeers, s.cfg.DepartPeers, s.cfg.RecoverPeers)
	fmt.Fprint(w, res.report.String())
	fmt.Fprintf(w, "cluster size: %d -> %d\n", startSize, cluster.Size())
	fmt.Fprintf(w, "peer-to-peer messages delivered: %d\n", cluster.Messages())
	if s.cfg.Route == p2p.RouteDirect {
		fmt.Fprintf(w, "stale direct routes (fell back to overlay): %d\n", cluster.StaleRoutes())
	}
	if coordinator {
		if err = settleAndAudit(w, cluster, s, &res); err != nil {
			return res, err
		}
	}
	return res, writeObsDump(w, cluster, s.metricsOut)
}

// settleAndAudit brings the cluster to rest and checks it.
func settleAndAudit(w io.Writer, cluster *p2p.Cluster, s scenario, res *result) error {
	// Repair whatever the scheduler left dead, so the audits run on a fully
	// healthy cluster — and so the run itself proves ErrOwnerDown is always
	// transient. A lost replica (a peer and its holder down together) still
	// heals the range.
	repaired := 0
	for _, id := range cluster.PeerIDs() {
		if cluster.Alive(id) {
			continue
		}
		if _, err := cluster.Recover(id); err != nil && !errors.Is(err, p2p.ErrReplicaLost) {
			return fmt.Errorf("final repair of peer %d: %w", id, err)
		}
		repaired++
	}
	if repaired > 0 {
		fmt.Fprintf(w, "final sweep repaired %d still-dead peer(s)\n", repaired)
	}
	if s.cfg.AutoBalance {
		// A short run can end between ticker fires; finish the balancer's
		// work so the imbalance below is not a race against it.
		if _, err := cluster.BalanceUntilStable(p2p.AutoBalanceConfig{}, 8*s.spec.Peers); err != nil {
			return err
		}
	}
	snaps, err := cluster.Snapshot()
	if err != nil {
		return err
	}
	if err := core.VerifySnapshot(cluster.Domain(), snaps); err != nil {
		return fmt.Errorf("post-%s structural invariants FAILED: %w", s.mode, err)
	}
	if err := cluster.SyncReplicas(); err != nil {
		return err
	}
	replicas, err := cluster.Replicas()
	if err != nil {
		return err
	}
	if err := core.VerifyReplication(snaps, replicas); err != nil {
		return fmt.Errorf("post-%s replication invariants FAILED: %w", s.mode, err)
	}
	if res.imbAfter, err = cluster.ImbalanceRatio(); err != nil {
		return err
	}
	res.balanced = cluster.BalanceEvents()
	items := 0
	for _, ps := range snaps {
		items += len(ps.Items)
	}
	fmt.Fprintf(w, "imbalance ratio (max/avg stored items): %.2f -> %.2f  (balance actions: %d)\n", res.imbBefore, res.imbAfter, res.balanced)
	fmt.Fprintf(w, "post-quiesce audit: %d peers, %d items, structural + replication invariants OK\n", len(snaps), items)
	return nil
}

// runOnce runs the scenario as given: the throughput, churnload and
// faultload presets.
func runOnce(w io.Writer, o options) error {
	_, err := runScenario(w, o.s)
	return err
}

// runSkew is the skewload preset. With -compare it runs the balancer-off
// and balancer-on scenarios back to back on identical clusters and fails
// unless the balancer cut the final imbalance ratio — the CI smoke gate for
// the adaptive load-management layer. With -metricsout both runs write the
// file; it ends up describing the balancer-on run, the one the gate is about.
func runSkew(w io.Writer, o options) error {
	if !o.compare {
		return runOnce(w, o)
	}
	run := func(label string, balance bool) (result, error) {
		fmt.Fprintf(w, "=== balancer %s ===\n", label)
		defer fmt.Fprintln(w)
		s := o.s
		s.cfg.AutoBalance = balance
		return runScenario(w, s)
	}
	off, err := run("OFF", false)
	if err != nil {
		return err
	}
	on, err := run("ON", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "imbalance ratio: %.2f (off) vs %.2f (on)  |  ops/sec: %.0f (off) vs %.0f (on)  |  balance actions: %d\n",
		off.imbAfter, on.imbAfter, off.report.OpsPerSec, on.report.OpsPerSec, on.balanced)
	if on.imbAfter >= off.imbAfter {
		return fmt.Errorf("skewload gate FAILED: auto-balance imbalance %.2f not below balancer-off %.2f", on.imbAfter, off.imbAfter)
	}
	fmt.Fprintln(w, "skewload gate passed: the auto-balancer cut the imbalance ratio")
	return nil
}

// runRangeCompare is the rangecmp preset: the same range-only scenario run
// once per plan — the serial chain walk, the parallel fan-out and the
// adaptive planner, or just -plan — on identical clusters (same seed, so
// every plan answers the same (via, range) sequence and routing distance
// cannot differ between them), then the per-query latencies side by side.
func runRangeCompare(w io.Writer, o options) error {
	plans := []string{driver.PlanSerial, driver.PlanParallel, driver.PlanAdaptive}
	if o.s.cfg.Plan != "" {
		plans = []string{o.s.cfg.Plan}
	}
	reports := make(map[string]driver.Report, len(plans))
	for _, plan := range plans {
		fmt.Fprintf(w, "=== plan %s ===\n", plan)
		s := o.s
		s.cfg.Plan = plan
		res, err := runScenario(w, s)
		if err != nil {
			return err
		}
		reports[plan] = res.report
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d range queries per plan, selectivity %.3f (%s widths, ≈%.0f peers per range at the base width)\n",
		o.s.cfg.Ops, o.s.cfg.RangeSelectivity, cmp.Or(o.s.cfg.RangeDist, driver.RangeDistFixed), o.s.cfg.RangeSelectivity*float64(o.s.spec.Peers))
	fmt.Fprintf(w, "%-18s %10s %10s %10s %10s\n", "plan", "mean µs", "p50 µs", "p99 µs", "hops p99")
	for _, plan := range plans {
		lat := reports[plan].Latency[driver.OpRange]
		fmt.Fprintf(w, "%-18s %10.1f %10.1f %10.1f %10.0f\n", plan,
			lat.Mean()/1e3, float64(lat.Percentile(50))/1e3, float64(lat.Percentile(99))/1e3, reports[plan].HopsP99)
	}
	serial, parallel := reports[driver.PlanSerial].Latency[driver.OpRange], reports[driver.PlanParallel].Latency[driver.OpRange]
	if parallel.Mean() > 0 && serial.Mean() > 0 {
		fmt.Fprintf(w, "parallel speedup over serial: %.2fx (mean latency)\n", serial.Mean()/parallel.Mean())
	}
	return nil
}

// obsDump is the schema of the -metricsout file: the full metrics-registry
// snapshot (cluster totals plus the per-peer breakdown), the retained
// structural-op journal, and the hop chains of the most recent sampled
// requests. One file per run, written after the workload and any audits.
type obsDump struct {
	Metrics obs.ClusterMetrics `json:"metrics"`
	Events  []obs.Event        `json:"events"`
	Traces  [][]obs.Hop        `json:"traces"`
}

// writeObsDump snapshots the cluster's flight recorder into path as JSON.
// An empty path means -metricsout was not given and nothing is written.
func writeObsDump(w io.Writer, c *p2p.Cluster, path string) error {
	if path == "" {
		return nil
	}
	dump := obsDump{
		Metrics: c.Metrics(),
		Events:  c.Events(),
		Traces:  c.Traces(),
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "flight-recorder dump written to %s (%d peers, %d journal events, %d traces)\n",
		path, len(dump.Metrics.Peers), len(dump.Events), len(dump.Traces))
	return nil
}
