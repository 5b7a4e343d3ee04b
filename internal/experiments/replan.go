package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/stats"
)

// e26Drift returns a copy of sc with server s's uplink replaced by a static
// link at factor × its current planning-time mean rate — the frozen-scenario
// shape of drift the control plane's replans see.
func e26Drift(sc *joint.Scenario, s int, factor float64) *joint.Scenario {
	out := *sc
	out.Servers = append([]joint.Server(nil), sc.Servers...)
	horizon := sc.PlanningHorizon
	if horizon <= 0 {
		horizon = 60
	}
	rate := netmodel.MeanRate(sc.Servers[s].Link, horizon) * factor
	out.Servers[s].Link = netmodel.NewStatic(sc.Servers[s].Name+"-drift", rate, sc.Servers[s].RTT)
	return &out
}

// e26Replan times the incremental delta-replan path against a same-state
// full replan. Per size: plan the e23 population with the hierarchical
// sharded planner, drift one server's uplink to 0.7× (a single dirty
// shard), then replan the drifted scenario both ways from the same previous
// plan. The speedup is the tentpole claim — a dirty-single-shard delta
// replan is O(shard), not O(n) — and the objective gap pins that the saved
// work costs at most 1% of plan quality.
func e26Replan(sizes []int, nServers, shardThreshold int) (*Report, error) {
	r := &Report{
		ID: "E26", Artifact: "Replan latency study",
		Title: fmt.Sprintf("Delta replan vs full replan, single dirty shard (%d servers)", nServers),
	}
	t := stats.NewTable("Replan wall-clock, full vs dirty-single-shard delta",
		"users", "full(s)", "delta(s)", "speedup", "gap(%)", "delta ops/full ops")

	var usersMax int
	var fullSecLargest, deltaSecLargest, speedupLargest, gapLargest, opsFracLargest float64
	for _, n := range sizes {
		sc := e26Drift(E23Scenario(n, nServers), 0, 1.0) // normalize links to static form
		p := &joint.Planner{Opt: joint.Options{ShardThreshold: shardThreshold}}
		prev, err := p.Plan(sc)
		if err != nil {
			return nil, fmt.Errorf("E26 initial plan n=%d: %w", n, err)
		}
		drifted := e26Drift(sc, 0, 0.7)
		dirty := make([]bool, nServers)
		dirty[0] = true

		t0 := time.Now()
		full, err := p.Plan(drifted)
		if err != nil {
			return nil, fmt.Errorf("E26 full replan n=%d: %w", n, err)
		}
		fullSec := time.Since(t0).Seconds()

		t1 := time.Now()
		delta, err := p.PlanDelta(drifted, prev, dirty)
		if err != nil {
			return nil, fmt.Errorf("E26 delta replan n=%d: %w", n, err)
		}
		deltaSec := time.Since(t1).Seconds()

		speedup := fullSec / math.Max(deltaSec, 1e-9)
		gap := 100 * (delta.Objective - full.Objective) / full.Objective
		opsFrac := float64(delta.SurgeryOps) / math.Max(float64(full.SurgeryOps), 1)
		t.AddRow(n, fmt.Sprintf("%.3f", fullSec), fmt.Sprintf("%.4f", deltaSec),
			fmt.Sprintf("%.1fx", speedup), fmt.Sprintf("%+.3f", gap), fmt.Sprintf("%.4f", opsFrac))
		if n >= usersMax {
			usersMax = n
			fullSecLargest, deltaSecLargest = fullSec, deltaSec
			speedupLargest, gapLargest, opsFracLargest = speedup, gap, opsFrac
		}
	}
	r.Tables = append(r.Tables, t)
	r.metric("users_max", float64(usersMax))
	r.metric("full_replan_sec", fullSecLargest)
	r.metric("delta_replan_sec", deltaSecLargest)
	r.metric("replan_speedup", speedupLargest)
	r.metric("delta_gap_pct", gapLargest)
	r.metric("delta_ops_frac", opsFracLargest)
	r.metric("dirty_shards", 1)
	cores := runtime.GOMAXPROCS(0)
	r.metric("cores", float64(cores))
	r.note("at %d users a single-dirty-shard delta replan is %.1fx faster than a full replan (%.4f s vs %.3f s) on %d core(s), objective gap %+.3f%%",
		usersMax, speedupLargest, deltaSecLargest, fullSecLargest, cores, gapLargest)
	return r, nil
}

// E26ReplanLatency regenerates the replan-latency study at control-plane
// scale: 10k and 100k users over 8 servers, one drifted shard.
func E26ReplanLatency() (*Report, error) {
	return e26Replan([]int{10000, 100000}, 8, 256)
}

// E26QuickReplanLatency is the CI-sized variant behind `experiments -quick`
// (the bench-replan-smoke make target): one size, small enough for CI, same
// metric keys as the full run.
func E26QuickReplanLatency() (*Report, error) {
	return e26Replan([]int{4000}, 4, 64)
}
