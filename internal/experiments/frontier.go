package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/stats"
	"edgesurgeon/internal/surgery"
)

// e24Frontier measures the precomputed Pareto-frontier surgery tables
// against direct per-user optimization on the planner-scale population
// (E23Scenario). For each size it times three things — the one-off table
// build, a legacy plan, and a frontier-backed plan — and cross-checks that
// the frontier path is pure speedup: a planner answering every surgery
// subproblem from the tables must emit exactly the plan a table-less
// planner produces on the same share grid (the empty-set arm snaps shares
// identically but misses every lookup, falling back to the optimizer).
func e24Frontier(sizes []int, nServers, shardThreshold, paritySize int) (*Report, error) {
	r := &Report{
		ID: "E24", Artifact: "Frontier table study",
		Title: fmt.Sprintf("Pareto-frontier surgery tables vs direct optimization (%d servers)", nServers),
	}
	t := stats.NewTable("Frontier build + plan wall-clock vs legacy planning",
		"users", "tables", "probes", "build(s)", "legacy(s)", "frontier(s)", "speedup", "hit(%)")

	var usersMax int
	var buildSecLargest, buildUsPerProbeLargest, frontierSecLargest, legacySecLargest, speedupLargest, hitRateLargest float64
	parityOK := 1.0
	for _, n := range sizes {
		sc := E23Scenario(n, nServers)
		opt := joint.Options{ShardThreshold: shardThreshold}

		t0 := time.Now()
		set, err := joint.BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
		if err != nil {
			return nil, fmt.Errorf("E24 build n=%d: %w", n, err)
		}
		buildSec := time.Since(t0).Seconds()

		legacy := &joint.Planner{Opt: opt}
		t1 := time.Now()
		if _, err := legacy.Plan(sc); err != nil {
			return nil, fmt.Errorf("E24 legacy n=%d: %w", n, err)
		}
		legacySec := time.Since(t1).Seconds()

		fopt := opt
		fopt.Frontiers = set
		t2 := time.Now()
		fPlan, err := (&joint.Planner{Opt: fopt}).Plan(sc)
		if err != nil {
			return nil, fmt.Errorf("E24 frontier n=%d: %w", n, err)
		}
		frontierSec := time.Since(t2).Seconds()

		hitRate := 0.0
		if lookups := fPlan.FrontierHits + fPlan.FrontierMisses; lookups > 0 {
			hitRate = 100 * float64(fPlan.FrontierHits) / float64(lookups)
		}
		speedup := legacySec / frontierSec
		t.AddRow(n, set.Len(), set.Probes(), fmt.Sprintf("%.2f", buildSec),
			fmt.Sprintf("%.2f", legacySec), fmt.Sprintf("%.3f", frontierSec),
			fmt.Sprintf("%.1fx", speedup), fmt.Sprintf("%.1f", hitRate))

		if n == paritySize {
			copt := opt
			copt.Frontiers = surgery.NewFrontierSet(surgery.BuildOptions{Surgery: opt.Surgery})
			cPlan, err := (&joint.Planner{Opt: copt}).Plan(sc)
			if err != nil {
				return nil, fmt.Errorf("E24 parity n=%d: %w", n, err)
			}
			if !reflect.DeepEqual(fPlan.Decisions, cPlan.Decisions) || fPlan.Objective != cPlan.Objective {
				parityOK = 0
				r.note("WARNING: frontier-path plan diverged from the optimizer-fallback plan at n=%d (objective %.6f vs %.6f)",
					n, fPlan.Objective, cPlan.Objective)
			} else {
				r.note("parity: frontier-path plan at n=%d is bit-identical to the optimizer-fallback plan on the same share grid", n)
			}
		}
		if n > usersMax {
			usersMax = n
			buildSecLargest, frontierSecLargest, legacySecLargest = buildSec, frontierSec, legacySec
			buildUsPerProbeLargest = 1e6 * buildSec / float64(max(set.Probes(), 1))
			speedupLargest, hitRateLargest = speedup, hitRate
		}
	}
	r.Tables = append(r.Tables, t)
	r.metric("cores", float64(runtime.GOMAXPROCS(0)))
	r.metric("users_max", float64(usersMax))
	r.metric("build_sec", buildSecLargest)
	r.metric("build_us_per_probe", buildUsPerProbeLargest)
	r.metric("legacy_wallclock_sec", legacySecLargest)
	r.metric("frontier_wallclock_sec", frontierSecLargest)
	r.metric("speedup_vs_legacy", speedupLargest)
	r.metric("hit_rate_pct", hitRateLargest)
	r.metric("parity_ok", parityOK)
	r.note("at the largest size the frontier path planned in %.3fs vs %.2fs legacy (%.1fx); the %.2fs table build amortizes across replans of the same scenario",
		frontierSecLargest, legacySecLargest, speedupLargest, buildSecLargest)
	return r, nil
}

// E24FrontierStudy regenerates the frontier-table study at planner-scale
// sizes, with the plan-parity cross-check at the dual-arm size.
func E24FrontierStudy() (*Report, error) {
	return e24Frontier([]int{1000, 10000}, 8, 256, 1000)
}

// E24QuickFrontierStudy is the CI-sized variant behind `experiments
// -quick`: one small size with the parity check on, emitting every metric
// key the full run emits.
func E24QuickFrontierStudy() (*Report, error) {
	return e24Frontier([]int{256}, 4, 64, 256)
}
