package experiments

import (
	"fmt"
	"runtime"
	"time"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/stats"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// E23Scenario builds the planner-scale scenario behind E23, E24, E26 and
// the sharded planner benchmarks: nUsers cycling over three device classes
// and four models in front of nServers alternating GPU/CPU servers with
// static uplinks — the same population mix as mixedScenario, widened to
// arbitrary server counts so the shard decomposition has structure to
// exploit. Per-user rates are modest: deep overload makes the
// objective a shed-ordering artifact and any planner-vs-planner gap
// meaningless, so the scale study stays in the regime the planner is
// designed for.
func E23Scenario(nUsers, nServers int) *joint.Scenario {
	devices := []*hardware.Profile{mustDevice("rpi4"), mustDevice("phone-soc"), mustDevice("jetson-nano")}
	// One model instance per architecture, shared across users — models are
	// read-only to the planner, and pointer identity is what the surgery
	// cache and the frontier tables key on: distinct instances of the same
	// architecture would defeat both (100k users would otherwise demand
	// 100k frontier tables instead of one per population class).
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}
	sc := &joint.Scenario{}
	for s := 0; s < nServers; s++ {
		prof, mbps, rtt := "edge-gpu-t4", 100.0, 0.004
		if s%2 == 1 {
			prof, mbps, rtt = "edge-cpu-16c", 70.0, 0.006
		}
		sc.Servers = append(sc.Servers, joint.Server{
			Name:    fmt.Sprintf("srv%02d", s),
			Profile: mustDevice(prof),
			Link:    netmodel.NewStatic(fmt.Sprintf("ap%02d", s), netmodel.Mbps(mbps), rtt),
			RTT:     rtt,
		})
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name:       fmt.Sprintf("user%05d", i),
			Model:      models[i%len(models)],
			Device:     devices[i%len(devices)],
			Rate:       0.05,
			Deadline:   1.0,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(60000 + i),
		})
	}
	return sc
}

// e23Scale times the hierarchical sharded planner against the monolithic
// planner. bothSizes run both arms and report wall-clock speedup plus the
// relative objective gap; shardedSizes run only the sharded arm (the
// monolithic planner's reassignment greedy is super-linear and becomes
// intractable there — that intractability is the experiment's premise).
func e23Scale(bothSizes, shardedSizes []int, nServers, shardThreshold int) (*Report, error) {
	r := &Report{
		ID: "E23", Artifact: "Planner scale study",
		Title: fmt.Sprintf("Hierarchical sharded planner vs monolithic (%d servers)", nServers),
	}
	t := stats.NewTable("Planner wall-clock, sharded vs monolithic vs frontier-backed",
		"users", "shards", "mono(s)", "sharded(s)", "frontier(s)", "speedup", "gap(%)")
	cores := runtime.GOMAXPROCS(0)

	var worstGap, bestSpeedup, speedupLargest, shardedSecLargest, frontierSecLargest float64
	var usersMax int
	runArm := func(n int, withMono bool) error {
		sc := E23Scenario(n, nServers)

		sp := &joint.Planner{Opt: joint.Options{ShardThreshold: shardThreshold}}
		t0 := time.Now()
		shPlan, err := sp.Plan(sc)
		if err != nil {
			return fmt.Errorf("E23 sharded n=%d: %w", n, err)
		}
		shSec := time.Since(t0).Seconds()

		// Frontier arm: same sharded route with precomputed Pareto-frontier
		// surgery tables answering the per-user subproblems (the table
		// build is excluded — it amortizes across replans; E24 times it).
		fopt := joint.Options{ShardThreshold: shardThreshold}
		set, err := joint.BuildFrontierSet(sc, fopt, surgery.BuildOptions{Surgery: fopt.Surgery})
		if err != nil {
			return fmt.Errorf("E23 frontier build n=%d: %w", n, err)
		}
		fopt.Frontiers = set
		t2 := time.Now()
		if _, err := (&joint.Planner{Opt: fopt}).Plan(sc); err != nil {
			return fmt.Errorf("E23 frontier n=%d: %w", n, err)
		}
		frSec := time.Since(t2).Seconds()

		monoSec, gap := 0.0, 0.0
		monoCell, speedCell, gapCell := "-", "-", "-"
		if withMono {
			mp := &joint.Planner{}
			t1 := time.Now()
			moPlan, err := mp.Plan(sc)
			if err != nil {
				return fmt.Errorf("E23 monolithic n=%d: %w", n, err)
			}
			monoSec = time.Since(t1).Seconds()
			gap = 100 * (shPlan.Objective - moPlan.Objective) / moPlan.Objective
			speedup := monoSec / shSec
			monoCell = fmt.Sprintf("%.2f", monoSec)
			speedCell = fmt.Sprintf("%.2fx", speedup)
			gapCell = fmt.Sprintf("%+.3f", gap)
			if gap > worstGap {
				worstGap = gap
			}
			if speedup > bestSpeedup {
				bestSpeedup = speedup
			}
			speedupLargest = speedup
		}
		t.AddRow(n, shPlan.Shards, monoCell, fmt.Sprintf("%.2f", shSec), fmt.Sprintf("%.3f", frSec), speedCell, gapCell)
		if n > usersMax {
			usersMax = n
			shardedSecLargest = shSec
			frontierSecLargest = frSec
		}
		return nil
	}
	for _, n := range bothSizes {
		if err := runArm(n, true); err != nil {
			return nil, err
		}
	}
	for _, n := range shardedSizes {
		if err := runArm(n, false); err != nil {
			return nil, err
		}
	}
	r.Tables = append(r.Tables, t)
	r.metric("cores", float64(cores))
	r.metric("users_max", float64(usersMax))
	r.metric("speedup_vs_monolithic", speedupLargest)
	r.metric("gap_worst_pct", worstGap)
	r.metric("sharded_wallclock_sec", shardedSecLargest)
	r.metric("frontier_wallclock_sec", frontierSecLargest)
	r.note("speedup at the largest dual-arm size: %.2fx on %d core(s); worst objective gap %+.3f%%", speedupLargest, cores, worstGap)
	if cores < 8 {
		r.note("machine has %d core(s) < 8: the speedup above is purely algorithmic (shard-local planning skips the cross-server reassignment greedy); with more cores the concurrent shard fan-out multiplies it", cores)
	}
	return r, nil
}

// E23PlannerScale regenerates the planner scale study: monolithic and
// sharded arms at 1k and 10k users, sharded alone at 100k.
func E23PlannerScale() (*Report, error) {
	return e23Scale([]int{1000, 10000}, []int{100000}, 8, 256)
}

// E23QuickPlannerScale is the CI-sized variant behind `experiments -quick`:
// one dual-arm size plus one sharded-only size, small enough for the
// bench-smoke job yet still exercising every metric key the full run
// emits.
func E23QuickPlannerScale() (*Report, error) {
	return e23Scale([]int{256}, []int{4000}, 4, 64)
}
