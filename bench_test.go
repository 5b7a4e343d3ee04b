// Benchmarks regenerating every evaluation artifact (one benchmark per
// table/figure, BenchmarkE1..BenchmarkE21) plus microbenchmarks for the
// performance-critical kernels: the surgery DP, the allocation water-fill,
// the simulator event loop and the nn matmul.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure's data:
//
//	go test -bench=BenchmarkE4 -benchtime=1x
package edgesurgeon

import (
	"fmt"
	"math/rand"
	"testing"

	"edgesurgeon/internal/alloc"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/experiments"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/nn"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// benchExperiment runs one experiment per iteration; the regenerated tables
// are the artifact, the benchmark time is the cost of regenerating them.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Registry()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runner(); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Table 1: model zoo characteristics.
func BenchmarkE1ModelZoo(b *testing.B) { benchExperiment(b, "E1") }

// Table 2: per-model latency across hardware classes.
func BenchmarkE2HardwareProfile(b *testing.B) { benchExperiment(b, "E2") }

// Figure 3: latency vs uplink bandwidth.
func BenchmarkE3BandwidthSweep(b *testing.B) { benchExperiment(b, "E3") }

// Figure 4: latency vs number of users.
func BenchmarkE4UserScaling(b *testing.B) { benchExperiment(b, "E4") }

// Figure 5: deadline satisfaction vs arrival rate.
func BenchmarkE5DeadlineVsRate(b *testing.B) { benchExperiment(b, "E5") }

// Figure 6: accuracy-latency frontier.
func BenchmarkE6AccuracyLatency(b *testing.B) { benchExperiment(b, "E6") }

// Figure 7: joint vs single-axis ablations.
func BenchmarkE7Ablation(b *testing.B) { benchExperiment(b, "E7") }

// Figure 8: heterogeneity sensitivity.
func BenchmarkE8Heterogeneity(b *testing.B) { benchExperiment(b, "E8") }

// Figure 9: planner runtime scalability.
func BenchmarkE9PlannerScalability(b *testing.B) { benchExperiment(b, "E9") }

// Figure 10: block-coordinate convergence.
func BenchmarkE10Convergence(b *testing.B) { benchExperiment(b, "E10") }

// Table 3: optimality gap vs exhaustive assignment.
func BenchmarkE11OptimalityGap(b *testing.B) { benchExperiment(b, "E11") }

// Figure 11: measured multi-exit behaviour of a trained network.
func BenchmarkE12RealMultiExit(b *testing.B) { benchExperiment(b, "E12") }

// Figure 12: online adaptation under fading bandwidth.
func BenchmarkE13OnlineAdaptation(b *testing.B) { benchExperiment(b, "E13") }

// Figure 13 (extension): device energy per task by strategy.
func BenchmarkE14DeviceEnergy(b *testing.B) { benchExperiment(b, "E14") }

// Figure 14 (extension): activation compression before transfer.
func BenchmarkE15Compression(b *testing.B) { benchExperiment(b, "E15") }

// Figure 15 (extension): offload-probe ablation.
func BenchmarkE16ProbeAblation(b *testing.B) { benchExperiment(b, "E16") }

// Figure 16 (extension): priority-weight service differentiation.
func BenchmarkE17PriorityWeights(b *testing.B) { benchExperiment(b, "E17") }

// Figure 17 (extension): service-discipline sensitivity.
func BenchmarkE18DisciplineSensitivity(b *testing.B) { benchExperiment(b, "E18") }

// Table 4 (extension): max sustainable throughput at 90% satisfaction.
func BenchmarkE19SaturationThroughput(b *testing.B) { benchExperiment(b, "E19") }

// Figure 18 (extension): availability under server/link failures.
func BenchmarkE20AvailabilityUnderFailures(b *testing.B) { benchExperiment(b, "E20") }

// Scale study (extension): sharded-simulator throughput at 10k-100k users.
func BenchmarkE21ScaleThroughput(b *testing.B) { benchExperiment(b, "E21") }

// --- microbenchmarks -----------------------------------------------------

func benchEnv(b *testing.B) surgery.Env {
	b.Helper()
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		b.Fatal(err)
	}
	return surgery.Env{
		Device: dev, Server: srv,
		ComputeShare: 0.5, UplinkBps: netmodel.Mbps(25), BandwidthShare: 0.5,
		RTT: 0.004, Difficulty: workload.EasyBiased,
	}
}

// BenchmarkSurgeryOptimize measures one full per-user surgery optimization
// (the inner kernel of the planner's surgery step) on ResNet34, the model
// with the most exit candidates.
func BenchmarkSurgeryOptimize(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surgery.Optimize(m, env, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurgeryOptimizeConstrained adds the accuracy-constrained DP.
func BenchmarkSurgeryOptimizeConstrained(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition, MinAccuracy: 0.72}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surgery.Optimize(m, env, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontierLookup measures one precomputed frontier-table lookup —
// the operation that replaces BenchmarkSurgeryOptimize in the planner's
// frontier-path hot loop. Table construction happens before the timer, as
// it does in production (once per scenario, amortized over every lookup).
func BenchmarkFrontierLookup(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition}
	table, err := surgery.BuildFrontier(surgery.KeyOf(m, env, opt), surgery.BuildOptions{Surgery: opt})
	if err != nil {
		b.Fatal(err)
	}
	grid := table.Grid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := grid.Value(i % grid.Levels())
		bw := grid.Value((i * 7) % grid.Levels())
		if plan, _ := table.Lookup(f, bw); plan.Model == nil {
			b.Fatal("empty frontier lookup")
		}
	}
}

// BenchmarkFrontierBuild measures one frontier-table construction on the
// default grid for an e23-class key (ResNet18 on rpi4 against a T4 server
// on a 100 Mbps uplink): the cost serve.New and every full replan pay per
// surgery key. probes/op counts the optimizer solves construction spends.
func BenchmarkFrontierBuild(b *testing.B) {
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		b.Fatal(err)
	}
	k := surgery.FrontierKey{
		Model: dnn.ResNet18(), Device: dev, Server: srv,
		UplinkBps: netmodel.Mbps(100), RTT: 0.004, Rate: 0.05,
		Difficulty: workload.EasyBiased,
	}
	bo := surgery.BuildOptions{Surgery: surgery.Options{FixedPartition: surgery.FreePartition}}
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		table, err := surgery.BuildFrontier(k, bo)
		if err != nil {
			b.Fatal(err)
		}
		probes += table.Probes()
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

// BenchmarkSurgeryEvaluate measures a single plan evaluation.
func BenchmarkSurgeryEvaluate(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	cand := m.ExitCandidates()
	plan := surgery.Plan{Model: m, Exits: cand[2:6], Theta: 0.2, Partition: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surgery.Evaluate(plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocDeadlineAware measures the per-server allocation kernel at
// a realistic fan-in of 32 users.
func BenchmarkAllocDeadlineAware(b *testing.B) {
	demands := make([]alloc.Demand, 32)
	for i := range demands {
		demands[i] = alloc.Demand{
			Fixed:    0.01 + float64(i%5)*0.002,
			Server:   0.002 + float64(i%7)*0.001,
			Tx:       0.001 + float64(i%3)*0.002,
			Deadline: 0.3,
			Rate:     2,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.DeadlineAware(demands)
	}
}

// BenchmarkJointPlan measures full planning of a 16-user scenario.
func BenchmarkJointPlan(b *testing.B) {
	sc := benchScenario(b, 16)
	planner := &joint.Planner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointPlanFrontier is BenchmarkJointPlan with the planner's inner
// loop answered by precomputed Pareto-frontier tables. The table set is
// built before the timer (once per scenario in production); the measured
// loop is planning alone, for a direct comparison against BenchmarkJointPlan.
func BenchmarkJointPlanFrontier(b *testing.B) {
	sc := benchScenario(b, 16)
	set, err := joint.BuildFrontierSet(sc, joint.Options{}, surgery.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	planner := &joint.Planner{Opt: joint.Options{Frontiers: set}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointPlanFrontierNoMemo ablates the per-(user, server) key→table
// resolution memo from BenchmarkJointPlanFrontier: every lookup constructs
// and hashes a full FrontierKey. The delta against BenchmarkJointPlanFrontier
// is exactly what the memo saves; plans and hit/miss tallies are pinned
// identical by TestFrontierMemoEquivalence.
func BenchmarkJointPlanFrontierNoMemo(b *testing.B) {
	sc := benchScenario(b, 16)
	set, err := joint.BuildFrontierSet(sc, joint.Options{}, surgery.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	planner := &joint.Planner{Opt: joint.Options{Frontiers: set, DisableFrontierMemo: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointPlanParallel sweeps the planner's worker-pool size at two
// population scales. Plans are byte-identical across workers (the planner's
// determinism contract), so the sweep isolates pure wall-clock scaling; the
// surgery memoization cache is active in all arms, as in production.
func BenchmarkJointPlanParallel(b *testing.B) {
	for _, users := range []int{32, 128} {
		sc := benchScenario(b, users)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("users=%d/workers=%d", users, workers), func(b *testing.B) {
				planner := &joint.Planner{Opt: joint.Options{Parallelism: workers}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := planner.Plan(sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkJointPlanUncached isolates what the surgery memoization saves:
// the same 32-user scenario as BenchmarkJointPlanParallel with the cache
// ablated at one worker.
func BenchmarkJointPlanUncached(b *testing.B) {
	sc := benchScenario(b, 32)
	planner := &joint.Planner{Opt: joint.Options{Parallelism: 1, DisableSurgeryCache: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScenario(b *testing.B, n int) *joint.Scenario {
	b.Helper()
	pi, _ := hardware.ByName("rpi4")
	phone, _ := hardware.ByName("phone-soc")
	gpu, _ := hardware.ByName("edge-gpu-t4")
	cpu, _ := hardware.ByName("edge-cpu-16c")
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "g", Profile: gpu, Link: netmodel.NewStatic("a", netmodel.Mbps(40), 0.004), RTT: 0.004},
			{Name: "c", Profile: cpu, Link: netmodel.NewStatic("b", netmodel.Mbps(25), 0.006), RTT: 0.006},
		},
	}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2()}
	devs := []*hardware.Profile{pi, phone}
	for i := 0; i < n; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name: "u", Model: models[i%3], Device: devs[i%2],
			Rate: 2, Deadline: 0.3, Difficulty: workload.EasyBiased,
			Arrivals: workload.Poisson, Seed: int64(i),
		})
	}
	return sc
}

// BenchmarkSimulator measures the event-loop throughput: tasks/op with
// queueing, transfers and early exits.
func BenchmarkSimulator(b *testing.B) {
	sc := benchScenario(b, 8)
	plan, err := (&joint.Planner{}).Plan(sc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := joint.BuildSimConfig(sc, plan, 30, sim.DedicatedShares)
	var tasks int
	for _, u := range cfg.Users {
		tasks += len(u.Tasks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkTransferTime measures rate-trace integration across a fading
// link.
func BenchmarkTransferTime(b *testing.B) {
	link, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States: []float64{netmodel.Mbps(2), netmodel.Mbps(40)}, MeanDwell: 2,
		Horizon: 3600, RTT: 0.004, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netmodel.TransferTime(link, 600_000, float64(i%3000), 0.5)
	}
}

// BenchmarkNNMatMul measures the parallel matmul kernel (128x256 * 256x128).
func BenchmarkNNMatMul(b *testing.B) {
	a := nn.NewMatrix(128, 256)
	c := nn.NewMatrix(256, 128)
	for i := range a.Data {
		a.Data[i] = float64(i%17) * 0.1
	}
	for i := range c.Data {
		c.Data[i] = float64(i%13) * 0.1
	}
	dst := nn.NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.MatMul(dst, a, c)
	}
	b.SetBytes(int64(128 * 256 * 128 * 8))
}

// BenchmarkNNTrainEpoch measures one training epoch of the multi-exit MLP.
func BenchmarkNNTrainEpoch(b *testing.B) {
	ds, err := nn.GaussianMixture(nn.GaussianMixtureConfig{
		Samples: 2000, Features: 16, Classes: 5, Radius: 4, NoiseLo: 0.5, NoiseHi: 2, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.NewMultiExit(nn.Config{In: 16, Hidden: []int{32, 32, 32}, Exits: []int{0, 1}, Classes: 5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainEpoch(ds, 32, 0.05, 0.9, rng)
	}
}

// BenchmarkEndToEnd measures plan + simulate of a 12-user scenario over a
// 30-second horizon — the full pipeline a deployment would run.
func BenchmarkEndToEnd(b *testing.B) {
	sc := benchScenario(b, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := joint.PlanAndSimulate(sc, &joint.Planner{}, 30, sim.DedicatedShares); err != nil {
			b.Fatal(err)
		}
	}
}
