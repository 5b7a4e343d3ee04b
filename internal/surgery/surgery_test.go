package surgery

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

func testEnv(t testing.TB, uplinkMbps float64) Env {
	t.Helper()
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		t.Fatal(err)
	}
	return Env{
		Device:       dev,
		Server:       srv,
		ComputeShare: 1, UplinkBps: netmodel.Mbps(uplinkMbps), BandwidthShare: 1,
		RTT:        0.005,
		Difficulty: workload.UniformDifficulty,
	}
}

func TestCurvesShape(t *testing.T) {
	c := DefaultCurves()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Confidence monotone in depth, decreasing in theta.
	if c.Confidence(0.2, 0) >= c.Confidence(0.8, 0) {
		t.Error("confidence not increasing in depth")
	}
	if c.Confidence(0.5, 0.1) <= c.Confidence(0.5, 0.6) {
		t.Error("confidence not decreasing in theta")
	}
	if c.Confidence(1, 0.9) != 1 {
		t.Error("final exit must have confidence 1")
	}
	if c.Confidence(0, 0) != 0 {
		t.Error("zero-depth confidence must be 0")
	}
	// Accuracy monotone in depth, capped at Final.
	if c.Accuracy(0.3) >= c.Accuracy(0.9) {
		t.Error("accuracy not increasing in depth")
	}
	if c.Accuracy(1) != c.Final {
		t.Errorf("Accuracy(1) = %g, want %g", c.Accuracy(1), c.Final)
	}
	if c.Accuracy(0) < c.Final*c.Floor-1e-12 {
		t.Errorf("Accuracy(0) = %g below floor", c.Accuracy(0))
	}
}

func TestCurveProperties(t *testing.T) {
	c := DefaultCurves()
	f := func(a, b, th uint16) bool {
		x1 := float64(a) / 65535
		x2 := float64(b) / 65535
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		theta := float64(th) / 65536
		c1, c2 := c.Confidence(x1, theta), c.Confidence(x2, theta)
		return c1 >= 0 && c2 <= 1 && c1 <= c2+1e-12 && c.Accuracy(x1) <= c.Accuracy(x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

func TestHeadCost(t *testing.T) {
	m := dnn.AlexNet()
	cut := m.ExitCandidates()[0]
	flops, params := HeadCost(m, cut)
	if flops <= 0 || params <= 0 {
		t.Fatalf("head cost %d FLOPs %d params", flops, params)
	}
	out := m.Units[cut-1].Out()
	wantParams := int64(out.C)*1000 + 1000
	if params != wantParams {
		t.Errorf("head params = %d, want %d", params, wantParams)
	}
}

func TestPlanValidate(t *testing.T) {
	m := dnn.AlexNet()
	good := Plan{Model: m, Exits: []int{2, 4}, Theta: 0.3, Partition: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Plan{
		{Model: m, Partition: -1},
		{Model: m, Partition: m.NumUnits() + 1},
		{Model: m, Theta: 1, Partition: 0},
		{Model: m, Exits: []int{4, 2}, Partition: 5},
		{Model: m, Exits: []int{2, 2}, Partition: 5},
		{Model: m, Exits: []int{m.NumUnits()}, Partition: 5},
		{Model: m, Exits: []int{0}, Partition: 5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %v", i, p)
		}
	}
}

func TestEvaluateLocalOnly(t *testing.T) {
	env := testEnv(t, 10)
	m := dnn.AlexNet()
	ev, err := Evaluate(LocalOnly(m), env)
	if err != nil {
		t.Fatal(err)
	}
	want := env.Device.ModelTime(m)
	if math.Abs(ev.Latency-want) > 1e-9 {
		t.Errorf("local latency = %g, want %g", ev.Latency, want)
	}
	if ev.ServerSec != 0 || ev.TxSec != 0 || ev.CrossProb != 0 {
		t.Errorf("local plan leaked offload terms: %+v", ev)
	}
	if math.Abs(ev.Accuracy-DefaultCurves().Final) > 1e-9 {
		t.Errorf("local accuracy = %g, want final %g", ev.Accuracy, DefaultCurves().Final)
	}
	var sum float64
	for _, p := range ev.ExitProbs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("exit probs sum to %g", sum)
	}
}

func TestEvaluateFullOffload(t *testing.T) {
	env := testEnv(t, 10)
	m := dnn.AlexNet()
	ev, err := Evaluate(FullOffload(m), env)
	if err != nil {
		t.Fatal(err)
	}
	wantTx := float64(m.InputBytes()*8) / env.UplinkBps
	wantSrv := env.Server.ModelTime(m)
	want := wantTx + wantSrv + env.RTT
	if math.Abs(ev.Latency-want) > 1e-9 {
		t.Errorf("offload latency = %g, want %g", ev.Latency, want)
	}
	if ev.CrossProb != 1 {
		t.Errorf("cross prob = %g, want 1", ev.CrossProb)
	}
	if ev.DeviceSec != 0 {
		t.Errorf("device sec = %g, want 0", ev.DeviceSec)
	}
}

func TestEvaluateShareScaling(t *testing.T) {
	env := testEnv(t, 10)
	m := dnn.ResNet18()
	plan := Plan{Model: m, Partition: 3}
	full, err := Evaluate(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	env2 := env
	env2.ComputeShare = 0.5
	env2.BandwidthShare = 0.25
	half, err := Evaluate(plan, env2)
	if err != nil {
		t.Fatal(err)
	}
	want := full.FixedSec + full.ServerSec/0.5 + full.TxSec/0.25
	if math.Abs(half.Latency-want) > 1e-9 {
		t.Errorf("scaled latency = %g, want %g", half.Latency, want)
	}
	if got := full.LatencyAt(0.5, 0.25); math.Abs(got-want) > 1e-9 {
		t.Errorf("LatencyAt = %g, want %g", got, want)
	}
}

func TestEvaluateExitsReduceLatency(t *testing.T) {
	// With an easy-biased stream and theta 0, early exits must cut the
	// expected latency of a fully local plan on a slow device.
	env := testEnv(t, 10)
	env.Difficulty = workload.EasyBiased
	m := dnn.VGG16()
	noExits, err := Evaluate(LocalOnly(m), env)
	if err != nil {
		t.Fatal(err)
	}
	cand := m.ExitCandidates()
	plan := Plan{Model: m, Exits: cand[:3], Theta: 0, Partition: m.NumUnits()}
	withExits, err := Evaluate(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	if withExits.Latency >= noExits.Latency {
		t.Errorf("exits did not help: %g >= %g", withExits.Latency, noExits.Latency)
	}
	if withExits.Accuracy >= noExits.Accuracy {
		t.Errorf("early exits should trade accuracy: %g >= %g", withExits.Accuracy, noExits.Accuracy)
	}
}

func TestEvaluateThetaMonotonicity(t *testing.T) {
	env := testEnv(t, 10)
	m := dnn.ResNet18()
	cand := m.ExitCandidates()
	prevLat, prevAcc := -1.0, -1.0
	for _, theta := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		plan := Plan{Model: m, Exits: cand[:4], Theta: theta, Partition: m.NumUnits()}
		ev, err := Evaluate(plan, env)
		if err != nil {
			t.Fatal(err)
		}
		if prevLat >= 0 {
			if ev.Latency < prevLat-1e-12 {
				t.Errorf("theta=%g: latency %g decreased (stricter thresholds must not speed up)", theta, ev.Latency)
			}
			if ev.Accuracy < prevAcc-1e-12 {
				t.Errorf("theta=%g: accuracy %g decreased", theta, ev.Accuracy)
			}
		}
		prevLat, prevAcc = ev.Latency, ev.Accuracy
	}
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	// AlexNet has few exit candidates, so exhaustive search is feasible.
	m := dnn.AlexNet()
	for _, mbps := range []float64{1, 8, 50} {
		for _, minAcc := range []float64{0, 0.70} {
			env := testEnv(t, mbps)
			opt := Options{MinAccuracy: minAcc, FixedPartition: FreePartition}
			got, gotEval, err := Optimize(m, env, opt)
			if err != nil {
				t.Fatalf("optimize(%g, %g): %v", mbps, minAcc, err)
			}
			_, wantEval, err := BruteForce(m, env, opt)
			if err != nil {
				t.Fatalf("brute(%g, %g): %v", mbps, minAcc, err)
			}
			// The DP is exact without the accuracy constraint and within
			// quantization of it otherwise.
			tol := 1e-9
			if minAcc > 0 {
				tol = 0.02 * wantEval.Latency
			}
			if gotEval.Latency > wantEval.Latency+tol {
				t.Errorf("mbps=%g minAcc=%g: optimize %.6g > brute %.6g (plan %v)",
					mbps, minAcc, gotEval.Latency, wantEval.Latency, got)
			}
			if minAcc > 0 && gotEval.Accuracy+1e-12 < minAcc {
				t.Errorf("mbps=%g: accuracy constraint violated: %g < %g", mbps, gotEval.Accuracy, minAcc)
			}
		}
	}
}

func TestOptimizeBandwidthCrossover(t *testing.T) {
	// At starvation bandwidth the optimizer must avoid offloading;
	// at high bandwidth with a fast server it must offload.
	m := dnn.VGG16()
	opt := Options{FixedPartition: FreePartition, NoExits: true}

	lowEnv := testEnv(t, 0.1)
	plan, _, err := Optimize(m, lowEnv, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition != m.NumUnits() {
		t.Errorf("at 0.1 Mbps expected local plan, got partition %d", plan.Partition)
	}

	hiEnv := testEnv(t, 1000)
	plan, _, err = Optimize(m, hiEnv, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition == m.NumUnits() {
		t.Error("at 1 Gbps expected offload, got fully local plan")
	}
}

func TestOptimizeRespectsNoExits(t *testing.T) {
	m := dnn.ResNet18()
	env := testEnv(t, 10)
	plan, _, err := Optimize(m, env, Options{NoExits: true, FixedPartition: FreePartition})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Exits) != 0 {
		t.Errorf("NoExits plan has exits %v", plan.Exits)
	}
}

func TestOptimizeRespectsFixedPartition(t *testing.T) {
	m := dnn.ResNet18()
	env := testEnv(t, 10)
	plan, _, err := Optimize(m, env, Options{FixedPartition: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition != 3 {
		t.Errorf("partition = %d, want 3", plan.Partition)
	}
}

func TestOptimizeMemoryForcesOffload(t *testing.T) {
	// The MCU cannot hold VGG16 weights, so the partition must stay at 0
	// units on-device prefix-wise or very shallow.
	mcu, err := hardware.ByName("mcu-m7")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, 10)
	env.Device = mcu
	m := dnn.VGG16()
	plan, _, err := Optimize(m, env, Options{FixedPartition: FreePartition})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition == m.NumUnits() {
		t.Error("MCU cannot run VGG16 fully local")
	}
	lat, err := Evaluate(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Latency <= 0 || math.IsInf(lat.Latency, 1) {
		t.Errorf("degenerate latency %g", lat.Latency)
	}
}

func TestOptimizeNoServer(t *testing.T) {
	env := testEnv(t, 10)
	env.Server = nil
	env.ComputeShare = 0
	env.BandwidthShare = 0
	env.UplinkBps = 0
	m := dnn.AlexNet()
	plan, ev, err := Optimize(m, env, Options{FixedPartition: FreePartition})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition != m.NumUnits() {
		t.Errorf("no-server plan offloads: partition %d", plan.Partition)
	}
	if ev.ServerSec != 0 {
		t.Errorf("no-server plan has server time %g", ev.ServerSec)
	}
}

func TestOptimizeAccuracyConstraintBinds(t *testing.T) {
	env := testEnv(t, 10)
	env.Difficulty = workload.EasyBiased
	m := dnn.ResNet34()
	loose, _, err := Optimize(m, env, Options{FixedPartition: FreePartition})
	if err != nil {
		t.Fatal(err)
	}
	looseEval, err := Evaluate(loose, env)
	if err != nil {
		t.Fatal(err)
	}
	tight, tightEval, err := Optimize(m, env, Options{MinAccuracy: 0.755, FixedPartition: FreePartition})
	if err != nil {
		t.Fatal(err)
	}
	if tightEval.Accuracy < 0.755-1e-9 {
		t.Errorf("constraint violated: %g", tightEval.Accuracy)
	}
	if tightEval.Latency < looseEval.Latency-1e-12 {
		t.Errorf("tighter constraint cannot be faster: %g < %g (plans %v vs %v)",
			tightEval.Latency, looseEval.Latency, tight, loose)
	}
}

func TestEvaluateRejectsOffloadWithoutServer(t *testing.T) {
	env := testEnv(t, 10)
	env.Server = nil
	env.ComputeShare = 0
	env.BandwidthShare = 0
	env.UplinkBps = 0
	if _, err := Evaluate(FullOffload(dnn.AlexNet()), env); err == nil {
		t.Fatal("expected error offloading without a server")
	}
}

func TestPlanString(t *testing.T) {
	m := dnn.AlexNet()
	p := Plan{Model: m, Exits: []int{2}, Theta: 0.2, Partition: 4}
	if s := p.String(); s == "" {
		t.Error("empty plan string")
	}
}

// TestOptimizeAllocCeiling holds one-shot Optimize — the path the planner
// and the online dispatcher call per user — at its historical allocation
// count: compiling the kernel for a single solve must not cost more
// allocations than the from-scratch sweep it replaced.
func TestOptimizeAllocCeiling(t *testing.T) {
	env := testEnv(t, 25)
	env.ComputeShare, env.BandwidthShare = 0.5, 0.5
	env.Difficulty = workload.EasyBiased
	m := dnn.ResNet34()
	opt := Options{FixedPartition: FreePartition}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Optimize(m, env, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("Optimize made %.0f allocations, want <= 32", allocs)
	}
}

// TestOptimizeRejectsOversizedAccBuckets checks the constrained DP's
// packing bound: a bucket index must fit the 16 bits its predecessor link
// reserves for it, so larger AccBuckets fail loudly instead of corrupting
// the reconstructed exits, and the bound itself still solves.
func TestOptimizeRejectsOversizedAccBuckets(t *testing.T) {
	env := testEnv(t, 25)
	m := dnn.AlexNet()
	opt := Options{FixedPartition: FreePartition, MinAccuracy: 0.6, AccBuckets: MaxAccBuckets + 1}
	if _, _, err := Optimize(m, env, opt); err == nil {
		t.Fatalf("AccBuckets %d accepted", opt.AccBuckets)
	}
	opt.AccBuckets = MaxAccBuckets
	plan, ev, err := Optimize(m, env, opt)
	if err != nil {
		t.Fatalf("AccBuckets %d rejected: %v", opt.AccBuckets, err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy+1e-12 < opt.MinAccuracy {
		t.Fatalf("accuracy %g below floor %g", ev.Accuracy, opt.MinAccuracy)
	}
}

// TestKernelEvaluateMatchesEvaluateValid pins the kernel's table-driven
// evaluation to evaluateValid bit for bit, for every slot of seeded keys —
// constrained, exitless and device-only ones included — under random and
// extreme exit sets, not only the ones a sweep happens to visit.
func TestKernelEvaluateMatchesEvaluateValid(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		key := testFrontierKey(t, rng, trial%3 == 2)
		switch trial % 4 {
		case 1:
			key.NoExits = true
		case 3:
			key.Server, key.UplinkBps, key.RTT = nil, 0, 0
		}
		env := key.env(1, 1)
		k, err := compile(key.Model, env, key.options(Options{}))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mask := make([]uint64, k.words)
		for slot := int32(0); slot < int32(len(k.head)); slot++ {
			for draw := 0; draw < 6; draw++ {
				clear(mask)
				for i := range k.cand {
					if draw == 1 || (draw > 1 && rng.Intn(2) == 0) {
						addExit(mask, i)
					}
				}
				e := k.evaluate(slot, mask)
				got := e.eval()
				want := evaluateValid(k.planAt(slot, mask), env)
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"Accuracy", got.Accuracy, want.Accuracy},
					{"FixedSec", got.FixedSec, want.FixedSec},
					{"ServerSec", got.ServerSec, want.ServerSec},
					{"TxSec", got.TxSec, want.TxSec},
					{"DeviceSec", got.DeviceSec, want.DeviceSec},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Fatalf("trial %d slot %d plan %v: %s = %v, evaluateValid gives %v",
							trial, slot, k.planAt(slot, mask), f.name, f.got, f.want)
					}
				}
			}
		}
	}
}
