package alloc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestEqualSplit(t *testing.T) {
	a := Equal(4)
	if !almostEq(sum(a.Compute), 1, 1e-12) || !almostEq(sum(a.Bandwidth), 1, 1e-12) {
		t.Fatalf("shares do not sum to 1: %v %v", a.Compute, a.Bandwidth)
	}
	for i := range a.Compute {
		if a.Compute[i] != 0.25 || a.Bandwidth[i] != 0.25 {
			t.Fatalf("unequal shares: %v", a)
		}
	}
	empty := Equal(0)
	if len(empty.Compute) != 0 {
		t.Error("Equal(0) not empty")
	}
}

func TestProportional(t *testing.T) {
	ds := []Demand{
		{Server: 3, Tx: 1},
		{Server: 1, Tx: 3},
	}
	a := Proportional(ds)
	if !almostEq(a.Compute[0], 0.75, 1e-12) || !almostEq(a.Bandwidth[0], 0.25, 1e-12) {
		t.Errorf("proportional = %v", a)
	}
}

func TestMinSumLatencySqrtRule(t *testing.T) {
	// With works 1 and 4, optimal shares are 1:2.
	ds := []Demand{{Server: 1, Tx: 1}, {Server: 4, Tx: 4}}
	a := MinSumLatency(ds)
	if !almostEq(a.Compute[1]/a.Compute[0], 2, 1e-6) {
		t.Errorf("compute ratio = %g, want 2", a.Compute[1]/a.Compute[0])
	}
	if !almostEq(sum(a.Compute), 1, 1e-9) {
		t.Errorf("compute shares sum %g", sum(a.Compute))
	}
}

func TestMinSumLatencyKKT(t *testing.T) {
	// At the optimum the marginal gains w*V/f^2 are equal across users
	// with positive work.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		ds := make([]Demand, n)
		for i := range ds {
			ds[i] = Demand{
				Server: rng.Float64()*0.5 + 0.01,
				Tx:     rng.Float64()*0.2 + 0.01,
				Weight: rng.Float64()*2 + 0.5,
			}
		}
		a := MinSumLatency(ds)
		var first float64
		for i, d := range ds {
			marginal := d.weight() * d.Server / (a.Compute[i] * a.Compute[i])
			if i == 0 {
				first = marginal
			} else if !almostEq(marginal/first, 1, 1e-6) {
				t.Fatalf("trial %d: KKT violated: marginals %g vs %g", trial, marginal, first)
			}
		}
	}
}

func TestMinSumLatencyBeatsEqual(t *testing.T) {
	ds := []Demand{
		{Server: 0.9, Tx: 0.01},
		{Server: 0.05, Tx: 0.01},
		{Server: 0.05, Tx: 0.5},
	}
	opt := MinSumLatency(ds)
	eq := Equal(len(ds))
	if SumLatency(ds, opt) >= SumLatency(ds, eq) {
		t.Errorf("optimal %.4g not better than equal %.4g", SumLatency(ds, opt), SumLatency(ds, eq))
	}
}

func TestMinSumLatencyOptimalAgainstRandomPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := []Demand{
		{Server: 0.3, Tx: 0.1, Weight: 1},
		{Server: 0.1, Tx: 0.3, Weight: 2},
		{Server: 0.6, Tx: 0.05, Weight: 0.5},
	}
	a := MinSumLatency(ds)
	base := SumLatency(ds, a)
	for i := 0; i < 500; i++ {
		// Random feasible perturbation.
		c := append([]float64(nil), a.Compute...)
		b := append([]float64(nil), a.Bandwidth...)
		i1, i2 := rng.Intn(3), rng.Intn(3)
		eps := (rng.Float64() - 0.5) * 0.1
		if i1 == i2 {
			continue
		}
		c[i1] += eps
		c[i2] -= eps
		b[i2] += eps / 2
		b[i1] -= eps / 2
		ok := true
		for j := range c {
			if c[j] <= 0 || b[j] <= 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		perturbed := SumLatency(ds, Allocation{Compute: c, Bandwidth: b})
		if perturbed < base-1e-9 {
			t.Fatalf("found better allocation (%.6g < %.6g) at trial %d", perturbed, base, i)
		}
	}
}

func TestDeadlineAwareMeetsDeadlines(t *testing.T) {
	ds := []Demand{
		{Fixed: 0.01, Server: 0.05, Tx: 0.02, Deadline: 0.3},
		{Fixed: 0.02, Server: 0.10, Tx: 0.05, Deadline: 0.5},
		{Fixed: 0.00, Server: 0.02, Tx: 0.01}, // best effort
	}
	a := DeadlineAware(ds)
	if !a.Feasible {
		t.Fatal("expected feasible")
	}
	for i, d := range ds {
		if d.Deadline > 0 {
			l := d.Latency(a.Compute[i], a.Bandwidth[i])
			if l > d.Deadline+1e-9 {
				t.Errorf("user %d: latency %.4g exceeds deadline %.4g", i, l, d.Deadline)
			}
		}
	}
	if sum(a.Compute) > 1+1e-9 || sum(a.Bandwidth) > 1+1e-9 {
		t.Errorf("over-allocated: %g %g", sum(a.Compute), sum(a.Bandwidth))
	}
}

func TestDeadlineAwareInfeasible(t *testing.T) {
	// Two users each needing > 60% of the server.
	ds := []Demand{
		{Server: 0.13, Deadline: 0.2},
		{Server: 0.13, Deadline: 0.2},
	}
	a := DeadlineAware(ds)
	if a.Feasible {
		t.Error("expected infeasible")
	}
	if sum(a.Compute) > 1+1e-9 {
		t.Errorf("infeasible fallback still over-allocates: %g", sum(a.Compute))
	}
}

func TestDeadlineAwareFixedExceedsDeadline(t *testing.T) {
	ds := []Demand{{Fixed: 0.5, Server: 0.1, Deadline: 0.2}}
	a := DeadlineAware(ds)
	if a.Feasible {
		t.Error("deadline below fixed latency must be infeasible")
	}
}

func TestStabilityLowerBound(t *testing.T) {
	// One user at high arrival rate: share must keep utilization <= rho.
	ds := []Demand{
		{Server: 0.010, Rate: 50}, // needs f >= 50*0.01/0.9 = 0.556
		{Server: 0.001, Rate: 1},
	}
	a := DeadlineAware(ds)
	if !a.Feasible {
		t.Fatal("expected feasible")
	}
	rho := ds[0].Rate * ds[0].Server / a.Compute[0]
	if rho > StabilityRho+1e-9 {
		t.Errorf("utilization %.3f exceeds rho %.2f", rho, StabilityRho)
	}
}

func TestMinMaxLatencyEqualizes(t *testing.T) {
	ds := []Demand{
		{Fixed: 0.01, Server: 0.2, Tx: 0.05},
		{Fixed: 0.01, Server: 0.05, Tx: 0.02},
		{Fixed: 0.01, Server: 0.4, Tx: 0.01},
	}
	a, bound := MinMaxLatency(ds)
	if !a.Feasible {
		t.Fatal("expected feasible")
	}
	worst := MaxLatency(ds, a)
	if worst > bound+1e-6 {
		t.Errorf("achieved %.5g worse than reported bound %.5g", worst, bound)
	}
	// The min-max bound must not beat what an exclusive server could do
	// for the heaviest user, and must be at least as good as equal split.
	eq := Equal(len(ds))
	if worst > MaxLatency(ds, eq)+1e-9 {
		t.Errorf("min-max %.5g worse than equal split %.5g", worst, MaxLatency(ds, eq))
	}
	solo := ds[2].Latency(1, 1)
	if bound < solo-1e-9 {
		t.Errorf("bound %.5g beats single-user optimum %.5g", bound, solo)
	}
}

func TestMinMaxLatencyEmpty(t *testing.T) {
	a, bound := MinMaxLatency(nil)
	if !a.Feasible || bound != 0 {
		t.Errorf("empty case: %v %g", a, bound)
	}
}

func TestLatencyInfiniteOnZeroShare(t *testing.T) {
	d := Demand{Server: 0.1}
	if !math.IsInf(d.Latency(0, 1), 1) {
		t.Error("zero compute share with server work must be +Inf")
	}
	d2 := Demand{Tx: 0.1}
	if !math.IsInf(d2.Latency(1, 0), 1) {
		t.Error("zero bandwidth share with tx work must be +Inf")
	}
	d3 := Demand{Fixed: 0.5}
	if d3.Latency(0, 0) != 0.5 {
		t.Error("pure-fixed demand must ignore shares")
	}
}

func TestAllocationsAlwaysFeasibleProperty(t *testing.T) {
	f := func(raw []struct {
		V, W, Wt uint8
		DL       uint8
	}) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		ds := make([]Demand, len(raw))
		for i, r := range raw {
			ds[i] = Demand{
				Server:   float64(r.V) / 255 * 0.1,
				Tx:       float64(r.W) / 255 * 0.1,
				Weight:   float64(r.Wt)/255*2 + 0.1,
				Deadline: float64(r.DL)/255*2 + 0.5,
			}
		}
		for _, a := range []Allocation{MinSumLatency(ds), DeadlineAware(ds), Proportional(ds)} {
			if sum(a.Compute) > 1+1e-6 || sum(a.Bandwidth) > 1+1e-6 {
				return false
			}
			for i := range a.Compute {
				if a.Compute[i] < 0 || a.Bandwidth[i] < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// generalSqrtSplitSingle reproduces the pre-fast-path water-filling for one
// demand, so the single-user fast paths can be checked against the exact
// shares the general machinery computes.
func generalSqrtSplitSingle(work, weight, lower float64) float64 {
	return sqrtSplit([]float64{math.Sqrt(weight * work)}, []float64{lower}, 1, make([]float64, 1), make([]bool, 1))[0]
}

// TestSingleDemandFastPathsMatchGeneral verifies the n == 1 fast paths in
// MinSumLatency and DeadlineAware emit exactly the shares the general
// water-filling would, across the structural cases (both resources used,
// zero-work resources, binding stability bounds, unmeetable deadlines).
func TestSingleDemandFastPathsMatchGeneral(t *testing.T) {
	cases := []struct {
		name string
		d    Demand
	}{
		{"both-resources", Demand{Fixed: 0.01, Server: 0.02, Tx: 0.005, Deadline: 0.2, Rate: 2}},
		{"no-server-work", Demand{Fixed: 0.01, Server: 0, Tx: 0.005, Deadline: 0.2, Rate: 2}},
		{"no-tx-work", Demand{Fixed: 0.01, Server: 0.02, Tx: 0, Deadline: 0.2, Rate: 2}},
		{"no-work-at-all", Demand{Fixed: 0.01}},
		{"stability-bound", Demand{Fixed: 0.001, Server: 0.05, Tx: 0.01, Rate: 10}},
		{"deadline-unmeetable", Demand{Fixed: 0.5, Server: 0.02, Tx: 0.01, Deadline: 0.1, Rate: 1}},
		{"bounds-exceed-capacity", Demand{Fixed: 0.001, Server: 0.2, Tx: 0.01, Deadline: 0.21, Rate: 5}},
		{"weighted", Demand{Fixed: 0.01, Server: 0.02, Tx: 0.005, Weight: 3, Deadline: 0.3, Rate: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// MinSumLatency: general path uses the epsilon lower bound.
			got := MinSumLatency([]Demand{c.d})
			wantF := generalSqrtSplitSingle(c.d.Server, c.d.weight(), minShareEps)
			wantB := generalSqrtSplitSingle(c.d.Tx, c.d.weight(), minShareEps)
			if got.Compute[0] != wantF || got.Bandwidth[0] != wantB {
				t.Errorf("MinSumLatency fast path (%g, %g) != general (%g, %g)",
					got.Compute[0], got.Bandwidth[0], wantF, wantB)
			}
			if !got.Feasible {
				t.Error("MinSumLatency single user must be feasible")
			}

			// DeadlineAware: general path derives lower bounds from
			// minShares, scales them into capacity, then water-fills.
			got = DeadlineAware([]Demand{c.d})
			f, b, err := minShares(c.d)
			wantFeasible := err == nil
			if err != nil {
				dd := c.d
				dd.Deadline = 0
				f, b, _ = minShares(dd)
			}
			if f > 1 {
				f, wantFeasible = 1, false
			}
			if b > 1 {
				b, wantFeasible = 1, false
			}
			wantF = generalSqrtSplitSingle(c.d.Server, c.d.weight(), f)
			wantB = generalSqrtSplitSingle(c.d.Tx, c.d.weight(), b)
			if got.Compute[0] != wantF || got.Bandwidth[0] != wantB {
				t.Errorf("DeadlineAware fast path (%g, %g) != general (%g, %g)",
					got.Compute[0], got.Bandwidth[0], wantF, wantB)
			}
			if got.Feasible != wantFeasible {
				t.Errorf("DeadlineAware feasible = %v, want %v", got.Feasible, wantFeasible)
			}
		})
	}
}
