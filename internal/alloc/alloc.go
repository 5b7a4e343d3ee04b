// Package alloc implements the resource-allocation half of the joint
// optimization: splitting one edge server's compute capacity and one
// uplink's bandwidth among the users assigned to it.
//
// Package surgery reduces each user's expected latency to the separable
// form
//
//	L_u(f_u, b_u) = Fixed_u + Server_u/f_u + Tx_u/b_u
//
// so the weighted-sum-latency allocation has the classic square-root
// closed form (shares proportional to sqrt(weight x work)), deadlines and
// queue-stability constraints become per-user lower share bounds handled by
// water-filling over the unclamped set, and min-max latency reduces to a
// feasibility bisection. All three are implemented here with exact KKT
// conditions asserted in the tests.
package alloc

import (
	"errors"
	"math"
)

// Demand is one user's allocation-relevant summary on a single server.
type Demand struct {
	// Fixed is the share-independent latency (device compute + RTT).
	Fixed float64
	// Server is the expected server compute per task at full capacity.
	Server float64
	// Tx is the expected uplink transfer per task at full link capacity.
	Tx float64
	// Weight is the user's priority (defaults to 1 when <= 0).
	Weight float64
	// Deadline is the latency SLO in seconds (0 = none).
	Deadline float64
	// Rate is the arrival rate in tasks/second; used for the
	// queue-stability lower bounds (0 = ignore stability).
	Rate float64
}

func (d Demand) weight() float64 {
	if d.Weight <= 0 {
		return 1
	}
	return d.Weight
}

// Latency evaluates the user's expected latency at the given shares.
func (d Demand) Latency(computeShare, bandwidthShare float64) float64 {
	l := d.Fixed
	if d.Server > 0 {
		if computeShare <= 0 {
			return math.Inf(1)
		}
		l += d.Server / computeShare
	}
	if d.Tx > 0 {
		if bandwidthShare <= 0 {
			return math.Inf(1)
		}
		l += d.Tx / bandwidthShare
	}
	return l
}

// Allocation is a share assignment for the users of one server.
type Allocation struct {
	// Compute[i] and Bandwidth[i] are user i's shares in [0, 1];
	// each vector sums to at most 1.
	Compute   []float64
	Bandwidth []float64
	// Feasible is false when hard constraints (deadlines, stability)
	// could not all be met and the allocation is a best-effort scaling.
	Feasible bool
}

// SumLatency returns the weighted total expected latency under a.
func SumLatency(demands []Demand, a Allocation) float64 {
	var s float64
	for i, d := range demands {
		s += d.weight() * d.Latency(a.Compute[i], a.Bandwidth[i])
	}
	return s
}

// MaxLatency returns the largest per-user latency under a.
func MaxLatency(demands []Demand, a Allocation) float64 {
	m := 0.0
	for i, d := range demands {
		if l := d.Latency(a.Compute[i], a.Bandwidth[i]); l > m {
			m = l
		}
	}
	return m
}

// Equal returns the naive 1/n split on both resources (the baseline
// allocation-unaware systems use).
func Equal(n int) Allocation {
	if n <= 0 {
		return Allocation{Feasible: true}
	}
	c := make([]float64, n)
	b := make([]float64, n)
	for i := range c {
		c[i] = 1 / float64(n)
		b[i] = 1 / float64(n)
	}
	return Allocation{Compute: c, Bandwidth: b, Feasible: true}
}

// Proportional splits each resource proportionally to the users' raw work
// on it — the "load-proportional" heuristic baseline.
func Proportional(demands []Demand) Allocation {
	n := len(demands)
	a := Allocation{Compute: make([]float64, n), Bandwidth: make([]float64, n), Feasible: true}
	var sumV, sumW float64
	for _, d := range demands {
		sumV += d.Server
		sumW += d.Tx
	}
	for i, d := range demands {
		if sumV > 0 {
			a.Compute[i] = d.Server / sumV
		} else {
			a.Compute[i] = 1 / float64(n)
		}
		if sumW > 0 {
			a.Bandwidth[i] = d.Tx / sumW
		} else {
			a.Bandwidth[i] = 1 / float64(n)
		}
	}
	return a
}

// minShareEps keeps shares strictly positive so latencies stay finite for
// users with vanishing work.
const minShareEps = 1e-9

// sqrtSplit distributes budget over users proportionally to coef[i] =
// sqrt(weight*work), respecting per-user lower bounds via iterative
// clamping (exact KKT water-filling; terminates in <= n rounds). The caller
// computes the coefficients once (sqrtCoefs), so no pass repeats the square
// roots. out and clamped are caller-owned buffers of len(coef); out is
// returned.
func sqrtSplit(coef, lower []float64, budget float64, out []float64, clamped []bool) []float64 {
	n := len(coef)
	for i := range clamped {
		clamped[i] = false
	}
	for {
		var coefSum, lockedBudget float64
		for i := 0; i < n; i++ {
			if clamped[i] {
				lockedBudget += lower[i]
			} else {
				coefSum += coef[i]
			}
		}
		free := budget - lockedBudget
		if free < 0 {
			free = 0
		}
		changed := false
		for i := 0; i < n; i++ {
			if clamped[i] {
				out[i] = lower[i]
				continue
			}
			var s float64
			if coefSum > 0 {
				s = free * coef[i] / coefSum
			}
			if s < lower[i] {
				clamped[i] = true
				changed = true
				out[i] = lower[i]
			} else {
				out[i] = s
			}
		}
		if !changed {
			return out
		}
	}
}

// sqrtCoefs fills sqrt(weight*work) per user for both resources — the
// water-filling coefficients of sqrtSplit.
func sqrtCoefs(demands []Demand, coefC, coefB []float64) {
	for i, d := range demands {
		wt := d.weight()
		coefC[i] = math.Sqrt(wt * d.Server)
		coefB[i] = math.Sqrt(wt * d.Tx)
	}
}

// MinSumLatency returns the weighted-sum-latency-optimal allocation with no
// hard constraints: shares proportional to sqrt(weight x work) on each
// resource independently.
func MinSumLatency(demands []Demand) Allocation {
	n := len(demands)
	if n == 1 {
		// Fast path: a lone user takes each whole resource it uses. Shares
		// match the general water-filling exactly (zero-work resources
		// collapse to the epsilon lower bound, as sqrtSplit's clamping
		// would produce).
		d := demands[0]
		a := Allocation{Compute: []float64{minShareEps}, Bandwidth: []float64{minShareEps}, Feasible: true}
		if d.Server > 0 {
			a.Compute[0] = 1
		}
		if d.Tx > 0 {
			a.Bandwidth[0] = 1
		}
		return a
	}
	coefC := make([]float64, n)
	coefB := make([]float64, n)
	lo := make([]float64, n)
	clamped := make([]bool, n)
	sqrtCoefs(demands, coefC, coefB)
	for i := range lo {
		lo[i] = minShareEps
	}
	return Allocation{
		Compute:   sqrtSplit(coefC, lo, 1, make([]float64, n), clamped),
		Bandwidth: sqrtSplit(coefB, lo, 1, make([]float64, n), clamped),
		Feasible:  true,
	}
}

// StabilityRho is the maximum queue utilization the deadline-aware
// allocator provisions for: shares are bounded below so that each user's
// server and link utilization stays at or below this value.
const StabilityRho = 0.9

// ErrInfeasible reports that the hard constraints cannot all be satisfied
// within unit capacity.
var ErrInfeasible = errors.New("alloc: constraints exceed capacity")

// minShares computes the per-user lower bounds (fmin, bmin) implied by the
// deadline and the stability constraint. The deadline slack is split
// between compute and transfer in the ratio sqrt(Server):sqrt(Tx), which
// minimizes fmin+bmin. An individually unmeetable deadline returns the bare
// ErrInfeasible sentinel: every caller only tests for it, and
// MinMaxLatency's bisection hits it on each infeasible probe.
func minShares(d Demand) (fmin, bmin float64, err error) {
	fmin, bmin = minShareEps, minShareEps
	if d.Rate > 0 {
		if v := d.Rate * d.Server / StabilityRho; v > fmin {
			fmin = v
		}
		if v := d.Rate * d.Tx / StabilityRho; v > bmin {
			bmin = v
		}
	}
	if d.Deadline > 0 {
		slack := d.Deadline - d.Fixed
		if slack <= 0 {
			if d.Server > 0 || d.Tx > 0 {
				return 0, 0, ErrInfeasible
			}
			return fmin, bmin, nil // deadline met by device alone or not at all
		}
		sv, sw := math.Sqrt(d.Server), math.Sqrt(d.Tx)
		if sv+sw > 0 {
			sf := slack * sv / (sv + sw)
			sb := slack - sf
			if d.Server > 0 {
				if v := d.Server / sf; v > fmin {
					fmin = v
				}
			}
			if d.Tx > 0 {
				if v := d.Tx / sb; v > bmin {
					bmin = v
				}
			}
		}
	}
	return fmin, bmin, nil
}

// DeadlineAware returns the weighted-sum-latency-optimal allocation subject
// to per-user deadline and stability lower bounds. When the bounds are
// jointly infeasible it returns a proportional scaling of the bounds with
// Feasible == false so callers can trigger reassignment.
func DeadlineAware(demands []Demand) Allocation {
	var ws Workspace
	return ws.DeadlineAware(demands)
}

// Workspace holds reusable buffers for repeated DeadlineAware calls — the
// planner re-allocates the same servers thousands of times per replan. The
// zero value is ready to use; a Workspace is not safe for concurrent use.
type Workspace struct {
	coefC, coefB, fmin, bmin []float64
	compute, bandwidth       []float64
	clamped                  []bool
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. The result is never nil, so an empty allocation keeps the non-nil
// empty slices the package functions have always returned.
func grow[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// DeadlineAware is the package function of the same name computed in the
// workspace's buffers: the result is bit-identical, but its Compute and
// Bandwidth slices belong to the workspace and are overwritten by the next
// call.
func (ws *Workspace) DeadlineAware(demands []Demand) Allocation {
	n := len(demands)
	ws.compute = grow(ws.compute, n)
	ws.bandwidth = grow(ws.bandwidth, n)
	if n == 1 {
		// Fast path mirroring the general machinery for a single user: the
		// user takes the whole of each resource it uses; a zero-work
		// resource collapses to its lower bound; bounds above unit
		// capacity are scaled to 1 and flagged infeasible — exactly what
		// minShares + scaling + sqrtSplit compute for n == 1.
		d := demands[0]
		f, b, err := minShares(d)
		feasible := err == nil
		if err != nil {
			dd := d
			dd.Deadline = 0
			f, b, _ = minShares(dd)
		}
		if f > 1 {
			f, feasible = 1, false
		}
		if b > 1 {
			b, feasible = 1, false
		}
		cf, cb := f, b
		if d.Server > 0 {
			cf = 1
		}
		if d.Tx > 0 {
			cb = 1
		}
		ws.compute[0], ws.bandwidth[0] = cf, cb
		return Allocation{Compute: ws.compute, Bandwidth: ws.bandwidth, Feasible: feasible}
	}
	ws.coefC = grow(ws.coefC, n)
	ws.coefB = grow(ws.coefB, n)
	ws.fmin = grow(ws.fmin, n)
	ws.bmin = grow(ws.bmin, n)
	ws.clamped = grow(ws.clamped, n)
	fmin, bmin := ws.fmin, ws.bmin
	sqrtCoefs(demands, ws.coefC, ws.coefB)
	feasible := true
	var sumF, sumB float64
	for i, d := range demands {
		f, b, err := minShares(d)
		if err != nil {
			// The deadline is individually unmeetable (fixed latency
			// already exceeds it). Keep the stability bounds — dropping
			// them would let the water-filling starve this user to a
			// vanishing share and an unbounded queue.
			feasible = false
			dd := d
			dd.Deadline = 0
			f, b, _ = minShares(dd)
		}
		fmin[i], bmin[i] = f, b
		sumF += f
		sumB += b
	}
	if sumF > 1 {
		feasible = false
		for i := range fmin {
			fmin[i] /= sumF
		}
	}
	if sumB > 1 {
		feasible = false
		for i := range bmin {
			bmin[i] /= sumB
		}
	}
	return Allocation{
		Compute:   sqrtSplit(ws.coefC, fmin, 1, ws.compute, ws.clamped),
		Bandwidth: sqrtSplit(ws.coefB, bmin, 1, ws.bandwidth, ws.clamped),
		Feasible:  feasible,
	}
}

// MinMaxLatency minimizes the worst per-user latency by bisecting on the
// latency target and testing feasibility through the minimal-share
// machinery. Returns the achieved bound alongside the allocation.
func MinMaxLatency(demands []Demand) (Allocation, float64) {
	n := len(demands)
	if n == 0 {
		return Allocation{Feasible: true}, 0
	}
	feasibleAt := func(L float64) ([]float64, []float64, bool) {
		fmin := make([]float64, n)
		bmin := make([]float64, n)
		var sumF, sumB float64
		for i, d := range demands {
			dd := d
			dd.Deadline = L
			f, b, err := minShares(dd)
			if err != nil {
				return nil, nil, false
			}
			fmin[i], bmin[i] = f, b
			sumF += f
			sumB += b
		}
		return fmin, bmin, sumF <= 1 && sumB <= 1
	}
	// Bracket: lower bound is the max fixed latency; upper bound grows
	// geometrically until feasible.
	lo := 0.0
	for _, d := range demands {
		if d.Fixed > lo {
			lo = d.Fixed
		}
	}
	hi := lo + 1e-3
	for i := 0; i < 60; i++ {
		if _, _, ok := feasibleAt(hi); ok {
			break
		}
		hi = lo + (hi-lo)*2
	}
	if _, _, ok := feasibleAt(hi); !ok {
		// Stability constraints alone exceed capacity: report best effort.
		a := DeadlineAware(demands)
		return a, MaxLatency(demands, a)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if _, _, ok := feasibleAt(mid); ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	fmin, bmin, _ := feasibleAt(hi)
	// Distribute any slack beyond the binding bounds by the sqrt rule.
	coefC := make([]float64, n)
	coefB := make([]float64, n)
	clamped := make([]bool, n)
	sqrtCoefs(demands, coefC, coefB)
	a := Allocation{
		Compute:   sqrtSplit(coefC, fmin, 1, make([]float64, n), clamped),
		Bandwidth: sqrtSplit(coefB, bmin, 1, make([]float64, n), clamped),
		Feasible:  true,
	}
	return a, MaxLatency(demands, a)
}
