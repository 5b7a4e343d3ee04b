package joint

import (
	"context"
	"fmt"
	"math"

	"edgesurgeon/internal/alloc"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// Options tunes the joint planner.
type Options struct {
	// MaxIters bounds the block-coordinate rounds (default 12).
	MaxIters int
	// Epsilon is the relative-improvement convergence threshold
	// (default 1e-3).
	Epsilon float64
	// Surgery carries the base surgery options; per-user MinAccuracy from
	// the scenario overrides its MinAccuracy field.
	Surgery surgery.Options
	// DisableSurgery freezes plans to partition-only full-backbone
	// execution chosen once at equal shares (the "allocation-only"
	// ablation arm).
	DisableSurgery bool
	// DisableAllocation freezes shares at the equal split (the
	// "surgery-only" ablation arm).
	DisableAllocation bool
	// DisableReassignment turns off the greedy server-migration step.
	DisableReassignment bool
	// DisableProbe turns off the offloading probe share (the fair-share
	// floor that lets locally-stuck users discover offload opportunities)
	// — the cold-start ablation arm of experiment E16.
	DisableProbe bool
	// Allocator selects the allocation rule when allocation is enabled.
	Allocator AllocatorKind
	// Parallelism bounds the worker pool the planner fans per-user surgery
	// optimizations, candidate-move probes and the sharded planner's
	// reconciliation candidates across; <= 0 means GOMAXPROCS. Plans are
	// byte-identical across parallelism levels: the fan-out snapshots its
	// inputs first and reduces results in index order, each per-user problem
	// is a pure function of the snapshot, and reconciliation evaluates a
	// window of candidate moves read-only against the unchanged state, then
	// consumes them in scan order up to the first accepted one. The work
	// ledger (SurgeryOps) and the frontier and surgery-cache lookup totals
	// count consumed candidates only, so they match at every level too.
	Parallelism int
	// DisableSurgeryCache turns off the per-Plan-call surgery memoization
	// (the cache-ablation arm; also exercised by the equivalence tests).
	// Caching never changes planner output because surgery always runs at
	// quantized shares — see ShareQuantum.
	DisableSurgeryCache bool
	// ShardThreshold, when positive, routes scenarios with at least this
	// many users through the hierarchical sharded planner: users are
	// clustered by server affinity into shards (local-only users become
	// singleton shards, mirroring the simulator's component decomposition),
	// each shard is planned concurrently by the monolithic block-coordinate
	// core against its own server's capacity, and a small number of
	// capacity-reconciliation rounds migrate load between shards until the
	// objective stops improving. Scenarios below the threshold keep the
	// exact monolithic path bit for bit. Zero disables sharding entirely.
	ShardThreshold int
	// ReconcileRounds bounds the sharded planner's capacity-reconciliation
	// rounds (default 6; the loop stops early once no migration is accepted
	// and the objective improvement falls under Epsilon). Only consulted on
	// the sharded path.
	ReconcileRounds int
	// Frontiers, when non-nil, switches the planner's innermost hot path to
	// precomputed Pareto-frontier surgery tables (build one per scenario
	// with BuildFrontierSet): every per-user environment snaps its shares to
	// the set's geometric grid — instead of the uniform ShareQuantum grid —
	// and tabulated keys are answered by an O(log k) frontier lookup,
	// falling back to surgery.Optimize at the same snapped shares for keys
	// outside the tables, so plans are independent of the hit/miss mix. Nil
	// keeps the historical uniform-grid path bit for bit.
	Frontiers *surgery.FrontierSet
	// AccuracyFloor, when positive, imposes a fleet-wide expected-accuracy
	// floor on every user's surgery plan; a user's own stricter MinAccuracy
	// still wins. Plumbed into surgery.Options.MinAccuracy per user.
	AccuracyFloor float64
	// DeviceEnergyBudgetJ, when positive, caps the per-inference device
	// energy (joules) any surgery plan may spend
	// (surgery.Options.MaxDeviceEnergyJ): plans over budget are rejected
	// during the sweep, and planning fails for users with no plan under
	// budget.
	DeviceEnergyBudgetJ float64
	// SurgeryBudget, when positive, bounds one Plan call's deterministic
	// work budget measured in "surgery ops" — scheduled per-user surgery
	// optimizations (each surgery pass charges its fan-out width, each
	// reassignment candidate scan charges its full target list, whether or
	// not lazy evaluation stopped early). The budget is checked only at
	// sequential orchestration checkpoints, so an overrun aborts at the same
	// round of the same run at every Parallelism level: Plan returns an
	// *AbortedError and no partial plan. This is the control plane's
	// virtual-clock replan deadline (Policy.ReplanDeadline); zero means
	// unlimited. The sharded path splits the remaining budget evenly across
	// server shards and skips the monolithic cross-check when nothing
	// remains for it.
	SurgeryBudget int64
	// DisableFrontierMemo turns off the per-Plan (user, server)→table memo
	// in front of the frontier set (the ablation arm of the key-hash
	// avoidance benchmark). The memo never changes planner output — the
	// resolved table is a pure function of the (user, server) pair within
	// one Plan call — so this knob only moves the key-hash cost.
	DisableFrontierMemo bool
	// Metrics, when non-nil, receives the planner's instrumentation:
	// "planner.plans" and "planner.iterations" counters plus the
	// "planner.surgery_cache.hits"/".misses" and (on the frontier path)
	// "planner.frontier.hits"/".misses" series (accumulated across Plan
	// calls; the per-call Plan fields remain exact deltas).
	// Instrumentation never changes planner output.
	Metrics *telemetry.Registry

	// planCtx carries cooperative cancellation, set by PlanCtx — the only
	// way in, so configuration codecs never see it. Checked at the same
	// checkpoints as SurgeryBudget; nil means no cancellation.
	planCtx context.Context
}

// surgeryOptions resolves the surgery option set for one user: the base
// sweep configuration with the partition freed and the planner- and
// user-level constraints applied. Every surgery call the planner makes —
// the hot loop, the local-pin pre-pass, and frontier-table construction —
// derives its options here, so all paths stay constraint-consistent.
func (o Options) surgeryOptions(u *User) surgery.Options {
	sopt := o.Surgery
	sopt.FixedPartition = surgery.FreePartition
	if u.MinAccuracy > 0 {
		sopt.MinAccuracy = u.MinAccuracy
	}
	if o.AccuracyFloor > sopt.MinAccuracy {
		sopt.MinAccuracy = o.AccuracyFloor
	}
	if o.DeviceEnergyBudgetJ > 0 {
		sopt.MaxDeviceEnergyJ = o.DeviceEnergyBudgetJ
	}
	if o.DisableSurgery {
		sopt.NoExits = true
	}
	return sopt
}

// AllocatorKind selects the per-server allocation rule.
type AllocatorKind int

const (
	// DeadlineAwareAlloc (default) is weighted-min-sum-latency with
	// deadline and stability lower bounds.
	DeadlineAwareAlloc AllocatorKind = iota
	// MinSumAlloc ignores deadlines.
	MinSumAlloc
	// MinMaxAlloc minimizes the worst per-user latency.
	MinMaxAlloc
)

// Planner is the joint surgery + allocation + assignment optimizer.
type Planner struct {
	Opt Options
}

// Name implements Strategy.
func (p *Planner) Name() string {
	switch {
	case p.Opt.DisableSurgery && p.Opt.DisableAllocation:
		return "neither"
	case p.Opt.DisableSurgery:
		return "alloc-only"
	case p.Opt.DisableAllocation:
		return "surgery-only"
	default:
		return "joint"
	}
}

func (p *Planner) opts() Options {
	o := p.Opt
	if o.MaxIters <= 0 {
		o.MaxIters = 12
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-3
	}
	if o.ReconcileRounds <= 0 {
		o.ReconcileRounds = 6
	}
	return o
}

// Plan implements Strategy: block-coordinate descent over (surgery,
// allocation, assignment).
func (p *Planner) Plan(sc *Scenario) (*Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// Device-only studies go through the local-only baseline; the joint
	// planner's surgery/allocation/assignment loop needs servers to
	// optimize over.
	if len(sc.Servers) == 0 {
		return nil, fmt.Errorf("joint: scenario has no servers (use the local-only baseline for device-only studies)")
	}
	opt := p.opts()
	if opt.ShardThreshold > 0 && len(sc.Users) >= opt.ShardThreshold {
		return p.planSharded(sc, opt)
	}
	st, err := newState(sc, opt)
	if err != nil {
		return nil, err
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}

	// Round 0: initial surgery at equal shares, then allocation. The
	// trajectory records the objective after every half-step so the
	// convergence figure (E10) shows where each mechanism contributes.
	if err := st.surgeryStep(); err != nil {
		return nil, err
	}
	traj := []float64{st.objectiveNow()} // surgery at equal shares
	st.allocStep()
	prev := st.objectiveNow()
	traj = append(traj, prev) // + allocation

	bestObj := prev
	bestDs := append([]Decision(nil), st.ds...)
	bestFeasible := st.feasible

	iters := 1
	for ; iters < opt.MaxIters; iters++ {
		if err := st.checkpoint(); err != nil {
			return nil, err
		}
		if !opt.DisableReassignment && len(sc.Servers) > 1 {
			if err := st.reassignStep(); err != nil {
				return nil, err
			}
		}
		if err := st.surgeryStep(); err != nil {
			return nil, err
		}
		st.allocStep()
		cur := st.objectiveNow()
		traj = append(traj, cur)
		if cur < bestObj {
			bestObj = cur
			bestDs = append(bestDs[:0], st.ds...)
			bestFeasible = st.feasible
		}
		if prev-cur <= opt.Epsilon*math.Max(prev, 1e-12) {
			iters++
			break
		}
		prev = cur
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}

	plan := &Plan{
		Decisions:   bestDs,
		Objective:   bestObj,
		Feasible:    bestFeasible,
		Iterations:  iters,
		Trajectory:  traj,
		PlannerName: p.Name(),
	}
	st.stampCounters(plan)
	if opt.Metrics != nil {
		opt.Metrics.Counter("planner.plans").Inc()
		opt.Metrics.Counter("planner.iterations").Add(int64(iters))
	}
	return plan, nil
}

// PlanWithAssignment runs the alternating surgery/allocation refinement to
// convergence with a pinned user-to-server assignment (no reassignment
// step). The exhaustive-assignment optimality reference enumerates
// assignments and calls this for each.
func PlanWithAssignment(sc *Scenario, opt Options, assign []int) (*Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(assign) != len(sc.Users) {
		return nil, fmt.Errorf("joint: assignment length %d for %d users", len(assign), len(sc.Users))
	}
	p := Planner{Opt: opt}
	opt = p.opts()
	st, err := newState(sc, opt)
	if err != nil {
		return nil, err
	}
	for s := range st.assigned {
		st.assigned[s] = st.assigned[s][:0]
	}
	for ui, s := range assign {
		if s < -1 || s >= len(sc.Servers) {
			return nil, fmt.Errorf("joint: user %d assigned to unknown server %d", ui, s)
		}
		st.ds[ui].Server = s
		if s >= 0 {
			st.assigned[s] = append(st.assigned[s], ui)
		}
	}
	st.equalShares()

	if err := st.surgeryStep(); err != nil {
		return nil, err
	}
	st.allocStep()
	prev := st.objectiveNow()
	bestObj := prev
	bestDs := append([]Decision(nil), st.ds...)
	bestFeasible := st.feasible
	iters := 1
	for ; iters < opt.MaxIters; iters++ {
		if err := st.checkpoint(); err != nil {
			return nil, err
		}
		if err := st.surgeryStep(); err != nil {
			return nil, err
		}
		st.allocStep()
		cur := st.objectiveNow()
		if cur < bestObj {
			bestObj = cur
			bestDs = append(bestDs[:0], st.ds...)
			bestFeasible = st.feasible
		}
		if prev-cur <= opt.Epsilon*math.Max(prev, 1e-12) {
			iters++
			break
		}
		prev = cur
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	plan := &Plan{
		Decisions:   bestDs,
		Objective:   bestObj,
		Feasible:    bestFeasible,
		Iterations:  iters,
		PlannerName: "joint-fixed-assignment",
	}
	st.stampCounters(plan)
	return plan, nil
}

// state carries the evolving decision set.
type state struct {
	sc       *Scenario
	opt      Options
	ds       []Decision
	assigned [][]int // per server: user indices
	feasible bool
	// srvFeasible records, per server, whether the last allocation on it
	// satisfied every deadline/stability bound — the dispatcher's admission
	// control (shedStep) uses it to find overloaded servers after a failure.
	srvFeasible []bool
	uplink      []float64 // cached mean uplink rate per server

	workers int            // resolved worker-pool size for fan-out steps
	cache   *surgeryCache  // per-Plan-call surgery memoization (nil if disabled)
	front   *frontierStats // frontier tables + hit/miss telemetry (nil = legacy path)
	envBuf  []surgery.Env  // reusable per-user env snapshot for surgeryStep
	hot     *userSoA       // flat per-user planning scalars (see soa.go)

	// alloc is allocServer's reusable allocation buffer and scan the
	// reconciliation scans' arena (see reconcile.go); both are used by
	// sequential orchestration code only.
	alloc shareBuf
	scan  *moveScan

	// spent is the deterministic work ledger behind SurgeryBudget: every
	// orchestration step charges the surgery optimizations it schedules
	// (not the ones lazy evaluation or caching actually executed — those
	// vary with Parallelism), so the total at any checkpoint is identical
	// at every parallelism level. Scratch clones never charge; their work
	// is covered by the scheduling step's upfront charge.
	spent int64
}

func newState(sc *Scenario, opt Options) (*state, error) {
	st := &state{sc: sc, opt: opt, feasible: true}
	st.hot = buildUserSoA(sc)
	st.ds = make([]Decision, len(sc.Users))
	st.assigned = make([][]int, len(sc.Servers))
	st.srvFeasible = make([]bool, len(sc.Servers))
	for s := range st.srvFeasible {
		st.srvFeasible[s] = true
	}
	st.uplink = make([]float64, len(sc.Servers))
	st.workers = opt.parallelism()
	if !opt.DisableSurgeryCache {
		st.cache = newSurgeryCache(opt.Metrics)
	}
	st.front = newFrontierStats(opt.Frontiers, opt.Metrics, len(sc.Users), len(sc.Servers), !opt.DisableFrontierMemo)
	for s := range sc.Servers {
		st.uplink[s] = sc.meanUplink(s)
	}

	// Initial assignment: heaviest-work users first onto the server with
	// the smallest normalized pending load (work / capacity).
	if len(sc.Servers) == 0 {
		for i := range st.ds {
			st.ds[i].Server = -1
		}
		return st, nil
	}
	assign, order := initialAssignmentSoA(sc, st.hot)
	// Replay the acceptance order so each server's list keeps the
	// historical (descending-work) allocation input order.
	for _, ui := range order {
		s := assign[ui]
		st.ds[ui].Server = s
		st.assigned[s] = append(st.assigned[s], ui)
	}
	st.equalShares()
	return st, nil
}

// initialAssignment computes the planner's greedy initial user→server
// mapping: heaviest provisioned work first onto the server with the
// smallest normalized pending load (work / capacity). It returns the
// mapping plus the acceptance order (users by descending work), which
// newState replays to keep per-server lists in the historical order and the
// sharded planner uses both as the server-affinity clustering and to merge
// shard results in an order bit-compatible with the monolithic path.
func initialAssignment(sc *Scenario) (assign, order []int) {
	return initialAssignmentSoA(sc, buildUserSoA(sc))
}

// initialAssignmentSoA is initialAssignment against an already-built SoA
// view — the form every state constructor uses, so the work array is
// derived once per planning run rather than once per caller.
func initialAssignmentSoA(sc *Scenario, hot *userSoA) (assign, order []int) {
	// Stable sort by descending work: the same permutation the historical
	// insertion sort produced (both are stable under the same comparator),
	// in O(n log n) so the 100k-user sharded path doesn't pay a quadratic
	// setup.
	order = workOrder(hot)
	assign = make([]int, len(sc.Users))
	load := make([]float64, len(sc.Servers))
	for _, ui := range order {
		best, bestLoad := 0, math.Inf(1)
		for s := range sc.Servers {
			l := load[s] / sc.Servers[s].Profile.PeakFLOPS
			if l < bestLoad {
				best, bestLoad = s, l
			}
		}
		assign[ui] = best
		load[best] += hot.work[ui]
	}
	return assign, order
}

// equalShares resets every server's shares to the uniform split.
func (st *state) equalShares() {
	for s := range st.assigned {
		n := len(st.assigned[s])
		if n == 0 {
			continue
		}
		for _, ui := range st.assigned[s] {
			st.ds[ui].ComputeShare = 1 / float64(n)
			st.ds[ui].BandwidthShare = 1 / float64(n)
		}
	}
}

// env builds the surgery environment for user ui. Shares are floored at
// the fair split of the user's server: allocation gives near-zero shares to
// users whose current plan is fully local, and without the floor such a
// user could never discover that offloading at a reasonable share beats
// staying local (a cold-start lock-in of the block-coordinate iteration).
// The planner keeps a best-objective snapshot, so optimistic probing can
// never worsen the returned plan.
func (st *state) env(ui int) surgery.Env {
	d := &st.ds[ui]
	offl := 0
	if d.Server >= 0 {
		offl = st.offloaders(d.Server, ui)
	}
	return st.envAt(ui, d.Server, d.ComputeShare, d.BandwidthShare, offl)
}

// envAt is env with the decision's inputs given explicitly: user ui on
// server (-1 = device-only) at the given shares, with offl other
// offloaders on that server. It reads no decision, which is what lets a candidate move
// be evaluated without installing it first.
func (st *state) envAt(ui, server int, computeShare, bandwidthShare float64, offl int) surgery.Env {
	u := &st.sc.Users[ui]
	env := surgery.Env{
		Device:     u.Device,
		Difficulty: u.Difficulty,
		Curves:     st.sc.Curves,
		Rate:       st.hot.rate[ui],
		TxFactor:   u.TxCompression,
	}
	if server >= 0 {
		srv := &st.sc.Servers[server]
		env.Server = srv.Profile
		// Probe share: what this user would plausibly receive if it chose
		// to offload — an equal split among the server's *current*
		// offloaders plus itself. In the first round nobody offloads yet,
		// so the probe is optimistic (share 1) and users discover offload
		// opportunities; as offloaders accumulate the probe tightens.
		probe := 1 / float64(1+offl)
		if st.opt.DisableProbe {
			probe = 0
		}
		// Shares are snapped to a fixed grid before the optimizer sees
		// them, so memoization (keyed on the quantized values) is exact
		// rather than approximate: a cache hit returns precisely what
		// recomputing would. The frontier path snaps to its tables'
		// geometric grid; the legacy path keeps the uniform ShareQuantum
		// grid bit for bit.
		fs := math.Max(orOne(computeShare), probe)
		bs := math.Max(orOne(bandwidthShare), probe)
		if st.front != nil {
			env.ComputeShare = st.front.grid.Snap(fs)
			env.BandwidthShare = st.front.grid.Snap(bs)
		} else {
			env.ComputeShare = quantizeShare(fs)
			env.BandwidthShare = quantizeShare(bs)
		}
		env.UplinkBps = st.uplink[server]
		env.RTT = srv.RTT
	}
	return env
}

// offloaders counts the users assigned to server s (excluding `except`)
// whose current plan crosses the partition boundary.
func (st *state) offloaders(s, except int) int {
	n := 0
	for _, ui := range st.assigned[s] {
		if ui != except && crosses(&st.ds[ui].Plan) {
			n++
		}
	}
	return n
}

// crosses reports whether a plan offloads across the partition boundary.
func crosses(p *surgery.Plan) bool {
	return p.Model != nil && p.Partition < p.Model.NumUnits()
}

// surgeryStep re-optimizes every user's plan at the current shares.
// Holding shares fixed, each user's latency can only decrease, so the
// objective is monotone non-increasing across this step.
//
// All per-user environments are snapshotted before any plan is replaced, so
// every user's optimization is a pure function of the pre-step state (the
// offloader probe counts, in particular, see the step's inputs rather than
// its partial outputs). That makes the fan-out order-free: the parallel
// planner produces byte-identical plans to Parallelism == 1.
func (st *state) surgeryStep() error {
	n := len(st.sc.Users)
	if st.envBuf == nil {
		st.envBuf = make([]surgery.Env, n)
	}
	for ui := 0; ui < n; ui++ {
		st.envBuf[ui] = st.env(ui)
	}
	st.spent += int64(n)
	return forEachIndex(st.workers, n, func(ui int) error {
		return st.optimizeUser(ui, st.envBuf[ui])
	})
}

// optimizeUser runs (or recalls) the surgery optimization for one user in
// the given quantized environment and installs the result in st.ds[ui].
// Safe for concurrent calls with distinct ui.
func (st *state) optimizeUser(ui int, env surgery.Env) error {
	var t lookupTally
	plan, ev, err := st.solve(ui, st.ds[ui].Server, env, &t)
	st.fold(&t)
	if err != nil {
		return err
	}
	st.ds[ui].Plan = plan
	st.ds[ui].Eval = ev
	return nil
}

// solve answers user ui's surgery problem in env (on server, -1 for
// device-only) without touching the decision set, recording its frontier
// and cache outcomes in t. On the frontier path the precomputed tables
// answer first; untabulated keys fall through to the cache + optimizer at
// the same snapped shares, so which path answered is observable only in the
// counters. Safe for concurrent use.
func (st *state) solve(ui, server int, env surgery.Env, t *lookupTally) (surgery.Plan, surgery.Eval, error) {
	u := &st.sc.Users[ui]
	sopt := st.opt.surgeryOptions(u)
	if st.front != nil {
		if plan, ev, ok := st.front.lookup(ui, server, u.Model, env, sopt); ok {
			t.frontHits++
			return plan, ev, nil
		}
		t.frontMisses++
	}
	var key surgeryKey
	if st.cache != nil {
		key = keyFor(u.Model, env, sopt)
		if plan, ev, ok := st.cache.peek(key); ok {
			t.cacheHits++
			return plan, ev, nil
		}
		t.cacheMisses++
	}
	plan, ev, err := surgery.Optimize(u.Model, env, sopt)
	if err != nil {
		return surgery.Plan{}, surgery.Eval{}, fmt.Errorf("joint: surgery for user %d (%s): %w", ui, u.Name, err)
	}
	if st.cache != nil {
		st.cache.put(key, plan, ev)
	}
	return plan, ev, nil
}

// demandOf is user ui's allocation input under evaluation ev.
func (st *state) demandOf(ui int, ev *surgery.Eval) alloc.Demand {
	return alloc.Demand{
		Fixed:    ev.FixedSec,
		Server:   ev.ServerSec,
		Tx:       ev.TxSec,
		Weight:   st.hot.weight[ui],
		Deadline: st.hot.deadline[ui],
		Rate:     st.hot.rate[ui],
	}
}

// appendDemands appends server s's allocation inputs, in assignment order,
// to dst.
func (st *state) appendDemands(dst []alloc.Demand, s int) []alloc.Demand {
	for _, ui := range st.assigned[s] {
		dst = append(dst, st.demandOf(ui, &st.ds[ui].Eval))
	}
	return dst
}

// allocStep re-splits every server's resources given the current plans.
func (st *state) allocStep() {
	st.feasible = true
	for s := range st.assigned {
		st.allocServer(s)
		st.feasible = st.feasible && st.srvFeasible[s]
	}
}

// reassignStep greedily migrates users between servers when the move
// strictly improves the objective. Each candidate move re-runs surgery for
// the moved user and allocation for the two touched servers on a private
// scratch copy of the decision state, so candidates are independent and are
// evaluated concurrently across the worker pool. Acceptance is index
// ordered — the first improving target server wins — which reproduces the
// sequential first-improvement greedy exactly, including which error (if
// any) is surfaced: an error at target k is reported only when no earlier
// target already improved, just as the sequential scan would.
func (st *state) reassignStep() error {
	type candidate struct {
		scratch *state
		obj     float64
		err     error
	}
	evalCand := func(ui, from, to int) candidate {
		c := st.scratchClone()
		c.moveUser(ui, from, to)
		// Cheap local refresh: surgery for the moved user at its new
		// equalized share, allocation on both touched servers.
		if err := c.refreshUser(ui); err != nil {
			return candidate{err: err}
		}
		c.allocServer(from)
		c.allocServer(to)
		if err := c.refreshUser(ui); err != nil {
			return candidate{err: err}
		}
		return candidate{scratch: c, obj: c.objectiveNow()}
	}
	targets := make([]int, 0, len(st.sc.Servers))
	for ui := range st.sc.Users {
		from := st.ds[ui].Server
		if from < 0 {
			continue
		}
		base := st.objectiveNow()
		targets = targets[:0]
		for to := range st.sc.Servers {
			if to != from {
				targets = append(targets, to)
			}
		}
		// Charge the full candidate scan up front — two surgery refreshes
		// per target, whether the lazy serial scan stops early or the eager
		// parallel one evaluates everything — so the budget ledger is
		// parallelism-invariant.
		st.spent += int64(2 * len(targets))
		var cands []candidate
		if st.workers <= 1 || len(targets) <= 1 {
			// Lazy first-improvement scan: stop at the first winner so the
			// single-worker planner does no more surgery than it must.
			for _, to := range targets {
				c := evalCand(ui, from, to)
				cands = append(cands, c)
				if c.err != nil || c.obj < base*(1-1e-9) {
					break
				}
			}
		} else {
			cands = make([]candidate, len(targets))
			_ = forEachIndex(st.workers, len(targets), func(k int) error {
				cands[k] = evalCand(ui, from, targets[k])
				return nil
			})
		}
		for k := range cands {
			if cands[k].err != nil {
				return cands[k].err
			}
			if cands[k].obj < base*(1-1e-9) {
				st.ds = cands[k].scratch.ds
				st.assigned = cands[k].scratch.assigned
				break
			}
		}
	}
	return nil
}

// scratchClone returns a state sharing the scenario, options, uplink cache
// and surgery cache with st, but owning private copies of the decision set
// and assignment lists — the mutable parts a candidate-move evaluation
// touches. Scratch clones run their inner steps with workers == 1: the
// parallelism lives one level up, across candidates.
func (st *state) scratchClone() *state {
	c := &state{
		sc:          st.sc,
		opt:         st.opt,
		ds:          append([]Decision(nil), st.ds...),
		assigned:    make([][]int, len(st.assigned)),
		feasible:    st.feasible,
		srvFeasible: append([]bool(nil), st.srvFeasible...),
		uplink:      st.uplink,
		workers:     1,
		cache:       st.cache,
		front:       st.front,
		hot:         st.hot,
	}
	for i := range st.assigned {
		c.assigned[i] = append([]int(nil), st.assigned[i]...)
	}
	return c
}

func (st *state) moveUser(ui, from, to int) {
	lst := st.assigned[from]
	for i, v := range lst {
		if v == ui {
			st.assigned[from] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	st.assigned[to] = append(st.assigned[to], ui)
	st.ds[ui].Server = to
	n := float64(len(st.assigned[to]))
	st.ds[ui].ComputeShare = 1 / n
	st.ds[ui].BandwidthShare = 1 / n
}

// refreshUser re-runs surgery for a single user at current shares.
func (st *state) refreshUser(ui int) error {
	return st.optimizeUser(ui, st.env(ui))
}

// allocServer re-allocates one server in isolation (see share).
func (st *state) allocServer(s int) {
	buf := &st.alloc
	buf.row = st.appendDemands(buf.row[:0], s)
	st.share(buf)
	st.srvFeasible[s] = buf.feasible
	for i, ui := range st.assigned[s] {
		st.ds[ui].ComputeShare, st.ds[ui].BandwidthShare = buf.c[i], buf.b[i]
	}
}

// shareBuf holds one server re-allocation: its demand row in assignment
// order, the resulting shares and feasibility, and reusable allocator
// buffers.
type shareBuf struct {
	row      []alloc.Demand
	c, b     []float64
	feasible bool
	ws       alloc.Workspace
}

// share allocates buf.row with the configured allocator into buf.c, buf.b
// and buf.feasible — the shares allocServer installs, computed without
// installing them. With allocation disabled every user gets the equal
// split and feasibility is checked against it.
func (st *state) share(buf *shareBuf) {
	n := len(buf.row)
	buf.c, buf.b = growFloats(buf.c, n), growFloats(buf.b, n)
	buf.feasible = true
	if n == 0 {
		return
	}
	if st.opt.DisableAllocation {
		eq := 1 / float64(n)
		for i := range buf.row {
			buf.c[i], buf.b[i] = eq, eq
			if d := buf.row[i].Deadline; d > 0 && rowLatency(&buf.row[i], eq, eq) > d {
				buf.feasible = false
			}
		}
		return
	}
	var a alloc.Allocation
	switch st.opt.Allocator {
	case MinSumAlloc:
		a = alloc.MinSumLatency(buf.row)
	case MinMaxAlloc:
		a, _ = alloc.MinMaxLatency(buf.row)
	default:
		a = buf.ws.DeadlineAware(buf.row)
	}
	for i := range buf.row {
		buf.c[i] = math.Max(a.Compute[i], 1e-9)
		buf.b[i] = math.Max(a.Bandwidth[i], 1e-9)
	}
	buf.feasible = a.Feasible
}

// rowLatency is Decision.Latency for a demand row entry: a Demand carries
// exactly the Eval fields LatencyAt reads.
func rowLatency(d *alloc.Demand, c, b float64) float64 {
	return surgery.Eval{FixedSec: d.Fixed, ServerSec: d.Server, TxSec: d.Tx}.LatencyAt(orOne(c), orOne(b))
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// shedStep is the dispatcher's admission control: while a server's last
// allocation violated deadline/stability bounds, move its lowest-weight
// user (ties to the earliest index) whose device can hold its model to
// fully local execution, re-plan that user's surgery on-device, and
// re-allocate the lightened server. Servers are independent under
// per-server allocation, so each is drained in index order. Returns the
// number of users shed.
func (st *state) shedStep() (int, error) {
	shed := 0
	for s := range st.assigned {
		var excluded map[int]bool
		for !st.srvFeasible[s] && len(st.assigned[s]) > 0 {
			pick := -1
			for _, ui := range st.assigned[s] {
				if excluded[ui] {
					continue
				}
				u := &st.sc.Users[ui]
				if !u.Device.FitsModel(u.Model) {
					continue
				}
				if pick < 0 || st.hot.weight[ui] < st.hot.weight[pick] {
					pick = ui
				}
			}
			if pick < 0 {
				break // nobody on this server can run locally
			}
			prev := st.ds[pick]
			st.dropFromServer(pick, s)
			st.ds[pick].Server = -1
			st.ds[pick].ComputeShare, st.ds[pick].BandwidthShare = 0, 0
			if err := st.refreshUser(pick); err != nil {
				// On-device surgery can still fail (e.g. an accuracy floor
				// no local plan meets); restore the user and try the next
				// candidate.
				st.ds[pick] = prev
				st.assigned[s] = append(st.assigned[s], pick)
				if excluded == nil {
					excluded = make(map[int]bool)
				}
				excluded[pick] = true
				continue
			}
			st.allocServer(s)
			shed++
		}
	}
	st.feasible = true
	for _, ok := range st.srvFeasible {
		st.feasible = st.feasible && ok
	}
	return shed, nil
}

// dropFromServer removes user ui from server s's assignment list.
func (st *state) dropFromServer(ui, s int) {
	lst := st.assigned[s]
	for i, v := range lst {
		if v == ui {
			st.assigned[s] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}
