package joint

import (
	"fmt"
	"math"

	"edgesurgeon/internal/surgery"
)

// This file implements incremental delta-replanning — the control plane's
// answer to drift that touches a few servers out of many. A full replan
// re-derives every decision from equal shares (O(n) surgery across all
// shards plus global reconciliation); PlanDelta instead warm-starts from
// the previous plan's decisions, re-optimizes only the shards whose inputs
// actually changed (the "dirty" servers, as judged by the caller's drift
// tracking), and runs capacity-reconciliation rounds whose donor set is
// restricted to the dirty shards plus whatever shards an accepted
// migration touched. The work is therefore O(dirty shard sizes), not O(n):
// clean shards contribute only their (unchanged) objective terms, and with
// the SoA user state plus the per-state move arena a single-dirty-shard
// replan allocates O(shard) as well.
//
// The contract is deliberately weaker than Plan's: a delta plan is a
// refinement of the previous plan under the new conditions, not a global
// re-solve. Decisions on clean servers are carried over verbatim —
// including their Evals, which were computed at the previous planning-time
// rates; sub-threshold drift on a clean link is the approximation the
// caller accepted when it declared the shard clean. The differential suite
// pins the result within 1% of a same-state full replan on seeded drift
// traces, and the E26 study records the measured gap at scale.

// PlanDelta replans only the dirty shards of a previously planned scenario.
// sc must be the drifted scenario (same users and servers as the one prev
// was planned against — only link rates and profiles may have changed);
// dirty[s] marks server s's shard for re-planning. Decisions of users on
// clean servers are preserved bit-for-bit. The previous plan is never
// mutated. With no dirty shard the previous decisions are returned
// unchanged (fresh counters, "+delta" planner name).
//
// Budget/cancellation semantics match Plan: Options.SurgeryBudget bounds
// the deterministic scheduled-work ledger, overruns return *AbortedError
// and no partial plan, and the charge points all sit on sequential
// orchestration code, so an abort fires at the same point at every
// Parallelism level.
func (p *Planner) PlanDelta(sc *Scenario, prev *Plan, dirty []bool) (*Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(sc.Servers) == 0 {
		return nil, fmt.Errorf("joint: scenario has no servers (use the local-only baseline for device-only studies)")
	}
	if prev == nil || len(prev.Decisions) != len(sc.Users) {
		got := 0
		if prev != nil {
			got = len(prev.Decisions)
		}
		return nil, fmt.Errorf("joint: previous plan has %d decisions for %d users", got, len(sc.Users))
	}
	if len(dirty) != len(sc.Servers) {
		return nil, fmt.Errorf("joint: dirty mask covers %d servers, scenario has %d", len(dirty), len(sc.Servers))
	}
	for ui := range prev.Decisions {
		if s := prev.Decisions[ui].Server; s >= len(sc.Servers) {
			return nil, fmt.Errorf("joint: previous plan assigns user %d to unknown server %d", ui, s)
		}
	}
	opt := p.opts()
	nDirty := 0
	for _, d := range dirty {
		if d {
			nDirty++
		}
	}
	name := p.Name() + "+delta"
	if nDirty == 0 {
		// Nothing drifted: the previous decisions are already the answer.
		plan := clonePlan(prev)
		plan.PlannerName = name
		plan.Iterations, plan.Shards, plan.DirtyShards = 0, 0, 0
		plan.Trajectory = nil
		plan.SurgeryCacheHits, plan.SurgeryCacheMisses = 0, 0
		plan.FrontierHits, plan.FrontierMisses = 0, 0
		plan.SurgeryOps = 0
		return plan, nil
	}

	st := newDeltaState(sc, opt, prev)
	if err := st.checkpoint(); err != nil {
		return nil, err
	}

	// Phase 1: re-plan each dirty shard in isolation, warm-started from the
	// previous shares. Ascending server order keeps the pass deterministic;
	// within a shard the surgery fan-out is index-ordered as everywhere
	// else, so the result is identical at every Parallelism level.
	maxShardIters := 0
	for s := range dirty {
		if !dirty[s] {
			continue
		}
		iters, err := st.replanShard(s, opt)
		if err != nil {
			return nil, err
		}
		if iters > maxShardIters {
			maxShardIters = iters
		}
	}
	st.recomputeFeasible()

	// Phase 2: scoped capacity reconciliation. Donors start as the dirty
	// shards (only they can have become the wrong home for their users);
	// every server remains a legal target, and shards an accepted move
	// touched join the donor scope for later rounds — contention ripples
	// outward exactly as far as migrations actually reach.
	//
	// Verification-sized scenarios (the exhaustive-reconcile regime, where
	// the differential suite lives) instead reconcile with the full donor
	// set and the monolithic round budget, exactly like planSharded: there
	// the contract is fidelity to a same-state full replan (the pinned ≤1%
	// gap), not wall-clock, and the dirty-only scope can strand an
	// improving move whose donor happens to be a clean shard. At scale the
	// budget regime takes over and the donor scope is what makes the pass
	// O(dirty).
	bestObj := st.objectiveNow()
	traj := []float64{bestObj}
	bestDs := append([]Decision(nil), st.ds...)
	bestFeasible := st.feasible
	scope := append([]bool(nil), dirty...)
	maxRounds := opt.ReconcileRounds
	if len(sc.Users)*len(sc.Servers) <= reconcileCandidateBudget {
		scope = nil
		if opt.MaxIters > maxRounds {
			maxRounds = opt.MaxIters
		}
	}
	prevObj := bestObj
	rounds := 0
	for r := 0; r < maxRounds; r++ {
		if opt.DisableReassignment || len(sc.Servers) < 2 {
			break
		}
		if err := st.checkpoint(); err != nil {
			return nil, err
		}
		moved, touched := st.reconcileStep(scope)
		if moved == 0 && r == 0 {
			break
		}
		if scope != nil {
			// Scale regime: every mover's surgery was already refreshed at
			// its new home by the move evaluation, and incumbents' surgery
			// plans are still optimal for shares that only shifted
			// marginally — so a round
			// re-balances shares on the touched shards and charges no surgery
			// ops at all. Re-optimizing whole touched shards here is what
			// would drag a dirty-single-shard replan back to O(n): the full
			// polish is reserved for the verification regime below, where
			// fidelity to a monolithic replan is the pinned contract.
			for s, t := range touched {
				if t {
					st.allocServer(s)
				}
			}
		} else if err := st.polishServers(touched); err != nil {
			return nil, err
		}
		st.recomputeFeasible()
		cur := st.objectiveNow()
		traj = append(traj, cur)
		rounds++
		if cur < bestObj {
			bestObj = cur
			bestDs = append(bestDs[:0], st.ds...)
			bestFeasible = st.feasible
		}
		if scope != nil {
			for s, t := range touched {
				if t {
					scope[s] = true
				}
			}
		}
		converged := prevObj-cur <= opt.Epsilon*math.Max(prevObj, 1e-12)
		if scope != nil {
			// Scale regime: a round is O(candidates × shard size) even when it
			// accepts nothing, so stop as soon as improvement falls under
			// Epsilon — a handful of straggler moves that shift the objective
			// by less than the convergence tolerance is not worth another
			// full candidate scan. The fidelity regime below keeps scanning
			// until a genuinely move-free round, like planSharded.
			if moved == 0 || converged {
				break
			}
		} else if moved == 0 && converged {
			break
		}
		prevObj = cur
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}

	// Verification-sized scenarios finish with the same monolithic
	// cross-check planSharded runs: warm-started descent is path dependent,
	// and on the differential corpus the pinned ≤1% contract versus a full
	// replan needs the same escape hatch from a bad basin. Ties keep the
	// delta decisions; above the limit the measured E26 gap is the story.
	var subPlans []*Plan
	var subOps int64
	runCross := len(sc.Users) <= crossCheckUserLimit
	crossBudget := int64(0)
	if runCross && opt.SurgeryBudget > 0 {
		crossBudget = opt.SurgeryBudget - st.spent
		if crossBudget < 1 {
			runCross = false
		}
	}
	if runCross {
		mopt := opt
		mopt.ShardThreshold = 0
		mopt.Metrics = nil
		mopt.SurgeryBudget = crossBudget
		mp := Planner{Opt: mopt}
		if mono, err := mp.Plan(sc); err == nil {
			subPlans = append(subPlans, mono)
			subOps += mono.SurgeryOps
			traj = append(traj, mono.Objective)
			if mono.Objective < bestObj {
				bestObj = mono.Objective
				bestDs = append(bestDs[:0], mono.Decisions...)
				bestFeasible = mono.Feasible
			}
		}
	}
	if err := opt.checkAbort(st.spent + subOps); err != nil {
		return nil, err
	}

	plan := &Plan{
		Decisions:   bestDs,
		Objective:   bestObj,
		Feasible:    bestFeasible,
		Iterations:  maxShardIters + rounds,
		Trajectory:  traj,
		PlannerName: name,
		DirtyShards: nDirty,
	}
	st.stampCounters(plan, subPlans...)
	if opt.Metrics != nil {
		opt.Metrics.Counter("planner.plans").Inc()
		opt.Metrics.Counter("planner.iterations").Add(int64(plan.Iterations))
		opt.Metrics.Counter("planner.delta_plans").Inc()
		opt.Metrics.Counter("planner.dirty_shards").Add(int64(nDirty))
	}
	return plan, nil
}

// newDeltaState builds a planning state warm-started from a previous plan:
// decisions copied verbatim, per-server assignment lists replayed in the
// global descending-work acceptance order (the order every other planning
// route produces, so downstream allocation sees order-identical inputs),
// and uplinks resolved from the drifted scenario. Per-server feasibility is
// seeded from the carried-over decisions' deadline satisfaction — the
// allocator's stability bound is re-checked only on shards that actually
// re-allocate, which dirty shards (and any shard a reconciliation move
// touches) always do.
func newDeltaState(sc *Scenario, opt Options, prev *Plan) *state {
	st := &state{sc: sc, opt: opt, feasible: true}
	st.hot = buildUserSoA(sc)
	st.ds = append([]Decision(nil), prev.Decisions...)
	st.assigned = make([][]int, len(sc.Servers))
	st.srvFeasible = make([]bool, len(sc.Servers))
	for s := range st.srvFeasible {
		st.srvFeasible[s] = true
	}
	st.uplink = make([]float64, len(sc.Servers))
	for s := range sc.Servers {
		st.uplink[s] = sc.meanUplink(s)
	}
	st.workers = opt.parallelism()
	if !opt.DisableSurgeryCache {
		st.cache = newSurgeryCache(opt.Metrics)
	}
	st.front = newFrontierStats(opt.Frontiers, opt.Metrics, len(sc.Users), len(sc.Servers), !opt.DisableFrontierMemo)
	for _, ui := range workOrder(st.hot) {
		if s := st.ds[ui].Server; s >= 0 {
			st.assigned[s] = append(st.assigned[s], ui)
		}
	}
	for s := range st.assigned {
		for _, ui := range st.assigned[s] {
			if d := st.hot.deadline[ui]; d > 0 && st.ds[ui].Latency() > d {
				st.srvFeasible[s] = false
			}
		}
	}
	return st
}

// replanShard re-converges one server's shard in place, warm-started from
// the shares currently installed: alternating surgery (at the drifted
// uplink) and re-allocation until the shard's objective slice stops
// improving, with a best-snapshot restore so the probe-share floor's
// transient regressions can never leave the shard worse than its best
// visited point. Only this shard's users are touched; cost is
// O(iterations × shard size). Returns the round count.
func (st *state) replanShard(s int, opt Options) (int, error) {
	users := st.assigned[s]
	if len(users) == 0 {
		st.allocServer(s) // clears the stale feasibility flag
		return 0, nil
	}
	prev := st.shardObjective(s)
	bestObj := prev
	bestDs := make([]Decision, len(users))
	for i, ui := range users {
		bestDs[i] = st.ds[ui]
	}
	bestFeas := st.srvFeasible[s]
	envs := make([]surgery.Env, len(users))
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		// Charge the pass before running it — scheduled work, so the ledger
		// is parallelism-invariant — and abort with no partial effects
		// beyond this shard (the caller discards the state on error).
		st.spent += int64(len(users))
		if err := st.checkpoint(); err != nil {
			return iters, err
		}
		for i, ui := range users {
			envs[i] = st.env(ui)
		}
		if err := forEachIndex(st.workers, len(users), func(i int) error {
			return st.optimizeUser(users[i], envs[i])
		}); err != nil {
			return iters, err
		}
		st.allocServer(s)
		cur := st.shardObjective(s)
		if cur < bestObj {
			bestObj = cur
			for i, ui := range users {
				bestDs[i] = st.ds[ui]
			}
			bestFeas = st.srvFeasible[s]
		}
		if prev-cur <= opt.Epsilon*math.Max(prev, 1e-12) {
			iters++
			break
		}
		prev = cur
	}
	for i, ui := range users {
		st.ds[ui] = bestDs[i]
	}
	st.srvFeasible[s] = bestFeas
	return iters, nil
}

// ExtendFrontierSet adds frontier tables for the dirty servers' drifted
// environments to an existing set: one key per (user, dirty server) pair at
// the scenario's current planning-time uplink, deduplicated, keys already
// tabulated skipped, and the missing list truncated to the set's remaining
// table headroom up front — Build refuses keys at capacity, so truncating
// first keeps which keys get tables independent of build order and
// parallelism. Device-only keys never drift (they contain no link state) so
// they are not revisited. Returns the number of tables added. Build
// failures are swallowed exactly as in BuildFrontierSet: the planner's
// optimizer fallback surfaces any real error with the user attached.
func ExtendFrontierSet(set *surgery.FrontierSet, sc *Scenario, opt Options, servers []bool) int {
	if set == nil {
		return 0
	}
	uplink := make([]float64, len(sc.Servers))
	for s := range sc.Servers {
		if s < len(servers) && servers[s] {
			uplink[s] = sc.meanUplink(s)
		}
	}
	seen := make(map[surgery.FrontierKey]bool)
	var missing []surgery.FrontierKey
	for ui := range sc.Users {
		u := &sc.Users[ui]
		sopt := opt.surgeryOptions(u)
		for s := range sc.Servers {
			if s >= len(servers) || !servers[s] {
				continue
			}
			env := surgery.Env{
				Device:         u.Device,
				Difficulty:     u.Difficulty,
				Curves:         sc.Curves,
				Rate:           u.planningRate(),
				TxFactor:       u.TxCompression,
				Server:         sc.Servers[s].Profile,
				ComputeShare:   1,
				BandwidthShare: 1,
				UplinkBps:      uplink[s],
				RTT:            sc.Servers[s].RTT,
			}
			k := surgery.KeyOf(u.Model, env, sopt)
			if seen[k] {
				continue
			}
			seen[k] = true
			if set.Get(k) == nil {
				missing = append(missing, k)
			}
		}
	}
	room := set.Budget() - set.Len()
	if room < 0 {
		room = 0
	}
	if len(missing) > room {
		missing = missing[:room]
	}
	before := set.Len()
	_ = forEachIndex(opt.parallelism(), len(missing), func(i int) error {
		_ = set.Build(missing[i])
		return nil
	})
	return set.Len() - before
}

// DirtyServers returns the indices flagged in a dirty mask, ascending — the
// canonical order journal entries and tests report dirty-shard sets in.
func DirtyServers(dirty []bool) []int {
	var out []int
	for s, d := range dirty {
		if d {
			out = append(out, s)
		}
	}
	return out
}
