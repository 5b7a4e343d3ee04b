package joint

import (
	"math"

	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
)

// This file implements the hierarchical sharded planner — the scale path
// behind Options.ShardThreshold. The monolithic block-coordinate loop is
// exact but super-linear: its reassignment greedy evaluates O(users ×
// servers) candidate moves per round, each against the full decision set,
// which makes planning (not simulation) the bottleneck past a few thousand
// users. The sharded path exploits the same independence structure the
// sharded simulator does:
//
//  1. Users are clustered by server affinity (the planner's own greedy
//     initial assignment) into shards — one shard per server, plus a
//     singleton shard per provably local-only user, mirroring
//     sim.ClusterByServer's component decomposition.
//  2. Each server shard is planned concurrently by the unmodified
//     monolithic core against a provisional capacity split: the shard's
//     server at full capacity, shared only by the shard's own users.
//  3. A small number of capacity-reconciliation rounds migrate users from
//     pressured shards (infeasible, or above-average compute demand) into
//     shards with slack, accepting only moves that strictly improve the
//     global objective, then re-polish every shard with one global
//     surgery + allocation pass. The loop stops when no move is accepted
//     and the objective improvement falls under Epsilon.
//
// When shards never contend — no reconciliation move improves anything and
// every shard's inner loop reaches an exact fixed point (the quantized
// share grid makes fixed points exact, see ShareQuantum) — the sharded
// plan is bit-identical to the monolithic one: the affinity clustering IS
// the monolithic initial assignment, each shard's surgery environment is
// server-local, and the merge preserves the monolithic per-server
// allocation input order. The differential tests pin this, plus a ≤1%
// objective gap on contended scenarios.

// reconcileCandidateBudget bounds the candidate moves a reconciliation
// round may evaluate. Below the budget every (user, target) pair is tried —
// matching the monolithic reassignment greedy's coverage on differential
// test sizes; above it, each shard nominates only its topK worst
// contributors against the two least-loaded targets.
const reconcileCandidateBudget = 4096

// reconcileTopK is the per-shard candidate nomination floor in the
// budget-bounded regime: even the largest shards nominate at least this
// many movers.
const reconcileTopK = 4

// reconcileWorkBudget caps one budget-regime reconciliation round's total
// move-evaluation work, measured in user-slots (candidates × donor shard
// size — a move evaluation re-allocates both touched shards, which is
// linear in their sizes). A fixed work budget makes every round cost about
// the same wall-clock at any scale: mid-size scenarios with small shards
// nominate most of each donor shard, 100k-user shards fall back to the topK
// floor.
const reconcileWorkBudget = 1 << 19

// crossCheckUserLimit bounds the monolithic cross-check pass to
// verification-sized scenarios — the differential test corpus. Above it the
// cross-check would double planning cost for no contractual benefit: the
// sharded path's large-scale quality story is the measured E23 gap, not a
// per-plan guarantee.
const crossCheckUserLimit = 64

// reconcileMaxTargets is the per-candidate target-server count in the
// budget-bounded regime.
const reconcileMaxTargets = 2

// planSharded is the hierarchical planning entry point. opt is the
// already-defaulted option set (see Planner.opts).
func (p *Planner) planSharded(sc *Scenario, opt Options) (*Plan, error) {
	hot := buildUserSoA(sc)
	assign, order := initialAssignmentSoA(sc, hot)

	// Local-only pre-pass: a user whose surgery optimum stays on-device
	// even at the most optimistic share (1.0 of its affinity server) never
	// offloads at any share the planner could allocate — lowering shares
	// only worsens crossing plans and leaves on-device plans untouched.
	// Such users become singleton shards with their optimal plan already in
	// hand, exactly the local components of the simulator's decomposition.
	pin, err := pinLocalUsers(sc, opt, assign)
	if err != nil {
		return nil, err
	}
	// The local-only pre-pass probed one surgery optimization per user;
	// charge it before fanning out so a budget below even that aborts here,
	// deterministically, with no shard work spent.
	pinOps := int64(len(sc.Users))
	if err := opt.checkAbort(pinOps); err != nil {
		return nil, err
	}

	clusters := sim.ClusterByServer(len(sc.Users), len(sc.Servers), false, func(ui int) int {
		if pin[ui] != nil {
			return -1
		}
		return assign[ui]
	})

	// Plan every server shard concurrently with the monolithic core. The
	// fan-out is index-ordered and each shard plan is a pure function of
	// its sub-scenario, so the result is identical at every parallelism
	// level (the PR1 guarantee, one level up).
	shardPlans := make([]*Plan, len(clusters))
	workers := opt.parallelism()
	inner := opt
	inner.ShardThreshold = 0 // shards plan monolithically
	inner.Metrics = nil      // instrumentation is aggregated once, below
	inner.Parallelism = innerParallelism(workers, countServerShards(clusters))
	if opt.SurgeryBudget > 0 {
		// Split the budget left after the pin pass evenly across server
		// shards — a deterministic division, so which shard (if any)
		// overruns is the same at every parallelism level; forEachIndex
		// then surfaces the lowest-index shard's AbortedError.
		if n := countServerShards(clusters); n > 0 {
			share := (opt.SurgeryBudget - pinOps) / int64(n)
			if share < 1 {
				share = 1
			}
			inner.SurgeryBudget = share
		}
	}
	planErr := forEachIndex(workers, len(clusters), func(ci int) error {
		c := clusters[ci]
		if c.Server < 0 {
			return nil // pinned local singleton: decision already computed
		}
		sub := &Scenario{
			Users:           make([]User, len(c.Users)),
			Servers:         []Server{sc.Servers[c.Server]},
			Curves:          sc.Curves,
			PlanningHorizon: sc.PlanningHorizon,
		}
		for li, gu := range c.Users {
			sub.Users[li] = sc.Users[gu]
		}
		sp := Planner{Opt: inner}
		plan, err := sp.Plan(sub)
		if err != nil {
			return err
		}
		shardPlans[ci] = plan
		return nil
	})
	if planErr != nil {
		return nil, planErr
	}

	st, bestObj := mergeShardPlans(sc, opt, hot, clusters, shardPlans, pin, order)
	// The merged state's own ledger restarts at the pin-pass cost; shard
	// (and later cross-check) work arrives through sub-plan SurgeryOps so
	// stampCounters doesn't double-count it. subOps tracks that sub-plan
	// total for the checkpoints below.
	st.spent = pinOps
	var subOps int64
	for _, sp := range shardPlans {
		if sp != nil {
			subOps += sp.SurgeryOps
		}
	}
	if err := opt.checkAbort(st.spent + subOps); err != nil {
		return nil, err
	}

	// Capacity reconciliation: migrate load between shards, then re-polish
	// with the monotone surgery + allocation pair. The best-objective
	// snapshot guarantees reconciliation can never return a worse plan than
	// the plain merge.
	traj := []float64{bestObj}
	bestDs := append([]Decision(nil), st.ds...)
	bestFeasible := st.feasible
	maxShardIters := 0
	for _, sp := range shardPlans {
		if sp == nil {
			continue
		}
		if sp.Iterations > maxShardIters {
			maxShardIters = sp.Iterations
		}
	}
	// The shard plans (and, below, the monolithic cross-check plan) carry
	// the memoization tallies of their uninstrumented inner planners;
	// stampCounters folds them into the final plan and the registry.
	subPlans := append([]*Plan(nil), shardPlans...)

	prev := bestObj
	rounds := 0
	// Small scenarios reconcile with the monolithic greedy's own round
	// budget: there the goal is fidelity to the monolithic reference (the
	// differential bound), not wall-clock. At scale ReconcileRounds governs.
	maxRounds := opt.ReconcileRounds
	if len(sc.Users)*len(sc.Servers) <= reconcileCandidateBudget && opt.MaxIters > maxRounds {
		maxRounds = opt.MaxIters
	}
	for r := 0; r < maxRounds; r++ {
		if opt.DisableReassignment || len(sc.Servers) < 2 {
			break
		}
		if err := opt.checkAbort(st.spent + subOps); err != nil {
			return nil, err
		}
		moved, touched := st.reconcileStep(nil)
		if moved == 0 && r == 0 {
			// Nothing to rebalance: every shard is already at its own fixed
			// point, so the merge IS the plan (and, on non-contended
			// scenarios, the monolithic plan bit for bit).
			break
		}
		// Polish only the shards a migration touched: one surgery pass at
		// the post-move shares, then re-allocation. Untouched shards sit at
		// their inner fixed point, where the pass would be a no-op — skipping
		// them keeps reconciliation cost proportional to contention, not to
		// scenario size.
		if err := st.polishServers(touched); err != nil {
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
		if moved == 0 && prev-cur <= opt.Epsilon*math.Max(prev, 1e-12) {
			break
		}
		prev = cur
	}

	// Small scenarios finish with a monolithic cross-check: greedy
	// first-improvement descent is path dependent, and shards converged in
	// isolation can land in a different basin than the interleaved
	// monolithic loop. At verification sizes the cross-check pins the
	// differential contract — sharded never worse than monolithic — by
	// construction; ties keep the sharded decisions, so the bit-identity
	// guarantee on non-contended scenarios is unaffected. Above the limit
	// the check is skipped (it would double planning cost): there the
	// reconciliation rounds are the whole story and E23 reports the
	// measured gap instead.
	runCross := len(sc.Users) <= crossCheckUserLimit
	crossBudget := int64(0)
	if runCross && opt.SurgeryBudget > 0 {
		// The cross-check runs on whatever budget remains; if nothing does,
		// skip it deterministically (its failures are swallowed anyway, so
		// an in-flight abort would only waste the charged work).
		crossBudget = opt.SurgeryBudget - (st.spent + subOps)
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
		PlannerName: p.Name(),
		Shards:      len(clusters),
	}
	st.stampCounters(plan, subPlans...)
	if opt.Metrics != nil {
		opt.Metrics.Counter("planner.plans").Inc()
		opt.Metrics.Counter("planner.iterations").Add(int64(plan.Iterations))
		opt.Metrics.Counter("planner.shards").Add(int64(len(clusters)))
	}
	return plan, nil
}

// innerParallelism splits the worker budget across shard-internal planners:
// when there are fewer shards than workers the spare workers fan out inside
// each shard instead of idling. Plans are identical at every split — this
// only shapes wall-clock.
func innerParallelism(workers, serverShards int) int {
	if serverShards <= 0 {
		return 1
	}
	inner := workers / serverShards
	if inner < 1 {
		inner = 1
	}
	return inner
}

func countServerShards(clusters []sim.Cluster) int {
	n := 0
	for _, c := range clusters {
		if c.Server >= 0 {
			n++
		}
	}
	return n
}

// pinLocalUsers returns, per user, the pre-computed local Decision when the
// user is provably local-only (nil otherwise): its surgery optimum on its
// affinity server at the full share stays on-device, so no allocation the
// planner could produce would make it offload. The check fans across the
// worker pool; each user's probe is a pure function of the scenario.
func pinLocalUsers(sc *Scenario, opt Options, assign []int) ([]*Decision, error) {
	pin := make([]*Decision, len(sc.Users))
	var cache *surgeryCache
	if !opt.DisableSurgeryCache {
		cache = newSurgeryCache(nil)
	}
	// The pre-pass probes at full shares (1, 1) — an exact point of both
	// share grids and exactly the per-server environments BuildFrontierSet
	// tabulates, so frontier-enabled runs answer the whole pass from the
	// tables. Like the local cache above, it is queried without counting:
	// the pass runs before any planning state (and its counters) exists.
	front := newFrontierStats(opt.Frontiers, nil, len(sc.Users), len(sc.Servers), !opt.DisableFrontierMemo)
	err := forEachIndex(opt.parallelism(), len(sc.Users), func(ui int) error {
		u := &sc.Users[ui]
		srv := &sc.Servers[assign[ui]]
		env := surgery.Env{
			Device:         u.Device,
			Difficulty:     u.Difficulty,
			Curves:         sc.Curves,
			Rate:           u.planningRate(),
			TxFactor:       u.TxCompression,
			Server:         srv.Profile,
			ComputeShare:   1,
			BandwidthShare: 1,
			UplinkBps:      sc.meanUplink(assign[ui]),
			RTT:            srv.RTT,
		}
		sopt := opt.surgeryOptions(u)
		var key surgeryKey
		var plan surgery.Plan
		var ev surgery.Eval
		var ok bool
		if front != nil {
			plan, ev, ok = front.lookup(ui, assign[ui], u.Model, env, sopt)
		}
		if !ok && cache != nil {
			key = keyFor(u.Model, env, sopt)
			plan, ev, ok = cache.peek(key)
		}
		if !ok {
			var err error
			plan, ev, err = surgery.Optimize(u.Model, env, sopt)
			if err != nil {
				// An infeasible full-share probe (e.g. an accuracy floor no
				// plan meets) is a real planning failure; surface it with
				// the monolithic path's error rather than mislabeling the
				// user local.
				return err
			}
			if cache != nil {
				cache.put(key, plan, ev)
			}
		}
		if plan.Partition < u.Model.NumUnits() {
			return nil // the optimum crosses: this user genuinely wants a server
		}
		pin[ui] = &Decision{Plan: plan, Eval: ev, Server: -1}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pin, nil
}

// mergeShardPlans folds per-shard plans and pinned local decisions into one
// global planning state. Per-server assignment lists replay the global
// greedy acceptance order, so the allocation inputs downstream of the merge
// see exactly the order the monolithic path would have used — a
// prerequisite for the bit-identity guarantee on non-contended scenarios.
func mergeShardPlans(sc *Scenario, opt Options, hot *userSoA, clusters []sim.Cluster, shardPlans []*Plan, pin []*Decision, order []int) (*state, float64) {
	st := &state{sc: sc, opt: opt, feasible: true, hot: hot}
	st.ds = make([]Decision, len(sc.Users))
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

	for ci, c := range clusters {
		if c.Server < 0 {
			gu := c.Users[0]
			st.ds[gu] = *pin[gu]
			continue
		}
		sp := shardPlans[ci]
		for li, gu := range c.Users {
			d := sp.Decisions[li]
			if d.Server >= 0 {
				d.Server = c.Server // shard-local server 0 → global index
			}
			st.ds[gu] = d
		}
		if !sp.Feasible {
			st.feasible = false
			st.srvFeasible[c.Server] = false
		}
	}
	// Assignment lists in global acceptance order (see initialAssignment).
	for _, ui := range order {
		if s := st.ds[ui].Server; s >= 0 {
			st.assigned[s] = append(st.assigned[s], ui)
		}
	}
	st.recomputeFeasible()
	return st, st.objectiveNow()
}

// recomputeFeasible rebuilds the global feasibility flag from the
// per-server flags plus the deadline checks of device-only users, which no
// allocator ever sees (allocation only covers server-assigned users).
func (st *state) recomputeFeasible() {
	st.feasible = true
	for _, ok := range st.srvFeasible {
		st.feasible = st.feasible && ok
	}
	for ui := range st.ds {
		if st.ds[ui].Server >= 0 {
			continue
		}
		if d := st.hot.deadline[ui]; d > 0 && st.ds[ui].Latency() > d {
			st.feasible = false
		}
	}
}

// polishServers runs one surgery refresh for every user on a touched
// server (envs snapshotted first, index-ordered fan-out — the surgeryStep
// purity discipline) followed by re-allocation of each touched server.
func (st *state) polishServers(touched []bool) error {
	var users []int
	for s, t := range touched {
		if t {
			users = append(users, st.assigned[s]...)
		}
	}
	st.spent += int64(len(users))
	envs := make([]surgery.Env, len(users))
	for i, ui := range users {
		envs[i] = st.env(ui)
	}
	if err := forEachIndex(st.workers, len(users), func(i int) error {
		return st.optimizeUser(users[i], envs[i])
	}); err != nil {
		return err
	}
	for s, t := range touched {
		if t {
			st.allocServer(s)
		}
	}
	return nil
}
