package joint

import (
	"math"
	"sort"

	"edgesurgeon/internal/alloc"
	"edgesurgeon/internal/surgery"
)

// This file implements capacity reconciliation, the user-to-server
// assignment step of the hierarchical and delta planners (step 3 of
// hierarchical.go's outline). A scan walks candidate migrations in a fixed
// order and accepts the first one in each mover's target list that
// strictly improves the objective. Each candidate is evaluated read-only —
// evalMove computes the move's shares, the mover's surgery answers and the
// objective terms into a private arena without touching the planning state
// — and only an accepted candidate is installed, by commitMove. Because
// evaluations never write shared state, a window of consecutive candidates
// can be evaluated concurrently against the unchanged state; the scan then
// consumes the window in order and stops at the first accepted candidate,
// so the accepted sequence, the plans and the counters are exactly those of
// a one-at-a-time scan (see speculate).

// reconcileStep is one capacity-reconciliation migration pass: move users
// out of pressured shards (infeasible first, then above-average normalized
// compute demand) into shards with slack, accepting only moves that
// strictly improve the objective over the two touched shards. A pass costs
// O(candidates × shard size) rather than the monolithic greedy's O(users ×
// servers × n). Candidate nomination, target order, and acceptance are all
// deterministic (pressure order with index tiebreaks, first improvement
// wins). Returns the accepted move count and the set of servers any
// accepted move touched.
//
// scope, when non-nil, restricts the DONOR side to the flagged servers —
// the delta-replan contract: only shards whose inputs changed (or that a
// prior accepted move touched) may shed users, while every server remains a
// legal TARGET, so load can drain out of a drifted shard into any slack in
// the fleet. nil means every server donates (the full-replan behavior).
func (st *state) reconcileStep(scope []bool) (int, []bool) {
	nServers := len(st.sc.Servers)
	touched := make([]bool, nServers)
	if nServers < 2 {
		return 0, touched
	}
	if len(st.sc.Users)*nServers <= reconcileCandidateBudget {
		// Small scenarios get the monolithic reassignment greedy verbatim —
		// users in index order, targets in server order, first global
		// improvement wins — so the differential gap versus the monolithic
		// planner stays within the pinned bound.
		return st.reconcileExhaustive(scope, touched)
	}

	// Normalized compute demand per server: how much of the server each
	// shard's plans want at full capacity.
	demand := make([]float64, nServers)
	for s := range st.assigned {
		for _, ui := range st.assigned[s] {
			demand[s] += st.ds[ui].Eval.ServerSec * math.Max(st.hot.rate[ui], 0)
		}
	}

	// Donor order: infeasible shards first, then by descending demand;
	// index breaks ties. Every shard donates — even a below-average shard
	// can hold users whose latency improves elsewhere (a slow server with
	// slack is still the wrong home for a heavy user) — but the pressured
	// shards go first so they drain while targets still have room.
	donors := make([]int, 0, nServers)
	for s := 0; s < nServers; s++ {
		if scope != nil && !scope[s] {
			continue
		}
		donors = append(donors, s)
	}
	sort.SliceStable(donors, func(a, b int) bool {
		da, db := donors[a], donors[b]
		if st.srvFeasible[da] != st.srvFeasible[db] {
			return !st.srvFeasible[da]
		}
		return demand[da] > demand[db]
	})

	// Accept on the two-shard objective alone: in the budget-bounded regime
	// the full objective is too expensive to consult per candidate, and the
	// untouched shards contribute a constant to it anyway.
	moved := st.speculate(&budgetScan{st: st, donors: donors, demand: demand},
		func(ev *moveEval) bool { return ev.after < ev.before*(1-1e-9) },
		func(ev *moveEval) {
			// Keep the demand ledger current so later target picks see the
			// shifted load.
			d := st.ds[ev.ui].Eval.ServerSec * math.Max(st.hot.rate[ev.ui], 0)
			demand[ev.from] -= d
			demand[ev.to] += d
			touched[ev.from], touched[ev.to] = true, true
		})
	return moved, touched
}

// reconcileExhaustive is the small-scenario reconciliation pass: the
// monolithic reassignment greedy's exact scan — users in index order,
// targets in server-index order, first move that strictly improves the
// GLOBAL objective (same relative threshold) wins — evaluated read-only
// instead of on scratch clones. Matching the monolithic scan keeps the
// differential gap on test-sized scenarios within the pinned bound. scope
// (nil = all) restricts donors exactly as in reconcileStep: a user may only
// move if its current server is in scope.
func (st *state) reconcileExhaustive(scope, touched []bool) (int, []bool) {
	// base is the global objective of the current state; only a commit
	// changes it.
	base, fresh := 0.0, false
	moved := st.speculate(&exhaustiveScan{st: st, scope: scope},
		func(ev *moveEval) bool {
			if !fresh {
				base, fresh = st.objectiveNow(), true
			}
			// base - before + after is the global objective the move leaves
			// behind: only the two touched shards' terms change.
			return base-ev.before+ev.after < base*(1-1e-9)
		},
		func(ev *moveEval) {
			fresh = false
			touched[ev.from], touched[ev.to] = true, true
		})
	return moved, touched
}

// nominationWidth sizes a donor shard's candidate list so one round's
// total move-evaluation work (candidates × shard size, times the target
// fan-out) stays under reconcileWorkBudget regardless of scale, never
// dropping below the reconcileTopK floor.
func (st *state) nominationWidth(nDonors, s int) int {
	size := len(st.assigned[s])
	if nDonors < 1 {
		nDonors = 1
	}
	if size < 1 {
		size = 1
	}
	k := reconcileWorkBudget / (nDonors * reconcileMaxTargets * size)
	if k < reconcileTopK {
		k = reconcileTopK
	}
	return k
}

// nominate picks the donor shard's candidate movers: the topK users by
// weighted-latency contribution (the ones a move could help most — a
// bounded nomination even for infeasible shards, since draining an
// overload is shedStep's job, not reconciliation's). The returned order is
// deterministic.
func (st *state) nominate(s, topK int) []int {
	users := st.assigned[s]
	if len(users) <= topK {
		return append([]int(nil), users...)
	}
	cand := append([]int(nil), users...)
	contrib := func(ui int) float64 {
		return st.hot.weight[ui] * st.ds[ui].Latency()
	}
	sort.SliceStable(cand, func(a, b int) bool { return contrib(cand[a]) > contrib(cand[b]) })
	return cand[:topK]
}

// targets orders the candidate destination servers for a move out of s:
// ascending demand (the shards with the most slack first), index tiebreak,
// bounded to reconcileMaxTargets.
func (st *state) targets(s int, demand []float64) []int {
	out := make([]int, 0, len(demand)-1)
	for t := range demand {
		if t != s {
			out = append(out, t)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return demand[out[a]] < demand[out[b]] })
	if len(out) > reconcileMaxTargets {
		out = out[:reconcileMaxTargets]
	}
	return out
}

// twoShardObjective sums the weighted latency of every user currently on
// the two given servers — the only objective terms a migration between them
// can change.
func (st *state) twoShardObjective(a, b int) float64 {
	var sum float64
	for _, ui := range st.assigned[a] {
		sum += st.hot.weight[ui] * st.ds[ui].Latency()
	}
	for _, ui := range st.assigned[b] {
		sum += st.hot.weight[ui] * st.ds[ui].Latency()
	}
	return sum
}

// movePair is one candidate migration: user ui from server from to server
// to.
type movePair struct{ ui, from, to int }

// moveSource enumerates one reconciliation scan's candidates in scan order.
// The enumeration may depend on the planning state (nominations, target
// rankings), so a source only ever enumerates against the state as it
// stands after every commit so far.
type moveSource interface {
	// fill writes the candidates that follow the scan position into pairs,
	// without advancing, and returns how many it wrote (0: scan done).
	fill(pairs []movePair) int
	// consume advances past the first k candidates of the last fill;
	// accepted reports that the k-th was committed, which ends its mover's
	// target list.
	consume(k int, accepted bool)
}

// exhaustiveScan enumerates every (user, target) pair: users in index
// order, targets in server order. A commit moves only the mover, so the
// pairs of later users do not depend on earlier commits.
type exhaustiveScan struct {
	st     *state
	scope  []bool
	ui, to int        // scan position
	last   []movePair // the last fill
}

func (x *exhaustiveScan) fill(pairs []movePair) int {
	st := x.st
	ui, to := x.ui, x.to
	n := 0
	for n < len(pairs) && ui < len(st.sc.Users) {
		from := st.ds[ui].Server
		if from < 0 || (x.scope != nil && !x.scope[from]) || to >= len(st.sc.Servers) {
			ui, to = ui+1, 0
			continue
		}
		if to != from {
			pairs[n] = movePair{ui: ui, from: from, to: to}
			n++
		}
		to++
	}
	x.last = pairs[:n]
	return n
}

func (x *exhaustiveScan) consume(k int, accepted bool) {
	p := x.last[k-1]
	if accepted {
		x.ui, x.to = p.ui+1, 0
	} else {
		x.ui, x.to = p.ui, p.to+1
	}
}

// budgetScan enumerates the budget regime's candidates: donors in pressure
// order, each donor's nominees (chosen when the scan reaches the donor),
// each nominee against its targets (ranked by the demand ledger when the
// scan reaches the nominee).
type budgetScan struct {
	st     *state
	donors []int
	demand []float64
	cur    budgetCursor
	marks  []budgetCursor // the cursor at each pair of the last fill
}

// budgetCursor is a budgetScan position. Copies share the nominee and
// target slices, which are never modified once built.
type budgetCursor struct {
	di        int // position in donors
	nominated bool
	noms      []int // donor di's nominees, once nominated
	ni        int   // position in noms
	ranked    bool
	tgts      []int // nominee ni's targets, once ranked
	ti        int   // position in tgts
}

func (b *budgetScan) fill(pairs []movePair) int {
	st := b.st
	c := b.cur
	b.marks = b.marks[:0]
	for len(b.marks) < len(pairs) && c.di < len(b.donors) {
		s := b.donors[c.di]
		if !c.nominated {
			c.noms, c.nominated = st.nominate(s, st.nominationWidth(len(b.donors), s)), true
		}
		if c.ni >= len(c.noms) {
			c = budgetCursor{di: c.di + 1}
			continue
		}
		ui := c.noms[c.ni]
		if st.ds[ui].Server != s {
			c.ni, c.ranked = c.ni+1, false // an earlier accepted move already relocated it
			continue
		}
		if !c.ranked {
			c.tgts, c.ranked, c.ti = st.targets(s, b.demand), true, 0
		}
		if c.ti >= len(c.tgts) {
			c.ni, c.ranked = c.ni+1, false
			continue
		}
		pairs[len(b.marks)] = movePair{ui: ui, from: s, to: c.tgts[c.ti]}
		b.marks = append(b.marks, c)
		c.ti++
	}
	return len(b.marks)
}

func (b *budgetScan) consume(k int, accepted bool) {
	c := b.marks[k-1]
	if accepted {
		c.ni, c.ranked = c.ni+1, false
	} else {
		c.ti++
	}
	b.cur = c
}

// speculate runs one reconciliation scan over src. Candidates are taken in
// windows whose evaluations run concurrently against the unchanged state,
// and each window is then consumed in scan order: every consumed candidate
// charges the mover's two surgery refreshes to the work ledger and folds
// its lookup tally into the counters, and the first one accept approves is
// committed (then passed to committed). The rest of the window is dropped
// unconsumed, and the next window is enumerated from the state the commit
// left. The consumed sequence is therefore exactly a one-at-a-time scan's,
// so plans, SurgeryOps and the frontier and cache lookup totals are
// identical at every Parallelism level; the dropped evaluations are the
// only extra work. Window size never changes a result, only that waste: a
// window holds one candidate at Parallelism 1 (no speculation at all),
// else it starts at the worker count after every commit — commits arrive
// in bursts, and each one discards the rest of its window — and doubles
// after every commit-free window, up to 4×workers. Returns the number of
// commits.
func (st *state) speculate(src moveSource, accept func(*moveEval) bool, committed func(*moveEval)) int {
	sc := st.moveArena()
	moved := 0
	w := min(st.workers, len(sc.pairs))
	for {
		n := src.fill(sc.pairs[:w])
		if n == 0 {
			return moved
		}
		for _, p := range sc.pairs[:n] {
			sc.prepare(st, p)
		}
		_ = forEachIndex(st.workers, n, func(k int) error {
			st.evalMove(sc.pairs[k], &sc.slots[k])
			return nil
		})
		k, accepted := 0, false
		for k < n && !accepted {
			ev := &sc.slots[k]
			k++
			st.spent += 2 // the mover's two surgery refreshes
			st.fold(&ev.tally)
			if ev.ok && accept(ev) {
				st.commitMove(ev)
				committed(ev)
				moved++
				accepted = true
			}
		}
		src.consume(k, accepted)
		if accepted {
			w = min(st.workers, len(sc.pairs))
		} else {
			w = min(2*w, len(sc.pairs))
		}
	}
}

// moveScan is the reconciliation scans' arena, kept on the state across
// rounds. Besides the speculation slots it caches, per scan, what every
// evaluation touching a server reads: the server's demand row, its
// offloader count, and the two-shard objective of each (donor, target)
// pair. prepare fills these sequentially before a window's evaluations
// start, so the concurrent evaluations only read them; a commit
// invalidates the entries of the two servers it touched.
type moveScan struct {
	nServers int
	rows     [][]alloc.Demand // per server: demand row in assignment order
	rowOK    []bool
	offl     []int     // per server: users whose plan crosses, valid with the row
	pos      []int32   // per user: index in its server's row, valid with the row
	before   []float64 // per (from, to): twoShardObjective, valid with beforeOK
	beforeOK []bool
	pairs    []movePair
	slots    []moveEval
}

// moveArena returns the state's scan arena with every cache invalidated —
// the surgery and allocation passes between scans change what they hold.
func (st *state) moveArena() *moveScan {
	if st.scan == nil {
		nS := len(st.sc.Servers)
		w := 1
		if st.workers > 1 {
			w = 4 * st.workers
		}
		st.scan = &moveScan{
			nServers: nS,
			rows:     make([][]alloc.Demand, nS),
			rowOK:    make([]bool, nS),
			offl:     make([]int, nS),
			pos:      make([]int32, len(st.sc.Users)),
			before:   make([]float64, nS*nS),
			beforeOK: make([]bool, nS*nS),
			pairs:    make([]movePair, w),
			slots:    make([]moveEval, w),
		}
	}
	clear(st.scan.rowOK)
	clear(st.scan.beforeOK)
	return st.scan
}

// prepare makes sure every cache entry the evaluation of p reads is valid.
func (sc *moveScan) prepare(st *state, p movePair) {
	for _, s := range [2]int{p.from, p.to} {
		if sc.rowOK[s] {
			continue
		}
		sc.rows[s] = st.appendDemands(sc.rows[s][:0], s)
		sc.offl[s] = 0
		for i, ui := range st.assigned[s] {
			sc.pos[ui] = int32(i)
			if crosses(&st.ds[ui].Plan) {
				sc.offl[s]++
			}
		}
		sc.rowOK[s] = true
	}
	if k := p.from*sc.nServers + p.to; !sc.beforeOK[k] {
		sc.before[k] = st.twoShardObjective(p.from, p.to)
		sc.beforeOK[k] = true
	}
}

// invalidate drops the cache entries a commit between servers a and b made
// stale.
func (sc *moveScan) invalidate(a, b int) {
	sc.rowOK[a], sc.rowOK[b] = false, false
	clear(sc.beforeOK)
}

// evalMove evaluates migrating user p.ui from server p.from to server p.to
// without changing the planning state: the mover joins the target at the
// equal split and re-runs surgery there, both servers re-allocate (the
// donor without the mover, the target with the mover last, at its first
// answer), and the mover re-runs surgery once more at its allocated share —
// the same refresh pattern the monolithic candidate evaluation uses. Every
// float is computed by the same expression, in the same order, as
// installing the move and re-reading the state would, so acceptance is
// bit-for-bit that of an in-place evaluation. A surgery failure leaves
// ev.ok false, which rejects the candidate. Safe for concurrent use with
// distinct ev once the arena is prepared for p.
func (st *state) evalMove(p movePair, ev *moveEval) {
	sc := st.scan
	ev.movePair = p
	ev.ok = false
	ev.tally = lookupTally{}
	eq := 1 / float64(len(st.assigned[p.to])+1)
	_, first, err := st.solve(p.ui, p.to, st.envAt(p.ui, p.to, eq, eq, sc.offl[p.to]), &ev.tally)
	if err != nil {
		return
	}
	row, at := sc.rows[p.from], sc.pos[p.ui]
	ev.donor.row = append(append(ev.donor.row[:0], row[:at]...), row[at+1:]...)
	st.share(&ev.donor)
	ev.target.row = append(append(ev.target.row[:0], sc.rows[p.to]...), st.demandOf(p.ui, &first))
	st.share(&ev.target)
	last := len(ev.target.row) - 1
	fs, bs := ev.target.c[last], ev.target.b[last]
	ev.plan, ev.eval, err = st.solve(p.ui, p.to, st.envAt(p.ui, p.to, fs, bs, sc.offl[p.to]), &ev.tally)
	if err != nil {
		return
	}
	ev.before = sc.before[p.from*sc.nServers+p.to]
	var after float64
	for i := range ev.donor.row {
		d := &ev.donor.row[i]
		after += d.Weight * rowLatency(d, ev.donor.c[i], ev.donor.b[i])
	}
	for i := 0; i < last; i++ {
		d := &ev.target.row[i]
		after += d.Weight * rowLatency(d, ev.target.c[i], ev.target.b[i])
	}
	ev.after = after + st.hot.weight[p.ui]*ev.eval.LatencyAt(orOne(fs), orOne(bs))
	ev.ok = true
}

// commitMove installs an evaluated move: the mover's assignment, its final
// surgery answer, both servers' shares and feasibility flags.
func (st *state) commitMove(ev *moveEval) {
	st.moveUser(ev.ui, ev.from, ev.to)
	st.ds[ev.ui].Plan, st.ds[ev.ui].Eval = ev.plan, ev.eval
	for i, ui := range st.assigned[ev.from] {
		st.ds[ui].ComputeShare, st.ds[ui].BandwidthShare = ev.donor.c[i], ev.donor.b[i]
	}
	for i, ui := range st.assigned[ev.to] {
		st.ds[ui].ComputeShare, st.ds[ui].BandwidthShare = ev.target.c[i], ev.target.b[i]
	}
	st.srvFeasible[ev.from], st.srvFeasible[ev.to] = ev.donor.feasible, ev.target.feasible
	st.scan.invalidate(ev.from, ev.to)
}

// moveEval is one candidate migration's read-only evaluation: everything
// commitMove needs to install it and everything acceptance reads. Each
// speculation slot owns one and reuses its buffers across candidates.
type moveEval struct {
	movePair
	ok     bool // both of the mover's surgery refreshes succeeded
	plan   surgery.Plan
	eval   surgery.Eval // the mover's answer at its allocated shares
	donor  shareBuf     // the donor's post-move allocation, mover removed
	target shareBuf     // the target's post-move allocation, mover last
	// before and after are the two shards' weighted latency sums without
	// and with the move, summed as twoShardObjective sums them.
	before, after float64
	tally         lookupTally
}
