package surgery

import (
	"fmt"
	"math"
	"slices"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/workload"
)

// Options controls the surgery optimizer.
type Options struct {
	// ThetaGrid lists the confidence thresholds to consider. Empty means
	// DefaultThetaGrid.
	ThetaGrid []float64
	// MinAccuracy is the expected-accuracy floor a plan must satisfy
	// (0 disables the constraint).
	MinAccuracy float64
	// AccBuckets quantizes the accuracy dimension of the constrained DP;
	// values <= 0 mean 400, and values above MaxAccBuckets are rejected.
	// Rounding is downward, so accepted plans genuinely satisfy
	// MinAccuracy.
	AccBuckets int
	// MaxDeviceEnergyJ caps the expected device-side energy per task in
	// joules (compute plus radio airtime at the environment's bandwidth
	// share; see Eval.DeviceEnergyAt). 0 disables the constraint. Note the
	// radio term stretches as the bandwidth share shrinks, so feasibility
	// under this cap is share-dependent.
	MaxDeviceEnergyJ float64
	// NoExits restricts surgery to pure partitioning (Neurosurgeon-style
	// baseline behaviour).
	NoExits bool
	// FixedPartition pins the partition point; use FreePartition to let
	// the optimizer sweep it.
	FixedPartition int
}

// FreePartition lets Optimize sweep all partition points.
const FreePartition = -1

// defaultAccBuckets is the constrained DP's resolution when
// Options.AccBuckets is zero.
const defaultAccBuckets = 400

// MaxAccBuckets is the largest Options.AccBuckets Optimize accepts: the
// constrained DP packs a bucket index into the low 16 bits of each
// predecessor link.
const MaxAccBuckets = 0xffff

// defaultThetaGrid is allocated once; DefaultThetaGrid hands out the shared
// slice so the optimizer's inner loops never re-allocate it.
var defaultThetaGrid = []float64{0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8}

// DefaultThetaGrid is the threshold sweep used when Options.ThetaGrid is
// empty. 0 is the most permissive (every exit fires for the easiest
// inputs); values near 1 effectively disable early exits. The returned
// slice is shared and immutable: callers must not modify it.
func DefaultThetaGrid() []float64 {
	return defaultThetaGrid
}

// Optimize finds the minimum-expected-latency surgery plan for one user in
// the given environment, subject to the accuracy floor. It sweeps partition
// points and thresholds, and for each solves the exit-subset selection
// exactly (up to accuracy quantization) as a resource-constrained shortest
// path over the exit chain. It is compile followed by one solve: frontier
// construction runs the same kernel, compiled once per table and solved
// at every probed share pair.
func Optimize(m *dnn.Model, env Env, opt Options) (Plan, Eval, error) {
	if err := env.Validate(); err != nil {
		return Plan{}, Eval{}, err
	}
	k, err := compile(m, env, opt)
	if err != nil {
		return Plan{}, Eval{}, err
	}
	best, err := k.solve(env.ComputeShare, env.BandwidthShare)
	if err != nil {
		return Plan{}, Eval{}, err
	}
	plan, ev := k.result(best, env.ComputeShare, env.BandwidthShare)
	return plan, ev, nil
}

// partitionCandidates returns the partition points consistent with device
// and server memory and with the options.
func partitionCandidates(m *dnn.Model, env Env, opt Options) []int {
	n := m.NumUnits()
	var out []int
	lo, hi := 0, n
	if opt.FixedPartition != FreePartition {
		lo, hi = opt.FixedPartition, opt.FixedPartition
	}
	// Prefix parameter bytes and running-max activations are cached on the
	// model, so the sweep below allocates nothing beyond the result slice.
	for p := lo; p <= hi; p++ {
		if p < 0 || p > n {
			continue
		}
		if p > 0 {
			need := m.PrefixParamBytes(p) + 2*m.MaxActBytesThrough(p)
			if need > env.Device.MemBytes {
				continue
			}
		}
		if p < n && env.Server == nil {
			continue
		}
		if p < n && env.Server != nil {
			need := (m.PrefixParamBytes(n) - m.PrefixParamBytes(p)) + 2*m.MaxActivationBytes()
			if need > env.Server.MemBytes {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// kernel is one surgery problem compiled for every share pair. Optimize's
// result depends on the compute and bandwidth shares only through the
// backbone edge times of the exit chain and through the final latency;
// everything else — unit and head times, the confidence powers and
// difficulty CDF of each threshold, the accuracy of each exit, and the
// evaluation of every plan the sweep visits — is computed once per
// kernel. A solve recomputes the edge times once per partition (they do
// not depend on the threshold), reruns the chain shortest paths, and
// re-derives each visited plan's Latency from its memoized evaluation
// through Eval.LatencyAt. Every value comes from the same expressions in
// the same operation order as a from-scratch evaluation, so results are
// bit-identical at any shares.
type kernel struct {
	m      *dnn.Model
	env    Env // shares are ignored: solve takes them explicitly
	opt    Options
	thetas []float64
	parts  []int
	cand   []int // exit candidate cuts, ascending, < NumUnits

	devUnit   []float64 // device time of unit k+1
	srvUnit   []float64 // server time (share=1) of unit k+1
	devPrefix []float64 // device time of units 1..k
	srvPrefix []float64 // server time (share=1) of units 1..k
	headDev   []float64 // device time of candidate i's head
	headSrv   []float64 // server time of candidate i's head
	// Per chain node (0 = source at cut 0, 1..K = candidates, K+1 =
	// final): accAt is the accuracy of exiting there, and F holds the
	// difficulty CDF at the node's confidence power, one row of K+2
	// values per threshold. accFinal is the final exit's accuracy at its
	// depth fraction, the operand evaluateValid uses.
	accAt    []float64
	F        []float64
	accFinal float64

	// Per-solve scratch: edge times of the current partition, row-major
	// (K+2)×(K+2), and the shortest-path state.
	T         []float64
	dist      []float64
	prev      []int
	dp, dpAcc []float64 // (K+2)×(buckets+1), constrained DP only
	from      []int32
	buckets   int
	chosen    []uint64 // exit bitmask (bit i = cand[i]) of the last solveChain

	// Memo of the share-independent evaluation of every (partition,
	// threshold, exit set) the sweep has visited. Entries of one
	// (partition, threshold) slot form a chain from head[slot]; entry i's
	// exit bitmask is masks[i*words : (i+1)*words].
	head  []int32
	memo  []memoEntry
	masks []uint64
	words int
}

// memoEntry is one visited plan: its slot (partition index ×
// len(thetas) + threshold index) and the share-independent Eval fields
// the sweep reads. The rest of the evaluation is only needed for the
// winner and is computed by result.
type memoEntry struct {
	slot int32
	next int32 // next entry of the same slot, -1 ends the chain

	accuracy, fixedSec, serverSec, txSec, deviceSec float64
}

// eval returns the entry's evaluation with the sweep's fields set.
func (e *memoEntry) eval() Eval {
	return Eval{Accuracy: e.accuracy, FixedSec: e.fixedSec, ServerSec: e.serverSec, TxSec: e.txSec, DeviceSec: e.deviceSec}
}

// compile derives everything about one surgery problem that does not
// depend on the shares. env must already be valid.
func compile(m *dnn.Model, env Env, opt Options) (*kernel, error) {
	if opt.AccBuckets > MaxAccBuckets {
		return nil, fmt.Errorf("surgery: AccBuckets %d exceeds the maximum %d", opt.AccBuckets, MaxAccBuckets)
	}
	n := m.NumUnits()

	thetas := opt.ThetaGrid
	if len(thetas) == 0 {
		thetas = DefaultThetaGrid()
	}
	if opt.NoExits {
		thetas = thetas[:1] // theta is irrelevant without exits
	}

	parts := partitionCandidates(m, env, opt)
	if len(parts) == 0 {
		return nil, fmt.Errorf("surgery: no feasible partition for %s on %s (memory)", m.Name, env.Device.Name)
	}

	// Exit candidates strictly inside the backbone. ExitCandidates is
	// cached on the model and ascending, so the interior candidates are a
	// prefix — reuse it without allocating.
	var cand []int
	if !opt.NoExits {
		cand = m.ExitCandidates()
		for len(cand) > 0 && cand[len(cand)-1] >= n {
			cand = cand[:len(cand)-1]
		}
	}
	K := len(cand)
	N := K + 2

	k := &kernel{m: m, env: env, opt: opt, thetas: thetas, parts: parts, cand: cand, words: (K + 63) / 64}
	// One backing array for every float table the kernel keeps.
	fl := make([]float64, 2*n+2*(n+1)+2*K+N+len(thetas)*N+N*N+N)
	carve := func(size int) []float64 {
		s := fl[:size:size]
		fl = fl[size:]
		return s
	}
	k.devUnit, k.srvUnit = carve(n), carve(n)
	k.devPrefix, k.srvPrefix = carve(n+1), carve(n+1)
	k.headDev, k.headSrv = carve(K), carve(K)
	k.accAt, k.F = carve(N), carve(len(thetas)*N)
	k.T, k.dist = carve(N*N), carve(N)
	k.prev = make([]int, N)

	for i, u := range m.Units {
		k.devUnit[i] = env.Device.UnitTime(u)
		k.devPrefix[i+1] = k.devPrefix[i] + k.devUnit[i]
		if env.Server != nil {
			k.srvUnit[i] = env.Server.UnitTime(u)
			k.srvPrefix[i+1] = k.srvPrefix[i] + k.srvUnit[i]
		}
	}
	curves := env.curves()
	for i, c := range cand {
		hf, _ := HeadCost(m, c)
		k.headDev[i] = env.Device.FLOPsTime(hf)
		if env.Server != nil {
			k.headSrv[i] = env.Server.FLOPsTime(hf)
		}
		k.accAt[i+1] = curves.Accuracy(DepthFrac(m, c))
	}
	k.accAt[K+1] = curves.Accuracy(1)
	k.accFinal = curves.Accuracy(DepthFrac(m, n))
	for ti, theta := range thetas {
		row := k.F[ti*N : (ti+1)*N]
		for i := range row {
			tau := 1.0
			switch {
			case i == 0:
				tau = 0
			case i <= K:
				tau = curves.Confidence(DepthFrac(m, cand[i-1]), theta)
			}
			row[i] = workload.DifficultyCDF(env.Difficulty, tau)
		}
	}

	if opt.MinAccuracy > 0 {
		k.buckets = opt.AccBuckets
		if k.buckets <= 0 {
			k.buckets = defaultAccBuckets
		}
		B := k.buckets + 1
		dp := make([]float64, 2*N*B)
		k.dp, k.dpAcc = dp[:N*B:N*B], dp[N*B:]
		k.from = make([]int32, N*B)
	}

	slots := len(parts) * len(thetas)
	k.head = make([]int32, slots)
	for i := range k.head {
		k.head[i] = -1
	}
	k.memo = make([]memoEntry, 0, slots)
	if k.words > 0 {
		k.chosen = make([]uint64, k.words)
		k.masks = make([]uint64, 0, slots*k.words)
	}
	return k, nil
}

// solve runs the sweep at the given shares and returns the memo entry of
// the winning plan. Ties keep the first winner in (partition, threshold)
// order.
func (k *kernel) solve(computeShare, bandwidthShare float64) (int32, error) {
	f, b := envShare(computeShare), envShare(bandwidthShare)
	best := int32(-1)
	bestLat := math.Inf(1)
	for pi, p := range k.parts {
		k.edgeTimes(p, f, b)
		for ti := range k.thetas {
			if !k.solveChain(ti) {
				continue
			}
			id := k.visit(int32(pi*len(k.thetas) + ti))
			ev := k.memo[id].eval()
			if !k.feasible(&ev, b) {
				continue
			}
			if lat := ev.LatencyAt(f, b); lat < bestLat {
				best, bestLat = id, lat
			}
		}
	}
	if best < 0 {
		if k.opt.MaxDeviceEnergyJ > 0 {
			return -1, fmt.Errorf("surgery: no plan meets accuracy %.3f within device energy budget %.3g J (rate %.3g/s) for %s", k.opt.MinAccuracy, k.opt.MaxDeviceEnergyJ, k.env.Rate, k.m.Name)
		}
		return -1, fmt.Errorf("surgery: no plan meets accuracy %.3f (rate %.3g/s) for %s", k.opt.MinAccuracy, k.env.Rate, k.m.Name)
	}
	return best, nil
}

// feasible applies the plan filters: the accuracy floor, device-queue
// stability at the user's rate, and the device energy budget at
// bandwidth share b.
func (k *kernel) feasible(ev *Eval, b float64) bool {
	if k.opt.MinAccuracy > 0 && ev.Accuracy+1e-12 < k.opt.MinAccuracy {
		return false
	}
	if k.env.Rate > 0 && k.env.Rate*ev.DeviceSec > DeviceStabilityRho {
		return false // device queue would be unstable at this rate
	}
	if k.opt.MaxDeviceEnergyJ > 0 && ev.DeviceEnergyAt(k.env.Device, b) > k.opt.MaxDeviceEnergyJ {
		return false // plan would drain the device past its energy budget
	}
	return true
}

// visit returns the memo entry of the plan in slot with the exit set of
// the last solveChain, evaluating and recording it on first sight.
func (k *kernel) visit(slot int32) int32 {
	w := k.words
	for id := k.head[slot]; id >= 0; id = k.memo[id].next {
		if slices.Equal(k.masks[int(id)*w:int(id)*w+w], k.chosen) {
			return id
		}
	}
	e := k.evaluate(slot, k.chosen)
	e.slot, e.next = slot, k.head[slot]
	id := int32(len(k.memo))
	k.memo = append(k.memo, e)
	k.masks = append(k.masks, k.chosen...)
	k.head[slot] = id
	return id
}

// evaluate computes the memoized Eval fields of the plan in slot with exit
// bitmask mask. It is evaluateValid over the kernel's tables: unit times
// summed left to right exactly as RangeTime sums them, the same head
// times, and the same CDF and accuracy values, combined by the same
// expressions in the same order — so every field is bit-identical to
// evaluateValid's (TestKernelEvaluateMatchesEvaluateValid).
func (k *kernel) evaluate(slot int32, mask []uint64) memoEntry {
	nt := int32(len(k.thetas))
	p := k.parts[slot/nt]
	K := len(k.cand)
	N := K + 2
	F := k.F[int(slot%nt)*N : int(slot%nt+1)*N]
	n := k.m.NumUnits()
	sum := func(units []float64) float64 {
		var t float64
		for _, u := range units {
			t += u
		}
		return t
	}

	var e memoEntry
	prevCut, prevNode := 0, 0
	var cumDev, cumSrv, cumTx, cumRTT float64 // path accumulators up to current exit
	for node := 1; node < N; node++ {
		if node <= K && !hasExit(mask, node-1) {
			continue
		}
		cut := k.cut(node)
		// Backbone segment (prevCut, cut].
		devEnd := min(cut, p)
		if devEnd > prevCut {
			cumDev += sum(k.devUnit[prevCut:devEnd])
		}
		srvStart := max(prevCut, p)
		if cut > srvStart {
			cumSrv += sum(k.srvUnit[srvStart:cut])
		}
		if prevCut <= p && p < cut {
			bits := float64(k.m.CutBytes(p)) * 8 * k.env.txFactor()
			cumTx += bits / k.env.UplinkBps
			cumRTT += k.env.RTT
		}
		acc := k.accFinal
		if cut < n {
			if cut <= p {
				cumDev += k.headDev[node-1]
			} else {
				cumSrv += k.headSrv[node-1]
			}
			acc = k.accAt[node]
		}
		pe := F[node] - F[prevNode]
		if pe < 0 {
			pe = 0
		}
		e.deviceSec += pe * cumDev
		e.serverSec += pe * cumSrv
		e.txSec += pe * cumTx
		e.fixedSec += pe * cumRTT
		e.accuracy += pe * acc
		prevCut, prevNode = cut, node
	}
	e.fixedSec += e.deviceSec
	return e
}

// planAt assembles the plan of a slot and exit bitmask.
func (k *kernel) planAt(slot int32, mask []uint64) Plan {
	var exits []int
	for i, c := range k.cand {
		if hasExit(mask, i) {
			exits = append(exits, c)
		}
	}
	nt := int32(len(k.thetas))
	return Plan{Model: k.m, Exits: exits, Theta: k.thetas[slot%nt], Partition: k.parts[slot/nt]}
}

// hasExit reports whether exit bitmask mask selects candidate i.
func hasExit(mask []uint64, i int) bool {
	return mask[i/64]&(1<<(i%64)) != 0
}

// addExit selects candidate i in exit bitmask mask.
func addExit(mask []uint64, i int) {
	mask[i/64] |= 1 << (i % 64)
}

// result materializes memo entry id as a plan and evaluation owning their
// slices, with Latency at the given shares.
func (k *kernel) result(id int32, computeShare, bandwidthShare float64) (Plan, Eval) {
	w := int(id) * k.words
	plan := k.planAt(k.memo[id].slot, k.masks[w:w+k.words])
	ev := evaluateValid(plan, k.env)
	ev.Latency = ev.LatencyAt(envShare(computeShare), envShare(bandwidthShare))
	return plan, ev
}

// cut maps a chain node to its backbone cut.
func (k *kernel) cut(i int) int {
	switch {
	case i == 0:
		return 0
	case i <= len(k.cand):
		return k.cand[i-1]
	default:
		return k.m.NumUnits()
	}
}

// edgeTimes fills T with every chain edge's latency under partition p at
// shares (f, b): the backbone segment between the two nodes' cuts plus the
// target exit's head. None of it depends on the threshold, so one fill
// serves the whole theta sweep.
func (k *kernel) edgeTimes(p int, f, b float64) {
	K := len(k.cand)
	N := K + 2
	for j := 1; j < N; j++ {
		for i := 0; i < j; i++ {
			t := k.segTime(k.cut(i), k.cut(j), p, f, b)
			if j <= K {
				t += k.headTime(j-1, p, f)
			}
			k.T[i*N+j] = t
		}
	}
}

// segTime returns the latency contribution of the backbone segment
// (fromCut, toCut] plus the transfer if the segment crosses partition p,
// at shares (f, b).
func (k *kernel) segTime(fromCut, toCut, p int, f, b float64) float64 {
	t := 0.0
	devEnd := min(toCut, p)
	if devEnd > fromCut {
		t += k.devPrefix[devEnd] - k.devPrefix[fromCut]
	}
	srvStart := max(fromCut, p)
	if toCut > srvStart {
		t += (k.srvPrefix[toCut] - k.srvPrefix[srvStart]) / f
	}
	if fromCut <= p && p < toCut {
		bits := float64(k.m.CutBytes(p)) * 8 * k.env.txFactor()
		t += bits/(k.env.UplinkBps*b) + k.env.RTT
	}
	return t
}

// headTime returns the latency of candidate i's head under partition p at
// compute share f.
func (k *kernel) headTime(i, p int, f float64) float64 {
	if k.cand[i] <= p {
		return k.headDev[i]
	}
	return k.headSrv[i] / f
}

// solveChain finds the optimal exit subset for the current partition's
// edge times and threshold index ti, leaving it in k.chosen. Nodes are
// (virtual source, candidates..., final); the expected latency decomposes
// over consecutive selected exits as (1 - F(tau_i)) * T_seg(i, j), so
// subset selection is a shortest path, with a quantized-accuracy
// dimension when MinAccuracy binds.
func (k *kernel) solveChain(ti int) bool {
	K := len(k.cand)
	N := K + 2
	F := k.F[ti*N : (ti+1)*N]
	T := k.T
	clear(k.chosen)
	const inf = math.MaxFloat64

	if k.opt.MinAccuracy <= 0 {
		// Pure shortest path over the DAG.
		dist, prev := k.dist, k.prev
		dist[0] = 0
		prev[0] = -1
		for i := 1; i < N; i++ {
			dist[i] = inf
			prev[i] = -1
		}
		for j := 1; j < N; j++ {
			for i := 0; i < j; i++ {
				if dist[i] == inf {
					continue
				}
				if d := dist[i] + (1-F[i])*T[i*N+j]; d < dist[j] {
					dist[j] = d
					prev[j] = i
				}
			}
		}
		for node := prev[K+1]; node > 0; node = prev[node] {
			addExit(k.chosen, node-1)
		}
		return true
	}

	// Resource-constrained shortest path with a quantized accuracy index.
	// Each DP cell carries the *exact* accumulated accuracy of its stored
	// path; the bucket index only compresses the state space, so rounding
	// error does not accumulate along paths. Ties within a bucket keep the
	// lower-latency path (a bounded-error dominance rule; the caller
	// re-verifies the final plan exactly).
	buckets := k.buckets
	B := buckets + 1
	delta := k.env.curves().Final / float64(buckets)
	dp, acc, from := k.dp, k.dpAcc, k.from // min latency, exact accuracy of the stored path, packed predecessor (node, bucket)
	for i := range dp {
		dp[i] = inf
		acc[i] = 0
		from[i] = -1
	}
	dp[0] = 0
	for j := 1; j < N; j++ {
		dpj, accj, fromj := dp[j*B:(j+1)*B], acc[j*B:(j+1)*B], from[j*B:(j+1)*B]
		for i := 0; i < j; i++ {
			le := (1 - F[i]) * T[i*N+j]
			ae := F[j] - F[i]
			if ae < 0 {
				ae = 0
			}
			ae *= k.accAt[j]
			dpi, acci := dp[i*B:(i+1)*B], acc[i*B:(i+1)*B]
			for q := 0; q <= buckets; q++ {
				if dpi[q] == inf {
					continue
				}
				na := acci[q] + ae
				nq := int(na / delta)
				if nq > buckets {
					nq = buckets
				}
				d := dpi[q] + le
				if d < dpj[nq] || (d == dpj[nq] && na > accj[nq]) {
					dpj[nq] = d
					accj[nq] = na
					fromj[nq] = int32(i)<<16 | int32(q)
				}
			}
		}
	}
	bestQ, bestD := -1, inf
	last, lastAcc := dp[(K+1)*B:], acc[(K+1)*B:]
	for q := 0; q <= buckets; q++ {
		if last[q] < inf && lastAcc[q]+1e-12 >= k.opt.MinAccuracy && last[q] < bestD {
			bestD = last[q]
			bestQ = q
		}
	}
	if bestQ < 0 {
		return false
	}
	for node, q := K+1, bestQ; node != 0; {
		f := from[node*B+q]
		if f < 0 {
			return false
		}
		pnode, pq := int(f>>16), int(f&0xffff)
		if pnode != 0 {
			addExit(k.chosen, pnode-1)
		}
		node, q = pnode, pq
	}
	return true
}
