package joint

import (
	"math"
	"sync"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/workload"
)

// ShareQuantum is the resolution of the share-quantization grid applied to
// every surgery environment before optimization: compute and bandwidth
// shares are rounded to the nearest multiple of 1/ShareQuantum (floored at
// one quantum) both when calling surgery.Optimize and when forming cache
// keys. Because the planner always optimizes at the quantized shares —
// cache hit or miss — memoization can never change a plan, only skip
// recomputing it; the quantization itself perturbs plan *selection* by at
// most the latency difference a half-quantum share shift induces (see
// DESIGN.md, "Planner concurrency and memoization").
const ShareQuantum = 4096

// quantizeShare rounds a share to the planner's fixed grid, clamped to
// [1/ShareQuantum, 1]. Non-positive shares (device-only environments) stay
// zero.
func quantizeShare(s float64) float64 {
	if s <= 0 {
		return 0
	}
	q := math.Round(s * ShareQuantum)
	if q < 1 {
		q = 1
	}
	if q > ShareQuantum {
		q = ShareQuantum
	}
	return q / ShareQuantum
}

// surgeryKey identifies one memoizable surgery problem within a single
// planner invocation. Scenario-wide constants (exit curves, theta grid,
// accuracy buckets) are deliberately excluded: the cache never outlives the
// Plan call that created it, so they cannot vary across entries.
type surgeryKey struct {
	model      *dnn.Model
	device     *hardware.Profile
	server     *hardware.Profile // nil when no server is reachable
	uplinkBps  float64
	rtt        float64
	f, b       float64 // quantized compute/bandwidth share (exact grid values)
	rate       float64
	minAcc     float64
	txFactor   float64
	difficulty workload.DifficultyKind
	noExits    bool
}

// keyFor derives the cache key of an already-quantized environment. Shares
// enter the key as their exact quantized values: both the uniform
// ShareQuantum grid and the frontier path's geometric grid produce a finite
// set of exact float64 levels, so keying on the values themselves works for
// either (integer quanta would collide distinct geometric levels).
func keyFor(m *dnn.Model, env surgery.Env, sopt surgery.Options) surgeryKey {
	return surgeryKey{
		model:      m,
		device:     env.Device,
		server:     env.Server,
		uplinkBps:  env.UplinkBps,
		rtt:        env.RTT,
		f:          env.ComputeShare,
		b:          env.BandwidthShare,
		rate:       env.Rate,
		minAcc:     sopt.MinAccuracy,
		txFactor:   env.TxFactor,
		difficulty: env.Difficulty,
		noExits:    sopt.NoExits,
	}
}

// surgeryEntry is a memoized optimizer result. Plan/Eval carry shared
// slices (Exits, ExitProbs); consumers treat them as read-only.
type surgeryEntry struct {
	plan surgery.Plan
	eval surgery.Eval
}

// surgeryCache memoizes surgery.Optimize results for one planner
// invocation. It is safe for concurrent use by the parallel surgery and
// reassignment steps. Because the planner optimizes at quantized shares
// unconditionally, a hit returns exactly what the miss path would compute,
// so cache behaviour (including racy double-misses under parallelism)
// never changes planner output — it only changes the hit/miss counters.
// The hit/miss tallies live in telemetry counters: when the planner is
// instrumented (Options.Metrics) they are the registry's
// "planner.surgery_cache.hits"/".misses" series and accumulate across Plan
// calls; otherwise they are private standalone counters. Either way the
// per-Plan counts the Plan struct reports are deltas against the baselines
// captured at cache construction, so the old accessors keep their exact
// per-call semantics.
type surgeryCache struct {
	mu      sync.Mutex
	entries map[surgeryKey]surgeryEntry
	hits    *telemetry.Counter
	misses  *telemetry.Counter
	h0, m0  int64 // counter baselines at construction (per-Plan deltas)
}

func newSurgeryCache(reg *telemetry.Registry) *surgeryCache {
	c := &surgeryCache{entries: make(map[surgeryKey]surgeryEntry)}
	if reg != nil {
		c.hits = reg.Counter("planner.surgery_cache.hits")
		c.misses = reg.Counter("planner.surgery_cache.misses")
	} else {
		c.hits, c.misses = new(telemetry.Counter), new(telemetry.Counter)
	}
	c.h0, c.m0 = c.hits.Value(), c.misses.Value()
	return c
}

func (c *surgeryCache) get(k surgeryKey) (surgery.Plan, surgery.Eval, bool) {
	plan, ev, ok := c.peek(k)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return plan, ev, ok
}

// peek is get without counting, for callers that tally lookups themselves
// (see lookupTally) or keep no tally.
func (c *surgeryCache) peek(k surgeryKey) (surgery.Plan, surgery.Eval, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	c.mu.Unlock()
	return e.plan, e.eval, ok
}

func (c *surgeryCache) put(k surgeryKey, plan surgery.Plan, eval surgery.Eval) {
	c.mu.Lock()
	c.entries[k] = surgeryEntry{plan: plan, eval: eval}
	c.mu.Unlock()
}

// counters returns the (hits, misses) accumulated since this cache was
// built — a thin wrapper over the telemetry counters. Under parallelism > 1
// two workers may race to a first lookup of the same key and both miss, so
// the split is approximate there; hits+misses always equals the number of
// surgery optimizations requested.
func (c *surgeryCache) counters() (hits, misses int64) {
	return c.hits.Value() - c.h0, c.misses.Value() - c.m0
}

// lookupTally counts one surgery-answer sequence's frontier and cache
// outcomes privately. A speculative move evaluation records into its own
// tally, and only the evaluations a scan actually consumes are folded into
// the shared counters — so the counters never depend on how much
// speculation ran, i.e. on Parallelism.
type lookupTally struct {
	frontHits, frontMisses, cacheHits, cacheMisses int64
}

// fold adds a tally to the state's frontier and surgery-cache counters.
func (st *state) fold(t *lookupTally) {
	if st.front != nil {
		st.front.hits.Add(t.frontHits)
		st.front.misses.Add(t.frontMisses)
	}
	if st.cache != nil {
		st.cache.hits.Add(t.cacheHits)
		st.cache.misses.Add(t.cacheMisses)
	}
}

// stampCounters writes the per-call memoization tallies into plan: the
// state's own surgery-cache and frontier deltas plus the tallies of any
// sub-plans produced by uninstrumented inner planners (the sharded path's
// shard and cross-check plans). Sub-plan tallies are also published to the
// planner's registry — the state's own counters already live there as
// series when instrumented. This is the single aggregation point behind
// every plan producer (Plan, PlanWithAssignment, the dispatcher's Observe,
// and planSharded), so new counter kinds are added here once instead of
// being copied per call site.
func (st *state) stampCounters(plan *Plan, sub ...*Plan) {
	var sch, scm, sfh, sfm, sops int64
	for _, sp := range sub {
		if sp == nil {
			continue
		}
		sch += sp.SurgeryCacheHits
		scm += sp.SurgeryCacheMisses
		sfh += sp.FrontierHits
		sfm += sp.FrontierMisses
		sops += sp.SurgeryOps
	}
	if reg := st.opt.Metrics; reg != nil {
		// Publish only non-zero sub-plan tallies: a zero Add would still
		// create the series, changing the registry rendering of runs whose
		// path never produced that counter kind.
		if sch > 0 {
			reg.Counter("planner.surgery_cache.hits").Add(sch)
		}
		if scm > 0 {
			reg.Counter("planner.surgery_cache.misses").Add(scm)
		}
		if sfh > 0 {
			reg.Counter("planner.frontier.hits").Add(sfh)
		}
		if sfm > 0 {
			reg.Counter("planner.frontier.misses").Add(sfm)
		}
	}
	plan.SurgeryCacheHits, plan.SurgeryCacheMisses = sch, scm
	plan.FrontierHits, plan.FrontierMisses = sfh, sfm
	plan.SurgeryOps = st.spent + sops
	if st.cache != nil {
		h, m := st.cache.counters()
		plan.SurgeryCacheHits += h
		plan.SurgeryCacheMisses += m
	}
	if st.front != nil {
		h, m := st.front.counters()
		plan.FrontierHits += h
		plan.FrontierMisses += m
	}
}
