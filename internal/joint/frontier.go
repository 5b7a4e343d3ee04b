package joint

import (
	"sort"
	"sync/atomic"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// This file wires the precomputed Pareto-frontier surgery tables
// (surgery.FrontierSet) into the planner's hot path. With
// Options.Frontiers set, every per-user surgery environment snaps its
// shares to the set's geometric grid instead of the uniform ShareQuantum
// grid, and optimizeUser answers from the tables when the key is
// tabulated — an O(log levels) binary-searched quantization plus an O(1)
// cell read — falling back to surgery.Optimize (at the same snapped
// shares) otherwise. Because a table hit returns exactly what the
// optimizer would compute at those shares, hit/miss mix, table budget,
// parallelism and shard threshold can never change planner output for a
// given grid; the differential tests pin this against an empty set.

// frontierStats is the planner's per-call view of a frontier set: the
// shared tables plus hit/miss telemetry. Like the surgery cache's
// counters, the hits/misses live in registry series
// ("planner.frontier.hits"/".misses") when the planner is instrumented and
// in private counters otherwise; per-Plan reports are deltas against the
// construction-time baselines.
type frontierStats struct {
	set          *surgery.FrontierSet
	grid         surgery.ShareGrid
	hits, misses *telemetry.Counter
	h0, m0       int64
	// memo caches the key→table resolution per (user, server) slot: within
	// one planning state every key component except the shares — model,
	// device, server profile, planning-time uplink, rate, constraint set —
	// is constant for a given (user, server) pair, so constructing and
	// hashing a FrontierKey per query (the dominant lookup cost at 100k
	// users, see ROADMAP) is pure waste after the first resolution. Slots
	// hold an atomic pointer: racing resolvers of one slot store equivalent
	// values, so the memo never changes output at any Parallelism level. A
	// resolved nil table is remembered too — each query on it is still a
	// miss, keeping the tallies identical to the unmemoized path. Laid
	// out nUsers×(memoServers+1) with column 0 the device-only (server -1)
	// environment. Nil when disabled.
	memo        []atomic.Pointer[frontierRes]
	memoServers int
}

// frontierRes is one resolved memo slot; table is nil for keys outside the
// set (the resolved-miss sentinel, distinct from an unresolved slot).
type frontierRes struct {
	table *surgery.Frontier
}

// newFrontierStats wraps set (nil set → nil stats: the legacy path). nUsers
// and nServers size the (user, server) resolution memo; memo=false keeps
// the per-query key-hash path (Options.DisableFrontierMemo).
func newFrontierStats(set *surgery.FrontierSet, reg *telemetry.Registry, nUsers, nServers int, memo bool) *frontierStats {
	if set == nil {
		return nil
	}
	f := &frontierStats{set: set, grid: set.Grid()}
	if reg != nil {
		f.hits = reg.Counter("planner.frontier.hits")
		f.misses = reg.Counter("planner.frontier.misses")
	} else {
		f.hits, f.misses = new(telemetry.Counter), new(telemetry.Counter)
	}
	f.h0, f.m0 = f.hits.Value(), f.misses.Value()
	if memo && nUsers > 0 {
		f.memo = make([]atomic.Pointer[frontierRes], nUsers*(nServers+1))
		f.memoServers = nServers
	}
	return f
}

// lookup answers user ui's surgery problem from the tables. server is the
// environment's server index (-1 for device-only); with the memo enabled it
// addresses the cached key→table resolution, so repeat queries skip the key
// construction and hash entirely. A miss means the key is outside the table
// set (e.g. drifted uplink rates on the dispatcher's observe path, or a key
// past the table budget); the caller must then run the optimizer at the
// same snapped shares. lookup counts nothing: callers tally outcomes
// themselves (see lookupTally).
func (f *frontierStats) lookup(ui, server int, m *dnn.Model, env surgery.Env, sopt surgery.Options) (surgery.Plan, surgery.Eval, bool) {
	if f.memo != nil && ui >= 0 && server >= -1 && server < f.memoServers {
		slot := &f.memo[ui*(f.memoServers+1)+server+1]
		res := slot.Load()
		if res == nil {
			res = &frontierRes{table: f.set.Get(surgery.KeyOf(m, env, sopt))}
			slot.Store(res)
		}
		if res.table == nil {
			return surgery.Plan{}, surgery.Eval{}, false
		}
		plan, ev := res.table.Lookup(env.ComputeShare, env.BandwidthShare)
		return plan, ev, true
	}
	return f.set.Lookup(surgery.KeyOf(m, env, sopt), env.ComputeShare, env.BandwidthShare)
}

// counters returns the (hits, misses) accumulated since construction.
func (f *frontierStats) counters() (hits, misses int64) {
	return f.hits.Value() - f.h0, f.misses.Value() - f.m0
}

// BuildFrontierSet precomputes frontier tables for every surgery key the
// planner can probe in sc: for each user, its device-only key plus one key
// per server at the scenario's planning-time uplink. Keys are deduplicated,
// ranked by how many users share them (ties by first appearance) and built
// most-popular-first up to the set's table budget; untabulated keys fall
// back to the optimizer at plan time, counted as frontier misses. A key
// whose table fails to build (an infeasible constraint, a probe-budget
// overrun) is likewise left to the fallback, which surfaces the real error
// with the user's name attached. Construction fans across opt.Parallelism
// workers; the resulting set is identical at every parallelism level.
func BuildFrontierSet(sc *Scenario, opt Options, bo surgery.BuildOptions) (*surgery.FrontierSet, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	set := surgery.NewFrontierSet(bo)
	uplink := make([]float64, len(sc.Servers))
	for s := range sc.Servers {
		uplink[s] = sc.meanUplink(s)
	}
	type keyStat struct{ count, seq int }
	stats := make(map[surgery.FrontierKey]*keyStat)
	var keys []surgery.FrontierKey
	note := func(k surgery.FrontierKey) {
		if st, ok := stats[k]; ok {
			st.count++
			return
		}
		stats[k] = &keyStat{count: 1, seq: len(keys)}
		keys = append(keys, k)
	}
	for ui := range sc.Users {
		u := &sc.Users[ui]
		sopt := opt.surgeryOptions(u)
		base := surgery.Env{
			Device:     u.Device,
			Difficulty: u.Difficulty,
			Curves:     sc.Curves,
			Rate:       u.planningRate(),
			TxFactor:   u.TxCompression,
		}
		note(surgery.KeyOf(u.Model, base, sopt)) // device-only (shed/local-pin path)
		for s := range sc.Servers {
			env := base
			env.Server = sc.Servers[s].Profile
			env.ComputeShare, env.BandwidthShare = 1, 1
			env.UplinkBps = uplink[s]
			env.RTT = sc.Servers[s].RTT
			note(surgery.KeyOf(u.Model, env, sopt))
		}
	}
	sort.SliceStable(keys, func(a, b int) bool {
		sa, sb := stats[keys[a]], stats[keys[b]]
		if sa.count != sb.count {
			return sa.count > sb.count
		}
		return sa.seq < sb.seq
	})
	budget := bo.MaxTables
	if budget <= 0 {
		budget = surgery.DefaultMaxTables
	}
	if len(keys) > budget {
		keys = keys[:budget]
	}
	// Build errors are deliberately swallowed per key (see above); the set
	// stays deterministic because the key list was truncated up front.
	_ = forEachIndex(opt.parallelism(), len(keys), func(i int) error {
		_ = set.Build(keys[i])
		return nil
	})
	return set, nil
}
