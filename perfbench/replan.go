package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/telemetry"
)

// replay is one pass of the trace through a runtime.
type replay struct {
	ingestMs []float64 // per sample
	planMs   []float64 // mean modelled latency of the plan active after each sample
	kinds    []string  // journal kind each sample produced
	wall     time.Duration
	cpu      time.Duration // this process, user + system
	rejected int
}

// processCPU returns this process's CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replayTrace ingests every sample in order, timing each Ingest and
// reading back the journal event it produced.
func replayTrace(rt *serve.Runtime, trace []telemetry.Sample, rec *recorder) (*replay, []string) {
	r := &replay{}
	var problems []string
	cpu0 := processCPU()
	start := time.Now()
	for i, s := range trace {
		n0 := rt.Journal().Len()
		t0 := time.Now()
		plan, err := rt.Ingest(s)
		t1 := time.Now()
		r.ingestMs = append(r.ingestMs, 1000*t1.Sub(t0).Seconds())
		if plan != nil {
			r.planMs = append(r.planMs, 1000*plan.Objective/float64(len(plan.Decisions)))
		}
		kind := ""
		if ev := rt.Journal().Events(); len(ev) == n0+1 {
			kind = string(ev[n0].Kind)
		} else {
			problems = append(problems, fmt.Sprintf("sample %d left %d journal events, want 1", i, len(ev)-n0))
		}
		if err != nil {
			r.rejected++
			problems = append(problems, fmt.Sprintf("sample %d rejected: %v", i, err))
		}
		r.kinds = append(r.kinds, kind)
		if rec != nil {
			rec.add(span{ID: uint64(i), Name: "serve.Runtime.Ingest", Tag: kind, Start: rec.since(t0), End: rec.since(t1)})
		}
	}
	r.wall = time.Since(start)
	r.cpu = processCPU() - cpu0
	return r, problems
}

// checkPlan is the replan output check: the final plan is feasible under
// its own shares — per server, compute and bandwidth shares sum to at most
// 1 — and every decision's modelled latency is finite and positive.
func checkPlan(sc *joint.Scenario, p *joint.Plan) []string {
	const slack = 1e-9
	compute := make([]float64, len(sc.Servers))
	bw := make([]float64, len(sc.Servers))
	var bad []string
	for i := range p.Decisions {
		d := &p.Decisions[i]
		if d.Server >= len(sc.Servers) {
			bad = append(bad, fmt.Sprintf("user %d on server %d of %d", i, d.Server, len(sc.Servers)))
			continue
		}
		if d.Server >= 0 {
			compute[d.Server] += d.ComputeShare
			bw[d.Server] += d.BandwidthShare
		}
		if l := d.Latency(); math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 {
			bad = append(bad, fmt.Sprintf("user %d planned latency %g", i, l))
		}
	}
	for s := range sc.Servers {
		if compute[s] > 1+slack || bw[s] > 1+slack {
			bad = append(bad, fmt.Sprintf("server %d shares sum to compute %g, bandwidth %g", s, compute[s], bw[s]))
		}
	}
	return bad
}

// runReplan replays the drifting trace through serve.Runtime in process.
func runReplan(w replanWorkload, o runOpts) (*workloadResult, error) {
	sc, trace, err := w.scenario(o.seed)
	if err != nil {
		return nil, err
	}
	policy := serve.Hysteresis()
	policy.DeltaReplan = true
	opt := joint.Options{ShardThreshold: w.shardThreshold}
	cfg := serve.Config{Scenario: sc, Planner: &joint.Planner{Opt: opt}, Policy: policy, Frontier: true}
	res := &workloadResult{values: map[string]float64{}, deterministic: true}

	// Set-up is serve.New: the Pareto tables plus the initial plan.
	var setups []float64
	var rt *serve.Runtime
	newRuntime := func() error {
		t0 := time.Now()
		var err error
		rt, err = serve.New(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	for k := 0; k < o.setups; k++ {
		if err := newRuntime(); err != nil {
			return nil, err
		}
		if k < o.setups-1 {
			rt.Close()
			// Collect the discarded runtime now, so the peak RSS is one
			// runtime's and not an accident of GC timing.
			runtime.GC()
		}
	}
	res.values["setup_s"] = median(setups)

	var untraced *replay
	if o.trace {
		// Replay once untraced, then again traced on a fresh runtime, to
		// price the span recording (see replanLayers).
		var problems []string
		untraced, problems = replayTrace(rt, trace, nil)
		res.problems = append(res.problems, problems...)
		rt.Close()
		runtime.GC()
		if err := newRuntime(); err != nil {
			return nil, err
		}
		res.rec = newRecorder(4 * len(trace))
	}
	defer rt.Close()
	rp, problems := replayTrace(rt, trace, res.rec)
	res.problems = append(res.problems, problems...)
	if n, want := rt.Journal().Len(), len(trace)+1; n != want {
		res.problems = append(res.problems, fmt.Sprintf("journal holds %d events, want %d (one per sample plus the initial plan)", n, want))
	}
	if ev := rt.Journal().Events(); len(ev) == 0 || ev[0].Kind != serve.EventInitialPlan {
		res.problems = append(res.problems, "journal does not open with the initial plan")
	}
	plan := rt.Current()
	res.problems = append(res.problems, checkPlan(sc, plan)...)
	h := sha256.Sum256([]byte(serve.EncodePlan(plan) + rt.Journal().String()))
	res.digest = fmt.Sprintf("%x", h[:8])

	res.attempted, res.failed = len(trace), rp.rejected
	v := res.values
	if v["rss_peak_mb"], err = peakRSSMB(0); err != nil {
		return nil, err
	}
	// The op this workload is about is a full replan: its median is the
	// headline. The mean over every sample is replay time per sample.
	var full []float64
	for i, k := range rp.kinds {
		if k == string(serve.EventFullReplan) {
			full = append(full, rp.ingestMs[i])
		}
	}
	if len(full) == 0 {
		return nil, fmt.Errorf("replan: the trace produced no full replan")
	}
	v["overhead_p50_ms"] = median(full)
	v["overhead_mean_ms"] = mean(rp.ingestMs)
	hits := 0
	for i := range plan.Decisions {
		if plan.Decisions[i].Latency() <= sc.Users[i].Deadline {
			hits++
		}
	}
	// What users were served over the replay: the active plan's mean
	// modelled latency after each sample (every user has weight 1).
	v["served_mean_ms"] = mean(rp.planMs)
	v["deadline_hit_frac"] = float64(hits) / float64(len(sc.Users))
	v["ok_frac"] = float64(len(trace)-rp.rejected) / float64(len(trace))
	v["plan_latency_ms"] = 1000 * plan.Objective / float64(len(sc.Users))
	v["cpu_us_per_op"] = float64(rp.cpu.Microseconds()) / float64(len(trace))
	fmt.Fprintf(os.Stderr, "replan: %d samples replayed in %.2fs; kinds %v\n", len(trace), rp.wall.Seconds(), countKinds(rp.kinds))

	if o.trace {
		replanLayers(v, rt, rp, untraced)
		if err := jointLayers(v, sc, opt, res.rec, true); err != nil {
			return nil, err
		}
		v["trace.spans"] = float64(res.rec.len())
	}
	return res, nil
}

func countKinds(kinds []string) map[string]int {
	m := map[string]int{}
	for _, k := range kinds {
		m[k]++
	}
	return m
}

// replanLayers fills the per-layer ledger of a traced replan run. The data
// plane is absent, so its layers report 0.
func replanLayers(v map[string]float64, rt *serve.Runtime, rp, untraced *replay) {
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	reg := rt.Metrics()
	for _, name := range []string{"serve.replans.full", "serve.replans.delta", "serve.replans.cheap",
		"serve.replans.deferred", "serve.no_change", "serve.frontier.build_probes"} {
		v[name] = float64(reg.Counter(name).Value())
	}
	v["serve.frontier.tables"] = reg.Gauge("serve.frontier.tables").Value()
	v["serve.replay_s"] = rp.wall.Seconds()
	byKind := map[string][]float64{}
	for i, k := range rp.kinds {
		byKind[k] = append(byKind[k], rp.ingestMs[i])
	}
	for _, k := range ingestKinds {
		v["serve.ingest_ms."+k+".p50"] = median(byKind[k])
		v["serve.ingest_ms."+k+".n"] = float64(len(byKind[k]))
	}
	// Spans are recorded between Ingest calls, so tracing can only slow
	// the replay loop outside them. Comparing whole replays would instead
	// measure how two multi-second planner runs differ from noise.
	v["trace.overhead_pct"] = 100 * ratio(rp.outside()-untraced.outside(), untraced.wall.Seconds())
}

// outside is the replay time spent outside Runtime.Ingest, in seconds.
func (r *replay) outside() float64 {
	var in float64
	for _, ms := range r.ingestMs {
		in += ms / 1000
	}
	return r.wall.Seconds() - in
}
