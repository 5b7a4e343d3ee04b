package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/joint"
)

// phase is one measured open-loop phase: the requests plus what the
// processes spent on them.
type phase struct {
	recs               []record
	cpuDisp, cpuAgents time.Duration
	before, after      map[string]float64 // /metrics around the phase
	wall               time.Duration
}

// counter returns how much a /metrics counter grew during the phase.
func (p *phase) counter(name string) float64 { return p.after[name] - p.before[name] }

// measure drives one phase and samples CPU and /metrics around it.
func (c *cluster) measure(w servingWorkload, sched []arrival, rec *recorder) (*phase, error) {
	pid := c.cmd.Process.Pid
	agents := children(pid)
	p := &phase{}
	var err error
	if p.before, err = c.scrape(); err != nil {
		return nil, err
	}
	d0, a0 := cpuOf([]int{pid}), cpuOf(agents)
	start := time.Now()
	if p.recs, err = drive(c.addr, w, sched, rec); err != nil {
		return nil, err
	}
	p.wall = time.Since(start)
	p.cpuDisp, p.cpuAgents = cpuOf([]int{pid})-d0, cpuOf(agents)-a0
	if p.after, err = c.scrape(); err != nil {
		return nil, err
	}
	return p, nil
}

// runServing runs the steady or drift workload against a live cluster.
func runServing(env *benchEnv, w servingWorkload, o runOpts) (*workloadResult, error) {
	// Model-time horizon covering set-up, warm-up and the measured phases,
	// so the agents' fading traces never run out.
	horizon := (o.seconds + 120) / w.timeScale
	data, err := w.scenarioJSON(o.seed, horizon)
	if err != nil {
		return nil, err
	}
	sc, _, err := config.Parse(data)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(env.tmpDir, fmt.Sprintf("%s-%d-%d.json", w.name, o.seed, os.Getpid()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)

	res := &workloadResult{values: map[string]float64{}}
	// Set-up: spawn to the first dialled client, including the initial
	// plan and every agent's first allocation ack. Repeated for a median.
	var setups []float64
	var c *cluster
	for k := 0; k < o.setups; k++ {
		t0 := time.Now()
		if c, err = startCluster(env, path, w, o.seed); err != nil {
			return nil, err
		}
		cs, err := dialAll(c.addr, w, 1)
		if err != nil {
			c.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		closeAll(cs)
		if k < o.setups-1 {
			c.stop()
		}
	}
	defer c.stop()
	res.values["setup_s"] = median(setups)

	if _, err := drive(c.addr, w, w.arrivals(o.seed, 0, o.warmup), nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	var main, untraced *phase
	if o.trace {
		// Half the time untraced, half traced, on the same cluster: the
		// difference is what recording spans costs.
		if untraced, err = c.measure(w, w.arrivals(o.seed, 1, dur/2), nil); err != nil {
			return nil, err
		}
		res.rec = newRecorder(len(untraced.recs) * 2)
		if main, err = c.measure(w, w.arrivals(o.seed, 2, dur/2), res.rec); err != nil {
			return nil, err
		}
		res.problems = append(res.problems, checkResponses(untraced.recs, w.servers)...)
	} else if main, err = c.measure(w, w.arrivals(o.seed, 1, dur), nil); err != nil {
		return nil, err
	}
	res.problems = append(res.problems, checkResponses(main.recs, w.servers)...)

	plan, err := c.plan()
	if err != nil {
		return nil, err
	}
	if res.values["rss_peak_mb"], err = peakRSSMB(c.cmd.Process.Pid); err != nil {
		return nil, err
	}
	res.values["plan_latency_ms"] = 1000 * plan.Objective / float64(len(sc.Users))
	res.digest = livePlanDigest(plan)
	res.deterministic = !w.fading

	if err := servingValues(res, w, main); err != nil {
		return nil, err
	}
	if o.trace {
		if err := servingLayers(res, w, sc, plan, main, untraced); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// maxLateMs bounds the load generator's p99 lateness against its
// schedule, a sixth of the 300 ms deadline.
const maxLateMs = 50.0

// servingValues computes the end-to-end metrics of one phase.
func servingValues(res *workloadResult, w servingWorkload, p *phase) error {
	var over, served, late []float64
	ok, hits := 0, 0
	for i := range p.recs {
		r := &p.recs[i]
		late = append(late, 1000*(r.sent-r.due).Seconds())
		if r.out != outOK {
			continue
		}
		ok++
		o := r.overhead(w.timeScale)
		over = append(over, 1000*o)
		served = append(served, 1000*r.resp.TotalSec)
		if r.resp.TotalSec+o <= w.deadline {
			hits++
		}
	}
	sent := len(p.recs)
	res.attempted, res.failed = sent, sent-ok
	fmt.Fprintf(os.Stderr, "%s: %d sent, %d ok, %.0f req/s offered over %.1fs\n",
		w.name, sent, ok, float64(sent)/p.wall.Seconds(), p.wall.Seconds())
	if ok == 0 {
		return fmt.Errorf("%s: no request succeeded", w.name)
	}
	// A generator that fell behind its schedule offered a different load
	// than the workload defines; such a run measures nothing.
	if lateP99, err := percentile(late, 0.99); err == nil && lateP99 > maxLateMs {
		return fmt.Errorf("%s: generator ran late, p99 %.1f ms > %g ms; run invalid", w.name, lateP99, maxLateMs)
	}
	var err error
	v := res.values
	// over is in arrival order, so a window of rate × meanWindow OK
	// requests is about meanWindow of the run.
	v["overhead_mean_ms"] = windowedMean(over, int(w.rate*w.meanWindow.Seconds()))
	if v["overhead_p50_ms"], err = percentile(over, 0.5); err != nil {
		return err
	}
	v["served_mean_ms"] = mean(served)
	v["deadline_hit_frac"] = float64(hits) / float64(sent)
	v["ok_frac"] = float64(ok) / float64(sent)
	v["cpu_us_per_op"] = float64((p.cpuDisp + p.cpuAgents).Microseconds()) / float64(ok)
	return nil
}

// livePlanDigest fingerprints the served plan: its objective and every
// user's server, partition point and shares.
func livePlanDigest(p *livePlan) string {
	h := sha256.New()
	fmt.Fprintf(h, "%.12g;", p.Objective)
	for i, u := range p.Users {
		fmt.Fprintf(h, "%d:%d:%d:%.12g:%.12g;", i, u.Server, u.Partition, u.ComputeShare, u.BandwidthShare)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// servingLayers fills the per-layer ledger of a traced serving run.
func servingLayers(res *workloadResult, w servingWorkload, sc *joint.Scenario, plan *livePlan, p, untraced *phase) error {
	v := res.values
	var late, over, served, local, cross, queue []float64
	var ok, nStatus, nTimeout, nDisc int
	for i := range p.recs {
		r := &p.recs[i]
		late = append(late, 1000*(r.sent-r.due).Seconds())
		switch r.out {
		case outStatus:
			nStatus++
			continue
		case outTimeout:
			nTimeout++
			continue
		case outDisconnect:
			nDisc++
			continue
		}
		ok++
		o := 1000 * r.overhead(w.timeScale)
		over = append(over, o)
		served = append(served, 1000*r.resp.TotalSec)
		if r.resp.Server < 0 {
			local = append(local, o)
		} else {
			cross = append(cross, o)
			queue = append(queue, 1000*r.resp.QueueSec)
		}
	}
	v["client.sent"] = float64(len(p.recs))
	v["client.ok"] = float64(ok)
	v["client.err_status"] = float64(nStatus)
	v["client.err_timeout"] = float64(nTimeout)
	v["client.err_disconnect"] = float64(nDisc)
	v["client.gen_late_p99_ms"] = tailOrZero("client.gen_late_p99_ms", late, 0.99)
	v["client.overhead_p99_ms"] = tailOrZero("client.overhead_p99_ms", over, 0.99)
	v["client.served_p50_ms"] = tailOrZero("client.served_p50_ms", served, 0.5)
	v["client.served_p99_ms"] = tailOrZero("client.served_p99_ms", served, 0.99)

	var self []float64
	for _, s := range res.rec.snapshot() {
		if s.Split != nil {
			self = append(self, 1000*selfTime(s, s.children(w.timeScale)).Seconds())
		}
	}
	v["client.do_self_p50_ms"] = tailOrZero("client.do_self_p50_ms", self, 0.5)

	var err error
	if v["wire.bytes_per_req"], v["wire.codec_us_per_req"], err = wireCost(p.recs, sc, plan); err != nil {
		return err
	}

	localP50 := tailOrZero("agent.overhead_local_p50_ms", local, 0.5)
	crossP50 := tailOrZero("agent.hop_p50_ms", cross, 0.5)
	v["agent.overhead_local_p50_ms"] = localP50
	v["agent.hop_p50_ms"] = 0
	if localP50 != 0 && crossP50 != 0 {
		v["agent.hop_p50_ms"] = crossP50 - localP50
	}
	v["agent.cross_frac"] = ratio(float64(len(cross)), float64(ok))
	// A few percent of requests cross, too few for a p99 in one run.
	v["agent.queue_p50_ms"] = tailOrZero("agent.queue_p50_ms", queue, 0.5)
	v["agent.queue_p90_ms"] = tailOrZero("agent.queue_p90_ms", queue, 0.9)
	v["agent.dispatcher_cpu_us_per_req"] = ratio(float64(p.cpuDisp.Microseconds()), float64(ok))
	v["agent.edgeagent_cpu_us_per_cross"] = ratio(float64(p.cpuAgents.Microseconds()), float64(len(cross)))
	for _, name := range []string{"dataplane.alloc_pushes", "dataplane.telemetry_coalesced",
		"dataplane.telemetry_dropped", "dataplane.request_retries", "dataplane.client_shed",
		"dataplane.clients_dropped", "serve.replans.full", "serve.replans.delta",
		"serve.replans.cheap", "serve.replans.deferred", "serve.no_change"} {
		v[name] = p.counter(name)
	}
	v["serve.frontier.build_probes"] = p.after["serve.frontier.build_probes"]
	v["serve.frontier.tables"] = p.after["serve.frontier.tables"]
	v["serve.replay_s"] = 0
	for _, k := range ingestKinds {
		v["serve.ingest_ms."+k+".p50"], v["serve.ingest_ms."+k+".n"] = 0, 0
	}
	// edgeserved's live mode plans with the default options: no frontier
	// tables, no shards.
	v["surgery.table_build_s"], v["surgery.table_extend_s"] = 0, 0
	if err := jointLayers(v, sc, joint.Options{}, res.rec, false); err != nil {
		return err
	}

	base := tailOrZero("trace.overhead_pct", overheads(untraced, w), 0.5)
	v["trace.overhead_pct"] = 100 * ratio(tailOrZero("trace.overhead_pct", over, 0.5)-base, base)
	v["trace.spans"] = float64(res.rec.len())
	return nil
}

// overheads lists a phase's per-request overheads in ms.
func overheads(p *phase, w servingWorkload) []float64 {
	var out []float64
	for i := range p.recs {
		if p.recs[i].out == outOK {
			out = append(out, 1000*p.recs[i].overhead(w.timeScale))
		}
	}
	return out
}

// tailOrZero is percentile for per-layer metrics: a quantile without
// enough samples beyond it is reported as 0, with a note on stderr, rather
// than failing the run.
func tailOrZero(name string, xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v; reporting 0\n", name, err)
		return 0
	}
	return v
}
