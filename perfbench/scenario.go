package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/workload"
)

// servingWorkload is one traffic mix offered to a live edgeserved cluster.
type servingWorkload struct {
	name      string
	servers   int
	users     int
	rate      float64 // offered requests per wall second, open loop
	timeScale float64 // wall seconds per model second, for every process
	deadline  float64 // per-request deadline in model seconds
	fading    bool    // Markov-fading uplinks (else static)
	// meanWindow is the stretch overhead_mean_ms averages over before the
	// median of the stretches is taken: longer than any cost the program
	// pays in bursts (drift replans about twice a second), so that cost is
	// in every window, and as short as that allows, so a host stall lands
	// in few windows.
	meanWindow time.Duration
}

var (
	steadyWorkload = servingWorkload{name: "steady", servers: 2, users: 16, rate: 2000, timeScale: 0.02, deadline: 0.3, meanWindow: 100 * time.Millisecond}
	driftWorkload  = servingWorkload{name: "drift", servers: 4, users: 48, rate: 1000, timeScale: 0.02, deadline: 0.3, fading: true, meanWindow: time.Second}
)

// userWeight is user i's share of the offered load before normalisation.
func userWeight(i int) float64 { return float64(2 + i%3) }

// scenarioJSON authors the workload's deployment in the scenario schema
// edgeserved and its agents parse. Each user's planning rate is its share
// of the offered load in model time, so the plan provisions exactly the
// traffic the generator sends. horizon (model seconds) must cover the
// whole run: fading traces are pregenerated for twice that.
func (w servingWorkload) scenarioJSON(seed int64, horizon float64) ([]byte, error) {
	doc := config.Scenario{HorizonSec: horizon}
	// Static uplinks sit within ±1% of their nominal 30 and 22 Mbps, drawn
	// from the seed: each seed gets its own shares and latencies, but wider
	// jitter flips partition points and with them the share of requests
	// that cross to an agent, which moves CPU per request by a quarter.
	rng := rand.New(rand.NewSource(seed))
	gpuStatic, cpuStatic := 30*(0.99+0.02*rng.Float64()), 22*(0.99+0.02*rng.Float64())
	fadeStates := []float64{14, 22, 32, 46}
	for s := 0; s < w.servers; s++ {
		srv := config.Server{Name: fmt.Sprintf("srv%d", s), Profile: "edge-gpu-t4", RTTMs: 4, UplinkMbps: gpuStatic}
		if s%2 == 1 {
			srv.Profile, srv.RTTMs, srv.UplinkMbps = "edge-cpu-16c", 6, cpuStatic
		}
		if w.fading {
			srv.Fading = &config.Fading{StatesMbps: fadeStates, MeanDwell: 4, Seed: seed*1000 + int64(s) + 1}
		}
		doc.Servers = append(doc.Servers, srv)
	}
	models := []string{"resnet18", "alexnet", "mobilenetv2"}
	devices := []string{"rpi4", "phone-soc"}
	var total float64
	for i := 0; i < w.users; i++ {
		total += userWeight(i)
	}
	modelRate := w.rate * w.timeScale
	for i := 0; i < w.users; i++ {
		doc.Users = append(doc.Users, config.User{
			Name: fmt.Sprintf("u%02d", i), Model: models[i%len(models)], Device: devices[i%len(devices)],
			Rate: modelRate * userWeight(i) / total, DeadlineMs: 1000 * w.deadline,
			Difficulty: "uniform", Seed: seed*10000 + int64(i) + 1,
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if _, _, err := config.Parse(data); err != nil {
		return nil, fmt.Errorf("%s scenario does not parse: %w", w.name, err)
	}
	return data, nil
}

// arrival is one scheduled request: due offset from the phase start and
// the user it is for.
type arrival struct {
	due  time.Duration
	user int
}

// arrivals draws an open-loop Poisson schedule at the workload's rate over
// dur, each request's user chosen in proportion to its load share. phase
// separates the warm-up and measured schedules of one seed.
func (w servingWorkload) arrivals(seed int64, phase int64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + phase))
	cum := make([]float64, w.users)
	var total float64
	for i := range cum {
		total += userWeight(i)
		cum[i] = total
	}
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		x := rng.Float64() * total
		u := 0
		for cum[u] <= x {
			u++
		}
		out = append(out, arrival{due: due, user: u})
	}
}

// replanWorkload is the in-process control-plane replay: a large
// population, a drifting telemetry trace, and the runtime flags of
// `edgeserved -frontier -shard-threshold 256 -delta-replan`.
type replanWorkload struct {
	users, servers int
	horizon        float64 // trace length in model seconds
	period         float64 // telemetry sample period
	shardThreshold int
	crash          float64 // server 1 is down for 40 s from this time
	// drifts lists when uplinks move and how many servers move together.
	// More than half the servers moving forces a full replan; fewer lets
	// the runtime re-plan only their shards. The schedule respects the
	// hysteresis policy's 25 s debounce and 3-per-60 s budget, so the mix
	// of journal kinds is the same for every seed; the rates are drawn
	// from the seed.
	drifts []drift
}

type drift struct {
	at    float64
	moved int
}

var fullReplanWorkload = replanWorkload{
	users: 2000, servers: 8, horizon: 210, period: 5, shardThreshold: 256, crash: 45,
	drifts: []drift{{30, 6}, {60, 1}, {90, 8}, {115, 2}, {140, 5}, {165, 1}, {190, 7}},
}

// scenario builds the e23-style population (four models shared across
// users, three device classes, alternating GPU and CPU servers) on
// piecewise-constant uplinks that follow the drift schedule, plus a 40 s
// crash of server 1, and records its telemetry trace.
func (w replanWorkload) scenario(seed int64) (*joint.Scenario, []telemetry.Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	devices := make([]*hardware.Profile, 0, 3)
	for _, name := range []string{"rpi4", "phone-soc", "jetson-nano"} {
		p, err := hardware.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		devices = append(devices, p)
	}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}

	// Rate schedule per server: drift event k moves servers k, k+1, ...
	// (mod the server count) by a seeded factor in [1.35, 1.5], downward if
	// the server sits above its base rate and upward otherwise, so every
	// move is past the 0.2 hysteresis threshold and rates stay within
	// [base/1.5, 1.5·base]. Which servers move is fixed so that the planner
	// work, not just the mix of journal kinds, stays alike across seeds.
	times := make([][]float64, w.servers)
	rates := make([][]float64, w.servers)
	base := make([]float64, w.servers)
	for s := range base {
		base[s] = netmodel.Mbps(100)
		if s%2 == 1 {
			base[s] = netmodel.Mbps(70)
		}
		times[s] = []float64{0}
		rates[s] = []float64{base[s]}
	}
	for k, d := range w.drifts {
		for j := 0; j < d.moved; j++ {
			s := (k + j) % w.servers
			cur := rates[s][len(rates[s])-1]
			f := 1.35 + 0.15*rng.Float64()
			if cur > base[s] {
				f = 1 / f
			}
			times[s] = append(times[s], d.at)
			rates[s] = append(rates[s], cur*f)
		}
	}
	sc := &joint.Scenario{PlanningHorizon: 25}
	for s := 0; s < w.servers; s++ {
		prof, rtt := "edge-gpu-t4", 0.004
		if s%2 == 1 {
			prof, rtt = "edge-cpu-16c", 0.006
		}
		p, err := hardware.ByName(prof)
		if err != nil {
			return nil, nil, err
		}
		link, err := netmodel.NewTrace(fmt.Sprintf("ap%02d", s), times[s], rates[s], rtt)
		if err != nil {
			return nil, nil, err
		}
		sc.Servers = append(sc.Servers, joint.Server{Name: fmt.Sprintf("srv%02d", s), Profile: p, Link: link, RTT: rtt})
	}
	for i := 0; i < w.users; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name: fmt.Sprintf("user%05d", i), Model: models[i%len(models)], Device: devices[i%len(devices)],
			Rate: 0.05, Deadline: 1.0, Difficulty: workload.EasyBiased, Arrivals: workload.Poisson,
			Seed: seed*100000 + int64(i),
		})
	}

	sched, err := faults.New(faults.Window{Kind: faults.ServerCrash, Server: 1, Start: w.crash, End: w.crash + 40})
	if err != nil {
		return nil, nil, err
	}
	cfgs := make([]sim.ServerConfig, len(sc.Servers))
	for i, s := range sc.Servers {
		cfgs[i] = sim.ServerConfig{Profile: s.Profile, Link: s.Link}
	}
	trace, err := sim.RecordTrace(cfgs, sched, w.horizon, w.period)
	if err != nil {
		return nil, nil, err
	}
	return sc, trace, nil
}
