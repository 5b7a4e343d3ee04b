package main

import (
	"bytes"
	"fmt"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/wire"
)

// payloadCap mirrors the dispatcher's cap on the stand-in activation blob
// it ships with each crossing request.
const payloadCap = 1 << 16

// wireCost replays the phase's message mix through the wire codec over an
// in-memory pipe: every OK request's Request and Response, and for each
// request that crossed to an agent its Infer (with an activation blob
// sized like the dispatcher's) and InferResult. It returns framed bytes
// and encode+decode microseconds per OK request.
func wireCost(recs []record, sc *joint.Scenario, plan *livePlan) (bytesPerReq, usPerReq float64, err error) {
	var msgs []wire.Msg
	ok := 0
	for i := range recs {
		r := &recs[i]
		if r.out != outOK {
			continue
		}
		ok++
		p := r.resp
		msgs = append(msgs, &wire.Request{Seq: p.Seq, User: p.User}, &p)
		if p.Server < 0 {
			continue
		}
		n := 0
		if u := p.User; u < len(plan.Users) {
			if m, k := sc.Users[u].Model, plan.Users[u].Partition; k < m.NumUnits() {
				n = int(min(m.CutBytes(k), payloadCap))
			}
		}
		rtt := sc.Servers[p.Server].RTT
		msgs = append(msgs,
			&wire.Infer{Seq: p.Seq, User: p.User, DeviceSec: p.DeviceSec, Payload: make([]byte, n)},
			&wire.InferResult{Seq: p.Seq, User: p.User, UplinkSec: p.UplinkSec - rtt, QueueSec: p.QueueSec, ServerSec: p.ServerSec})
	}
	if ok == 0 {
		return 0, 0, nil
	}
	var pipe bytes.Buffer
	conn, err := wire.NewConn(&pipe, &pipe, nil)
	if err != nil {
		return 0, 0, err
	}
	var total int
	start := time.Now()
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			return 0, 0, err
		}
		total += pipe.Len()
		got, err := conn.Recv()
		if err != nil {
			return 0, 0, err
		}
		if got.Type() != m.Type() {
			return 0, 0, fmt.Errorf("wire round trip turned %T into %T", m, got)
		}
	}
	elapsed := time.Since(start)
	return float64(total) / float64(ok), float64(elapsed.Microseconds()) / float64(ok), nil
}

// withUplink returns a copy of sc whose server s has a static uplink at
// rate bps (the drift a telemetry sample would report).
func withUplink(sc *joint.Scenario, s int, bps float64) *joint.Scenario {
	out := *sc
	out.Servers = append([]joint.Server(nil), sc.Servers...)
	srv := &out.Servers[s]
	srv.Link = netmodel.NewStatic(srv.Name+".drifted", bps, srv.RTT)
	return &out
}

// uplinks returns each server's planning-time uplink rate.
func uplinks(sc *joint.Scenario) []float64 {
	h := sc.PlanningHorizon
	if h <= 0 {
		h = 60
	}
	out := make([]float64, len(sc.Servers))
	for s := range sc.Servers {
		out[s] = netmodel.MeanRate(sc.Servers[s].Link, h)
	}
	return out
}

// jointLayers times the planner's public entry points in isolation on the
// workload's scenario and options: a full Plan, a PlanDelta with server 0
// drifted by 1.4×, and the dispatcher's cheap ObserveUplinks refresh. With
// frontier set, it also times building the Pareto tables and extending
// them for the drifted server, and plans from them as the runtime does.
func jointLayers(v map[string]float64, sc *joint.Scenario, opt joint.Options, rec *recorder, frontier bool) error {
	rates := uplinks(sc)
	drifted := withUplink(sc, 0, 1.4*rates[0])
	dirty := make([]bool, len(sc.Servers))
	dirty[0] = true
	var set *surgery.FrontierSet
	if frontier {
		d, err := rec.timed("surgery.BuildFrontierSet", func() (err error) {
			set, err = joint.BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
			return err
		})
		if err != nil {
			return err
		}
		v["surgery.table_build_s"] = d.Seconds()
		opt.Frontiers = set
	}
	p := &joint.Planner{Opt: opt}
	var plan *joint.Plan
	d, err := rec.timed("joint.Plan", func() (err error) {
		plan, err = p.Plan(sc)
		return err
	})
	if err != nil {
		return err
	}
	v["joint.plan_s"] = d.Seconds()
	v["joint.iterations"] = float64(plan.Iterations)
	v["joint.shards"] = float64(plan.Shards)
	v["joint.surgery_ops"] = float64(plan.SurgeryOps)
	v["joint.frontier_hit_ratio"] = ratio(float64(plan.FrontierHits), float64(plan.FrontierHits+plan.FrontierMisses))
	v["joint.surgery_cache_hit_ratio"] = ratio(float64(plan.SurgeryCacheHits), float64(plan.SurgeryCacheHits+plan.SurgeryCacheMisses))

	if frontier {
		d, _ := rec.timed("surgery.ExtendFrontierSet", func() error {
			joint.ExtendFrontierSet(set, drifted, opt, dirty)
			return nil
		})
		v["surgery.table_extend_s"] = d.Seconds()
	}
	if d, err = rec.timed("joint.PlanDelta", func() error {
		_, err := p.PlanDelta(drifted, plan, dirty)
		return err
	}); err != nil {
		return err
	}
	v["joint.plan_delta_s"] = d.Seconds()

	disp, err := joint.NewDispatcherWithPlan(sc, p, plan)
	if err != nil {
		return err
	}
	// Alternate between the drifted and the planned rate so every call
	// has work to do; report the median of the calls.
	var refresh []float64
	for k := 0; k < 5; k++ {
		obs := append([]float64(nil), rates...)
		if k%2 == 0 {
			obs[0] *= 1.4
		}
		d, err := rec.timed("joint.ObserveUplinks", func() error {
			_, err := disp.ObserveUplinks(obs)
			return err
		})
		if err != nil {
			return err
		}
		refresh = append(refresh, 1000*d.Seconds())
	}
	v["joint.refresh_ms"] = median(refresh)
	return nil
}
