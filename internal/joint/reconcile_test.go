package joint

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
)

// The tests in this file cover the budget regime of capacity
// reconciliation — scenarios with more (user, server) pairs than
// reconcileCandidateBudget, where each donor shard nominates its worst
// contributors against the least-loaded targets and a move is accepted on
// the two-shard objective. The differential and parallelism suites in
// hierarchical_test.go and delta_test.go stay below the budget (≤48 users ×
// ≤4 servers), so without these the scale path would be pinned by nothing
// but the end-to-end benchmark.

var updateShardedGolden = flag.Bool("update-golden", false, "rewrite testdata/sharded_golden.txt from the current build")

const shardedGoldenPath = "testdata/sharded_golden.txt"

// budgetScenario is the e23 population mix (millionUserScenario) just past
// the candidate budget, with seeded per-server uplinks and per-user rates so
// shards contend and reconciliation accepts moves.
func budgetScenario(seed int64, nUsers, nServers int) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := millionUserScenario(nUsers, nServers)
	for s := range sc.Servers {
		mbps := 6 + rng.Float64()*60
		sc.Servers[s].Link = netmodel.NewStatic(fmt.Sprintf("ap%02d", s), netmodel.Mbps(mbps), sc.Servers[s].RTT)
	}
	for i := range sc.Users {
		sc.Users[i].Rate = 0.05 + rng.Float64()*0.6
	}
	if len(sc.Users)*len(sc.Servers) <= reconcileCandidateBudget {
		panic("budgetScenario: scenario is inside the exhaustive regime")
	}
	return sc
}

// budgetCase is one seeded budget-regime scenario with its drifted twin.
type budgetCase struct {
	name    string
	sc      *Scenario
	drifted *Scenario
	dirty   []bool
}

func budgetCases() []budgetCase {
	var out []budgetCase
	for _, c := range []struct {
		seed           int64
		users, servers int
		driftS         []int
		driftF         []float64
	}{
		{seed: 11, users: 620, servers: 8, driftS: []int{0}, driftF: []float64{0.45}},
		{seed: 12, users: 1100, servers: 4, driftS: []int{1, 2}, driftF: []float64{0.5, 1.6}},
	} {
		sc := budgetScenario(c.seed, c.users, c.servers)
		dirty := make([]bool, c.servers)
		drifted := sc
		for k, s := range c.driftS {
			drifted = driftLink(drifted, s, c.driftF[k])
			dirty[s] = true
		}
		out = append(out, budgetCase{
			name:    fmt.Sprintf("seed%d-%dx%d", c.seed, c.users, c.servers),
			sc:      sc,
			drifted: drifted,
			dirty:   dirty,
		})
	}
	return out
}

// budgetRuns plans a case fully and then delta-replans its drift, at the
// given parallelism, with the frontier tables on or off. The previous plan
// the delta starts from is the same-parallelism full plan.
func budgetRuns(t *testing.T, c budgetCase, set *surgery.FrontierSet, par int) (full, delta *Plan) {
	t.Helper()
	p := &Planner{Opt: Options{Parallelism: par, ShardThreshold: 64, Frontiers: set}}
	full, err := p.Plan(c.sc)
	if err != nil {
		t.Fatalf("%s par=%d: plan: %v", c.name, par, err)
	}
	delta, err = p.PlanDelta(c.drifted, full, c.dirty)
	if err != nil {
		t.Fatalf("%s par=%d: delta: %v", c.name, par, err)
	}
	return full, delta
}

// frontierArms yields the frontier-off arm (nil set) and a frontier-on arm
// with tables built for the case's undrifted scenario — the drifted keys of
// the delta replan then miss and fall back to the optimizer, as they do in
// the control plane before the set is extended.
func frontierArms(t *testing.T, c budgetCase) []struct {
	name string
	set  *surgery.FrontierSet
} {
	t.Helper()
	set, err := BuildFrontierSet(c.sc, Options{}, surgery.BuildOptions{})
	if err != nil {
		t.Fatalf("%s: frontier set: %v", c.name, err)
	}
	return []struct {
		name string
		set  *surgery.FrontierSet
	}{{"optimizer", nil}, {"frontier", set}}
}

// TestReconcileBudgetRegimeParallelismInvariance pins the budget regime's
// determinism contract: full and delta plans past the candidate budget are
// byte-identical at every Parallelism level — decisions, objective,
// trajectory, the scheduled-work ledger, the frontier hit/miss tallies and
// the surgery-cache lookup total (whose hit/miss split alone may vary when
// concurrent evaluations race to a first lookup).
func TestReconcileBudgetRegimeParallelismInvariance(t *testing.T) {
	for _, c := range budgetCases() {
		for _, arm := range frontierArms(t, c) {
			var refFull, refDelta *Plan
			for _, par := range []int{1, 2, 8} {
				full, delta := budgetRuns(t, c, arm.set, par)
				if refFull == nil {
					refFull, refDelta = full, delta
					if len(full.Trajectory) < 2 {
						t.Fatalf("%s/%s: reconciliation accepted no move; the budget regime is untested", c.name, arm.name)
					}
					continue
				}
				label := fmt.Sprintf("%s/%s par=%d", c.name, arm.name, par)
				samePlanCounters(t, label+" full", refFull, full)
				samePlanCounters(t, label+" delta", refDelta, delta)
			}
		}
	}
}

// samePlanCounters demands every parallelism-invariant field of two plans
// match exactly.
func samePlanCounters(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	samePlanModuloCounters(t, label, a, b)
	if !reflect.DeepEqual(a.Trajectory, b.Trajectory) {
		t.Fatalf("%s: trajectory %v != %v", label, b.Trajectory, a.Trajectory)
	}
	if a.SurgeryOps != b.SurgeryOps {
		t.Fatalf("%s: surgery ops %d != %d", label, b.SurgeryOps, a.SurgeryOps)
	}
	if a.FrontierHits != b.FrontierHits || a.FrontierMisses != b.FrontierMisses {
		t.Fatalf("%s: frontier hits/misses %d/%d != %d/%d", label,
			b.FrontierHits, b.FrontierMisses, a.FrontierHits, a.FrontierMisses)
	}
	if sa, sb := a.SurgeryCacheHits+a.SurgeryCacheMisses, b.SurgeryCacheHits+b.SurgeryCacheMisses; sa != sb {
		t.Fatalf("%s: surgery-cache lookups %d != %d", label, sb, sa)
	}
}

// planDigest hashes a plan's deployment: per decision the surgery plan, the
// bit pattern of every Eval field, the server and both shares, then the
// plan's SurgeryOps ledger.
func planDigest(p *Plan) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		put(int64(d.Plan.Partition))
		put(math.Float64bits(d.Plan.Theta))
		put(int64(len(d.Plan.Exits)))
		for _, x := range d.Plan.Exits {
			put(int64(x))
		}
		ev := d.Eval
		for _, f := range []float64{ev.Latency, ev.Accuracy, ev.FixedSec, ev.ServerSec, ev.TxSec, ev.CrossProb, ev.DeviceSec} {
			put(math.Float64bits(f))
		}
		put(int64(len(ev.ExitProbs)))
		for _, f := range ev.ExitProbs {
			put(math.Float64bits(f))
		}
		put(int64(d.Server))
		put(math.Float64bits(d.ComputeShare))
		put(math.Float64bits(d.BandwidthShare))
	}
	put(p.SurgeryOps)
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedPlanGoldenDigest pins budget-regime plans across versions: the
// digests in testdata were recorded from a build whose reconciliation
// evaluated moves in place and restored them on rejection, so a rewrite of
// the move evaluation that changes one share bit, one surgery answer or the
// work ledger fails here even if it is self-consistent across parallelism
// levels. Float bit patterns are only fixed on architectures that do not
// fuse multiply-adds, hence the amd64 gate.
func TestShardedPlanGoldenDigest(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, c := range budgetCases() {
		for _, arm := range frontierArms(t, c) {
			full, delta := budgetRuns(t, c, arm.set, 0)
			for _, r := range []struct {
				kind string
				plan *Plan
			}{{"plan", full}, {"delta", delta}} {
				name := fmt.Sprintf("%s/%s/%s", c.name, arm.name, r.kind)
				got[name] = planDigest(r.plan)
				names = append(names, name)
			}
		}
	}
	if *updateShardedGolden {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(shardedGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardedGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	f, err := os.Open(shardedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[name] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: plan digest changed\n  got:  %s\n  want: %s", n, got[n], want[n])
		}
	}
	if len(want) != len(names) {
		t.Errorf("golden file has %d plans, corpus has %d", len(want), len(names))
	}
}
