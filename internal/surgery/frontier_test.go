package surgery

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// testFrontierKey draws one random but domain-valid frontier key. The rng
// fully determines the key, so seeded tests are reproducible.
func testFrontierKey(t testing.TB, rng *rand.Rand, constrained bool) FrontierKey {
	t.Helper()
	models := []func() *dnn.Model{dnn.AlexNet, dnn.MobileNetV2, dnn.ResNet18, dnn.SqueezeNet}
	devices := []string{"rpi4", "phone-soc", "jetson-nano"}
	servers := []string{"edge-gpu-t4", "edge-cpu-16c"}
	dev, err := hardware.ByName(devices[rng.Intn(len(devices))])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hardware.ByName(servers[rng.Intn(len(servers))])
	if err != nil {
		t.Fatal(err)
	}
	k := FrontierKey{
		Model:      models[rng.Intn(len(models))](),
		Device:     dev,
		Server:     srv,
		UplinkBps:  1e6 * math.Pow(10, 2*rng.Float64()), // 1-100 Mbps
		RTT:        0.002 + 0.02*rng.Float64(),
		Rate:       5 * rng.Float64(),
		TxFactor:   0.25 + rng.Float64(),
		Difficulty: workload.DifficultyKind(rng.Intn(4)),
		Curves:     DefaultCurves(),
	}
	if constrained {
		if rng.Intn(2) == 0 {
			k.MinAccuracy = 0.55 + 0.15*rng.Float64()
		} else {
			k.MaxDeviceEnergyJ = 0.5 + 2*rng.Float64()
		}
	}
	return k
}

func TestShareGridProperties(t *testing.T) {
	g := NewShareGrid(0)
	if g.Levels() != DefaultStepsPerOctave*shareGridOctaves+1 {
		t.Fatalf("default grid has %d levels", g.Levels())
	}
	if g.Value(0) != 1 {
		t.Fatalf("Value(0) = %g, want 1", g.Value(0))
	}
	for i := 1; i < g.Levels(); i++ {
		if g.Value(i) >= g.Value(i-1) {
			t.Fatalf("levels not strictly descending at %d: %g >= %g", i, g.Value(i), g.Value(i-1))
		}
	}
	// Index is the exact inverse of Value on grid points.
	for i := 0; i < g.Levels(); i++ {
		if got := g.Index(g.Value(i)); got != i {
			t.Fatalf("Index(Value(%d)) = %d", i, got)
		}
	}
	// Index matches a brute-force nearest-in-log-space scan (ties to the
	// larger share == smaller index) for random shares, and Snap is its
	// fixed point.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		s := math.Pow(2, -13*rng.Float64()) * (1 + rng.Float64())
		best, bestD := 0, math.Inf(1)
		for i := 0; i < g.Levels(); i++ {
			if d := math.Abs(math.Log(s) - math.Log(g.Value(i))); d < bestD-1e-15 {
				best, bestD = i, d
			}
		}
		if got := g.Index(s); got != best {
			t.Fatalf("Index(%g) = %d (level %g), brute force wants %d (level %g)",
				s, got, g.Value(got), best, g.Value(best))
		}
		if snapped := g.Snap(s); g.Snap(snapped) != snapped {
			t.Fatalf("Snap not idempotent at %g", s)
		}
	}
	if g.Snap(0) != 0 || g.Snap(-1) != 0 {
		t.Fatal("non-positive shares must snap to 0")
	}
	if g.Snap(7) != 1 {
		t.Fatalf("Snap(7) = %g, want clamp to 1", g.Snap(7))
	}
	if g.Snap(1e-9) != g.Value(g.Levels()-1) {
		t.Fatalf("Snap(1e-9) = %g, want floor level %g", g.Snap(1e-9), g.Value(g.Levels()-1))
	}
}

// TestFrontierMatchesOptimizer is the exactness pin: for seeded random
// (model, device, link) keys — constrained ones included — the table lookup
// must return bit for bit what surgery.Optimize returns at every grid share
// pair. A coarse 1-step-per-octave grid keeps the exhaustive sweep cheap
// while still covering the full 12-octave share range.
func TestFrontierMatchesOptimizer(t *testing.T) {
	grid := NewShareGrid(1)
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 12; trial++ {
		k := testFrontierKey(t, rng, trial >= 8)
		bo := BuildOptions{Grid: grid, Surgery: Options{FixedPartition: FreePartition}}
		table, err := BuildFrontier(k, bo)
		if err != nil {
			// Constrained keys may be infeasible somewhere on the grid;
			// BuildFrontier must fail rather than tabulate approximately.
			if k.MinAccuracy == 0 && k.MaxDeviceEnergyJ == 0 {
				t.Fatalf("unconstrained build failed: %v", err)
			}
			continue
		}
		checked++
		opt := k.options(bo.Surgery)
		for fi := 0; fi < grid.Levels(); fi++ {
			for bi := 0; bi < grid.Levels(); bi++ {
				f, b := grid.Value(fi), grid.Value(bi)
				wantPlan, wantEv, err := Optimize(k.Model, k.env(f, b), opt)
				if err != nil {
					t.Fatalf("optimizer failed at (%g, %g) after a successful build: %v", f, b, err)
				}
				gotPlan, gotEv := table.Lookup(f, b)
				if !reflect.DeepEqual(gotPlan, wantPlan) {
					t.Fatalf("trial %d: plan mismatch at shares (%g, %g):\n  table:     %+v\n  optimizer: %+v",
						trial, f, b, gotPlan, wantPlan)
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("trial %d: eval mismatch at shares (%g, %g):\n  table:     %+v\n  optimizer: %+v",
						trial, f, b, gotEv, wantEv)
				}
			}
		}
	}
	if checked < 8 {
		t.Fatalf("only %d keys built successfully; the corpus is too thin", checked)
	}
}

// TestFrontierNoDominatedEntries checks the Pareto property: no retained
// entry is weakly dominated (with a strict improvement) by another on the
// (FixedSec, ServerSec, TxSec) latency components — such an entry would
// have strictly higher latency at every share pair and could never win a
// grid cell.
func TestFrontierNoDominatedEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		table, err := BuildFrontier(testFrontierKey(t, rng, false), BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			t.Fatal(err)
		}
		entries := table.Entries()
		dominates := func(a, b *Eval) bool {
			if a.FixedSec > b.FixedSec || a.ServerSec > b.ServerSec || a.TxSec > b.TxSec {
				return false
			}
			return a.FixedSec < b.FixedSec || a.ServerSec < b.ServerSec || a.TxSec < b.TxSec
		}
		for i := range entries {
			for j := range entries {
				if i != j && dominates(&entries[i].Eval, &entries[j].Eval) {
					t.Fatalf("trial %d: entry %d (%+v) dominates entry %d (%+v)",
						trial, i, entries[i].Eval, j, entries[j].Eval)
				}
			}
		}
	}
}

// TestFrontierSortedAndMonotone checks the canonical order: entries sorted
// by descending share-sensitivity (ServerSec+TxSec), and the winning entry
// index monotone non-decreasing along the shrinking-share diagonal.
func TestFrontierSortedAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		table, err := BuildFrontier(testFrontierKey(t, rng, false), BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			t.Fatal(err)
		}
		entries := table.Entries()
		for i := 1; i < len(entries); i++ {
			prev := entries[i-1].Eval.ServerSec + entries[i-1].Eval.TxSec
			cur := entries[i].Eval.ServerSec + entries[i].Eval.TxSec
			if cur > prev {
				t.Fatalf("trial %d: entries out of order at %d: sensitivity %g after %g", trial, i, cur, prev)
			}
		}
		grid := table.Grid()
		prevIdx := -1
		for i := 0; i < grid.Levels(); i++ {
			s := grid.Value(i)
			plan, _ := table.Lookup(s, s)
			idx := -1
			for j := range entries {
				if reflect.DeepEqual(entries[j].Plan, plan) {
					idx = j
					break
				}
			}
			if idx < 0 {
				t.Fatalf("trial %d: diagonal winner at share %g is not a frontier entry", trial, s)
			}
			if idx < prevIdx {
				t.Fatalf("trial %d: diagonal winner index regressed from %d to %d at share %g", trial, prevIdx, idx, s)
			}
			prevIdx = idx
		}
	}
}

// TestFrontierLookupFiltered checks the filtered scan: the result is a
// frontier member, satisfies both filters, and is latency-minimal among the
// qualifying entries; impossible filters report ok = false.
func TestFrontierLookupFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	table, err := BuildFrontier(testFrontierKey(t, rng, false), BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
	if err != nil {
		t.Fatal(err)
	}
	grid := table.Grid()
	for trial := 0; trial < 500; trial++ {
		f := grid.Value(rng.Intn(grid.Levels()))
		b := grid.Value(rng.Intn(grid.Levels()))
		minAcc := 0.5 + 0.4*rng.Float64()
		maxE := 0.2 + 3*rng.Float64()
		plan, ev, ok := table.LookupFiltered(f, b, minAcc, maxE)
		member := -1
		bestLat := math.Inf(1)
		for i, e := range table.Entries() {
			if e.Eval.Accuracy+1e-12 < minAcc {
				continue
			}
			if e.Eval.DeviceEnergyAt(table.Key().Device, b) > maxE {
				continue
			}
			if lat := e.Eval.LatencyAt(f, b); lat < bestLat {
				member, bestLat = i, lat
			}
		}
		if !ok {
			if member >= 0 {
				t.Fatalf("LookupFiltered reported no member but entry %d qualifies", member)
			}
			continue
		}
		if member < 0 {
			t.Fatal("LookupFiltered returned a plan but no entry qualifies")
		}
		want := table.Entries()[member]
		if !reflect.DeepEqual(plan, want.Plan) || ev.Latency != bestLat {
			t.Fatalf("LookupFiltered returned %+v lat %g, want entry %d (%+v) lat %g",
				plan, ev.Latency, member, want.Plan, bestLat)
		}
		if ev.Accuracy+1e-12 < minAcc {
			t.Fatalf("filtered result accuracy %g below floor %g", ev.Accuracy, minAcc)
		}
	}
	if _, _, ok := table.LookupFiltered(1, 1, 1.01, 0); ok {
		t.Fatal("an accuracy floor above 1 must match nothing")
	}
}

func TestFrontierSetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	k1 := testFrontierKey(t, rng, false)
	k2 := testFrontierKey(t, rng, false)
	if k1 == k2 {
		t.Fatal("rng produced identical keys")
	}
	set := NewFrontierSet(BuildOptions{MaxTables: 1, Surgery: Options{FixedPartition: FreePartition}})
	if err := set.Build(k1); err != nil {
		t.Fatal(err)
	}
	if err := set.Build(k1); err != nil {
		t.Fatalf("idempotent rebuild errored: %v", err)
	}
	if set.Len() != 1 {
		t.Fatalf("set holds %d tables, want 1", set.Len())
	}
	if err := set.Build(k2); err == nil {
		t.Fatal("capacity overflow must error")
	}
	if _, _, ok := set.Lookup(k2, 1, 1); ok {
		t.Fatal("lookup of an untabulated key must miss")
	}
	plan, _, ok := set.Lookup(k1, 0.5, 0.5)
	if !ok || plan.Model == nil {
		t.Fatal("lookup of a tabulated key must hit with a real plan")
	}
	if set.Probes() <= 0 {
		t.Fatal("set must account its construction probes")
	}
	// Device-only keys tabulate as single-entry tables.
	k3 := k1
	k3.Server = nil
	k3.UplinkBps, k3.RTT = 0, 0
	only := NewFrontierSet(BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
	if err := only.Build(k3); err != nil {
		t.Fatal(err)
	}
	dp, dev1, ok := only.Lookup(k3, 0, 0)
	if !ok {
		t.Fatal("device-only lookup must hit")
	}
	if dp.Partition != dp.Model.NumUnits() {
		t.Fatalf("device-only plan crosses at partition %d", dp.Partition)
	}
	_, dev2, _ := only.Lookup(k3, 0.25, 0.5)
	if !reflect.DeepEqual(dev1, dev2) {
		t.Fatal("device-only tables must ignore shares")
	}
}

// TestFrontierSetCapacityUnderConcurrency races builds of distinct keys
// against a small table budget: the set must never exceed MaxTables, and
// exactly MaxTables builds may succeed. Run under -race by make test-race.
func TestFrontierSetCapacityUnderConcurrency(t *testing.T) {
	const maxTables, builders = 2, 8
	rng := rand.New(rand.NewSource(37))
	keys := make([]FrontierKey, builders)
	for i := range keys {
		keys[i] = testFrontierKey(t, rng, false)
		keys[i].RTT = float64(i+1) * 1e-3 // distinct even if the draws repeat
	}
	set := NewFrontierSet(BuildOptions{MaxTables: maxTables, Grid: NewShareGrid(1), Surgery: Options{FixedPartition: FreePartition}})
	var wg sync.WaitGroup
	errs := make([]error, builders)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = set.Build(keys[i])
		}(i)
	}
	wg.Wait()
	built := 0
	for _, err := range errs {
		if err == nil {
			built++
		}
	}
	if set.Len() != maxTables || built != maxTables {
		t.Fatalf("set holds %d tables after %d successful builds, want %d of each", set.Len(), built, maxTables)
	}
}

// FuzzFrontierLookup drives table lookups (plain and filtered) with
// arbitrary shares and filters: no panic, the plain lookup returns exactly
// the optimizer's answer at the snapped shares, and the filtered lookup
// returns a frontier member satisfying its filters.
func FuzzFrontierLookup(f *testing.F) {
	f.Add(uint8(0), 0.5, 0.5, 0.7, 1.0)
	f.Add(uint8(1), 1.0, 0.001, 0.0, 0.0)
	f.Add(uint8(2), -3.0, 7.5, 0.95, 0.01)
	rng := rand.New(rand.NewSource(5))
	tables := make([]*Frontier, 3)
	for i := range tables {
		var err error
		tables[i], err = BuildFrontier(testFrontierKey(f, rng, false),
			BuildOptions{Grid: NewShareGrid(2), Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, cs, bs, minAcc, maxE float64) {
		table := tables[int(sel)%len(tables)]
		fShare, bShare := fuzzUnit(cs), fuzzUnit(bs)
		grid := table.Grid()
		plan, ev := table.Lookup(fShare, bShare)
		entries := table.Entries()
		found := false
		for i := range entries {
			if reflect.DeepEqual(entries[i].Plan, plan) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("lookup at (%g, %g) returned a plan outside the frontier", fShare, bShare)
		}
		sf, sb := grid.Snap(fShare), grid.Snap(bShare)
		wantPlan, wantEv, err := Optimize(table.Key().Model, table.Key().env(sf, sb), table.Key().options(Options{FixedPartition: FreePartition}))
		if err != nil {
			t.Fatalf("optimizer failed at snapped shares (%g, %g): %v", sf, sb, err)
		}
		if !reflect.DeepEqual(plan, wantPlan) || !reflect.DeepEqual(ev, wantEv) {
			t.Fatalf("lookup at (%g, %g) diverged from optimizer at snapped (%g, %g)", fShare, bShare, sf, sb)
		}
		fAcc := fuzzRange(minAcc, 0, 1.2)
		fEnergy := fuzzRange(maxE, 0, 5)
		fp, fe, ok := table.LookupFiltered(fShare, bShare, fAcc, fEnergy)
		if !ok {
			return
		}
		found = false
		for i := range entries {
			if reflect.DeepEqual(entries[i].Plan, fp) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("filtered lookup returned a plan outside the frontier")
		}
		if fAcc > 0 && fe.Accuracy+1e-12 < fAcc {
			t.Fatalf("filtered result accuracy %g below floor %g", fe.Accuracy, fAcc)
		}
		if fEnergy > 0 {
			if got := fe.DeviceEnergyAt(table.Key().Device, envShare(bShare)); got > fEnergy {
				t.Fatalf("filtered result energy %g over budget %g", got, fEnergy)
			}
		}
	})
}
