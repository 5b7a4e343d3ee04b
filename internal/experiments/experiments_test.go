package experiments

import (
	"strings"
	"testing"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 27 {
		t.Fatalf("got %d experiments, want 27: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[26] != "E27" {
		t.Fatalf("bad ordering: %v", ids)
	}
	reg := Registry()
	for _, id := range ids {
		if reg[id] == nil {
			t.Errorf("nil runner for %s", id)
		}
	}
}

func runReport(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Registry()[id]()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Errorf("report ID %q, want %q", r.ID, id)
	}
	if len(r.Tables) == 0 {
		t.Errorf("%s: no tables", id)
	}
	for ti, tb := range r.Tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s table %d: no rows", id, ti)
		}
	}
	if s := r.String(); !strings.Contains(s, r.Artifact) {
		t.Errorf("%s: rendered report missing artifact tag", id)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("%s: shape violation: %s", id, n)
		}
	}
	return r
}

func TestE1Shape(t *testing.T) {
	r := runReport(t, "E1")
	if len(r.Tables[0].Rows) != 8 {
		t.Errorf("zoo table rows = %d, want 8", len(r.Tables[0].Rows))
	}
}

func TestE2Shape(t *testing.T) {
	r := runReport(t, "E2")
	if len(r.Tables[0].Rows) != 6 {
		t.Errorf("hardware rows = %d, want 6", len(r.Tables[0].Rows))
	}
}

func TestE3JointDominates(t *testing.T) {
	// runReport fails on any WARNING note, which E3 emits whenever the
	// joint plan loses a bandwidth point.
	r := runReport(t, "E3")
	if len(r.Tables[0].Rows) != 9 {
		t.Errorf("bandwidth rows = %d, want 9", len(r.Tables[0].Rows))
	}
}

func TestE6FrontierMonotone(t *testing.T) {
	r := runReport(t, "E6")
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "monotone") {
			found = true
		}
	}
	if !found {
		t.Error("frontier monotonicity note missing")
	}
}

func TestE10Converges(t *testing.T) {
	r := runReport(t, "E10")
	if len(r.Tables[0].Rows) < 2 {
		t.Errorf("trajectory rows = %d", len(r.Tables[0].Rows))
	}
}

func TestE11GapSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search in -short mode")
	}
	r := runReport(t, "E11")
	// The note records mean/worst gap; the table rows carry per-instance
	// gaps which must all be tiny.
	for _, row := range r.Tables[0].Rows {
		gap := row[len(row)-1]
		if strings.HasPrefix(gap, "-") {
			t.Errorf("negative gap: %v", row)
		}
	}
}

func TestHeavyExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	for _, id := range []string{"E4", "E5", "E7", "E8", "E13", "E14", "E17", "E18", "E19"} {
		runReport(t, id)
	}
}

func TestE20FailureAwareWins(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-trace simulations in -short mode")
	}
	// runReport fails on the WARNING notes E20 emits when failure-aware
	// dispatch is not strictly better inside fault windows or recovery
	// does not restore the pre-fault plan.
	r := runReport(t, "E20")
	if len(r.Tables) != 2 {
		t.Fatalf("want per-epoch + overall tables, got %d", len(r.Tables))
	}
	if rows := len(r.Tables[0].Rows); rows != 12 {
		t.Errorf("epoch rows = %d, want 12", rows)
	}
	if rows := len(r.Tables[1].Rows); rows != 3 {
		t.Errorf("overall rows = %d, want 3", rows)
	}
	restored := false
	for _, n := range r.Notes {
		restored = restored || strings.Contains(n, "restored the pristine plan")
	}
	if !restored {
		t.Error("recovery note missing")
	}
}

func TestE22HysteresisHoldsTheLine(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-replay simulations in -short mode")
	}
	// runReport fails on the WARNING notes E22 emits when hysteresis loses
	// more than one point of deadline satisfaction vs replan-always, fails
	// to cut full replans by at least 5x, or loses to never-replan inside
	// fault windows.
	r := runReport(t, "E22")
	if rows := len(r.Tables[0].Rows); rows != 3 {
		t.Fatalf("policy rows = %d, want 3", rows)
	}
}

func TestE12RealNN(t *testing.T) {
	if testing.Short() {
		t.Skip("NN training in -short mode")
	}
	r := runReport(t, "E12")
	if len(r.Tables) < 2 {
		t.Fatalf("want sweep + fit tables, got %d", len(r.Tables))
	}
}

func TestE9Scalability(t *testing.T) {
	if testing.Short() {
		t.Skip("planner scaling sweep in -short mode")
	}
	runReport(t, "E9")
}

func TestE15CompressionHelpsAtLowBandwidth(t *testing.T) {
	r := runReport(t, "E15")
	// In every row the int4 column must be <= the fp32 column.
	for _, row := range r.Tables[0].Rows {
		if len(row) != 4 {
			t.Fatalf("row arity: %v", row)
		}
	}
}

func TestE16ProbeEscapesEquilibrium(t *testing.T) {
	runReport(t, "E16") // the runner itself fails the shape via WARNING notes
}

// TestE23SmallScaleShape runs a shrunken E23 (the full one plans 100k
// users): one dual-arm size plus one sharded-only size, asserting the
// report shape and that every metric key the BENCH_planner.json consumers
// require is emitted.
func TestE23SmallScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("planner scale arms in -short mode")
	}
	r, err := e23Scale([]int{48}, []int{96}, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E23" {
		t.Errorf("report ID %q", r.ID)
	}
	if len(r.Tables[0].Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"cores", "users_max", "speedup_vs_monolithic", "gap_worst_pct", "sharded_wallclock_sec", "frontier_wallclock_sec"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
}

// TestE24SmallShape runs a shrunken E24 frontier study, asserting the
// report shape, that the parity cross-check passed (parity_ok = 1: the
// frontier-backed plan was bit-identical to the optimizer-fallback plan),
// and that every metric key the bench-frontier-smoke guard requires is
// emitted.
func TestE24SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier study arms in -short mode")
	}
	r, err := e24Frontier([]int{48}, 2, 24, 48)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E24" {
		t.Errorf("report ID %q", r.ID)
	}
	if len(r.Tables[0].Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"cores", "users_max", "build_sec", "build_us_per_probe", "legacy_wallclock_sec", "frontier_wallclock_sec", "speedup_vs_legacy", "hit_rate_pct", "parity_ok"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if r.Metrics["parity_ok"] != 1 {
		t.Errorf("frontier/optimizer parity failed: %v", r.Notes)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("shape violation: %s", n)
		}
	}
}

// TestE26SmallShape runs a shrunken E26 replan-latency study (the full one
// replans 100k users), asserting the report shape and that every metric key
// the bench-replan-smoke guard requires is emitted. Wall-clock speedup is
// meaningless at this size, so only the fidelity metric is bounded: the
// delta objective may be at most 1% worse than the full re-solve (it is
// routinely better — the warm start lands in a better basin than a cold
// sharded replan, so the gap is one-sided).
func TestE26SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("replan study arms in -short mode")
	}
	r, err := e26Replan([]int{96}, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E26" {
		t.Errorf("report ID %q", r.ID)
	}
	if len(r.Tables[0].Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"users_max", "full_replan_sec", "delta_replan_sec", "replan_speedup", "delta_gap_pct", "delta_ops_frac", "dirty_shards"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if gap := r.Metrics["delta_gap_pct"]; gap > 1 {
		t.Errorf("delta objective %+.3f%% worse than full, exceeds the 1%% contract", gap)
	}
}

// TestE21SmallScaleAgrees runs a shrunken E21 (the full one sweeps 100k
// users): the runner's internal sequential-vs-sharded comparison emits a
// WARNING note on any divergence, which this test turns into a failure.
// make test-race runs this under the race detector.
func TestE21SmallScaleAgrees(t *testing.T) {
	r, err := e21Scale([]int{64, 256}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E21" {
		t.Errorf("report ID %q", r.ID)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("shape violation: %s", n)
		}
	}
	if len(r.Tables[0].Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"events_per_sec", "speedup_vs_sequential", "allocs_per_event", "cores"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
}

// TestE27SmallShape runs a shrunken E27 data-plane study (real edgeagent
// processes over loopback TCP under each policy arm), asserting the report
// shape and that every metric key the bench-serve-smoke guard requires is
// emitted. Throughput and tail numbers are host-dependent and not bounded
// here; what is asserted is that every arm completed its requests.
func TestE27SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster arms in -short mode")
	}
	r, err := e27DataPlane(2, 120, 2, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E27" {
		t.Errorf("report ID %q", r.ID)
	}
	if rows := len(r.Tables[0].Rows); rows != 3 {
		t.Fatalf("arm rows = %d, want 3", rows)
	}
	for _, arm := range []string{"never", "hysteresis", "delta"} {
		for _, k := range []string{"rps_", "p50_ms_", "p99_ms_", "ok_frac_", "full_replans_"} {
			if _, ok := r.Metrics[k+arm]; !ok {
				t.Errorf("metric %q missing", k+arm)
			}
		}
		if f := r.Metrics["ok_frac_"+arm]; f < 1 {
			t.Errorf("arm %s completed only %.3f of its requests", arm, f)
		}
	}
}

// TestE25ChaosShape runs the chaos-recovery study end to end. runReport
// fails on the WARNING notes E25 emits when crash recovery diverges from
// the undisturbed run, when the crash/slow/corrupt arms fail to crash,
// hit a deadline, or trip quarantine — so a green run certifies exact
// recovery under fire.
func TestE25ChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay arms in -short mode")
	}
	r := runReport(t, "E25")
	if rows := len(r.Tables[0].Rows); rows != 4 {
		t.Fatalf("arm rows = %d, want 4", rows)
	}
	for _, k := range []string{
		"E25.recovery_fidelity", "E25.crashes", "E25.deadline_hit_rate",
		"E25.stale_serves", "E25.quarantine_drops",
	} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if r.Metrics["E25.recovery_fidelity"] != 1 {
		t.Errorf("recovery fidelity = %g, want 1", r.Metrics["E25.recovery_fidelity"])
	}
}
