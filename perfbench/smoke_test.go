package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

// testBins builds edgeserved and edgeagent once for the smoke tests.
func testBins(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "perfbench-bin-*")
		if binErr != nil {
			return
		}
		for _, cmd := range []string{"edgeserved", "edgeagent"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "edgesurgeon/cmd/"+cmd).CombinedOutput()
			if err != nil {
				binErr = err
				t.Logf("%s", out)
				return
			}
		}
	})
	if binErr != nil {
		t.Fatalf("building the programs under test: %v", binErr)
	}
	return binDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// smoke runs one tiny workload through finish and checks that the result
// line is correct and names every metric of the run's kind.
func smoke(t *testing.T, name string, trace bool, runWorkload func(*benchEnv, runOpts) (*workloadResult, error)) {
	t.Helper()
	env, err := newEnv(t.TempDir(), testBins(t))
	if err != nil {
		t.Fatal(err)
	}
	o := runOpts{seed: 7, seconds: 1, trace: trace, setups: 1, warmup: 100 * time.Millisecond}
	res, err := runWorkload(env, o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := finish(env, name, o, res, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("result correct=%t attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not printed", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if !trace {
		for name, m := range r.Metrics {
			if m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
	}
}

var tinyReplan = replanWorkload{
	users: 120, servers: 4, horizon: 120, period: 5, shardThreshold: 64, crash: 45,
	drifts: []drift{{30, 3}, {60, 1}, {90, 4}, {115, 1}},
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns clusters")
	}
	serving := func(w servingWorkload) func(*benchEnv, runOpts) (*workloadResult, error) {
		return func(env *benchEnv, o runOpts) (*workloadResult, error) { return runServing(env, w, o) }
	}
	replan := func(_ *benchEnv, o runOpts) (*workloadResult, error) { return runReplan(tinyReplan, o) }
	for _, trace := range []bool{false, true} {
		smoke(t, "steady", trace, serving(steadyWorkload))
		smoke(t, "drift", trace, serving(driftWorkload))
		smoke(t, "replan", trace, replan)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the program prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, the program prints %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}
