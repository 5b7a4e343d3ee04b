// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public surfaces, checks the outputs, and prints
// one JSON result line.
//
// Workloads:
//
//	steady  live edgeserved cluster, static uplinks, open loop at 2000 req/s
//	drift   live cluster, Markov-fading uplinks and replans, 1000 req/s
//	replan  serve.Runtime in process: 2000 users x 8 servers, drifting trace
//
// Run it from the repository root through perfbench/run.sh, which builds
// edgeserved, edgeagent and this program from the checkout:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs with spans
// recorded around the calls into each layer and prints the per-layer
// ledger. Spans are written to .bench_build/out/. See README.md for the
// metric definitions and which layer metric should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchEnv locates the checkout's build and scratch directories.
type benchEnv struct {
	binDir string // prebuilt edgeserved and edgeagent
	tmpDir string // scenario files, TMPDIR of the processes under test
	outDir string // spans and plan digests
}

func newEnv(root, binDir string) (*benchEnv, error) {
	env := &benchEnv{
		binDir: binDir,
		tmpDir: filepath.Join(root, ".bench_build", "tmp"),
		outDir: filepath.Join(root, ".bench_build", "out"),
	}
	for _, d := range []string{env.tmpDir, env.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// runOpts are one run's settings.
type runOpts struct {
	seed    int64
	seconds float64       // measured phase length (serving workloads)
	trace   bool          // record spans and report the per-layer ledger
	setups  int           // set-ups to take the median of
	warmup  time.Duration // discarded open-loop phase before measuring
}

// workloadResult is what a workload measured.
type workloadResult struct {
	values            map[string]float64
	attempted, failed int
	problems          []string // failed output checks
	rec               *recorder
	digest            string // fingerprint of the final plan
	deterministic     bool   // the same seed must reproduce digest
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "steady | drift | replan")
	seed := fs.Int64("seed", 1, "workload seed: drives every generated input")
	seconds := fs.Float64("seconds", 10, "measured phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	root := fs.String("root", ".", "checkout root")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding edgeserved and edgeagent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(conns)
	env, err := newEnv(*root, *binDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, warmup: time.Second}
	// Set-up is repeated for its median: five times for a cluster (about
	// 0.1-0.5 s each), three for the replan runtime (about 6 s each). The
	// traced run does not report set-up.
	setups := func(n int) int {
		if o.trace {
			return 1
		}
		return n
	}
	var res *workloadResult
	switch *name {
	case "steady":
		o.setups = setups(5)
		res, err = runServing(env, steadyWorkload, o)
	case "drift":
		o.setups = setups(5)
		res, err = runServing(env, driftWorkload, o)
	case "replan":
		o.setups = setups(3)
		res, err = runReplan(fullReplanWorkload, o)
	default:
		err = fmt.Errorf("unknown workload %q (steady | drift | replan)", *name)
	}
	if err == nil {
		err = finish(env, *name, o, res, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errChecks reports failed output checks after the result line is printed.
var errChecks = errors.New("output checks failed")

// finish runs the cross-run checks, writes the spans and prints the result
// line.
func finish(env *benchEnv, name string, o runOpts, res *workloadResult, stdout io.Writer) error {
	fmt.Fprintf(os.Stderr, "%s seed %d: plan digest %s\n", name, o.seed, res.digest)
	if res.deterministic {
		if p := checkDigest(filepath.Join(env.outDir, fmt.Sprintf("digest-%s-%d", name, o.seed)), res.digest); p != "" {
			res.problems = append(res.problems, p)
		}
	}
	if res.rec != nil {
		path := filepath.Join(env.outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, o.seed))
		if err := res.rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s\n", res.rec.len(), path)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, res.values)
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(result{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return errChecks
	}
	return nil
}

// checkDigest compares digest with the one an earlier run of the same
// workload and seed left at path, or records it there.
func checkDigest(path, digest string) string {
	prev, err := os.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Sprintf("plan digest %s differs from %s of an earlier run with the same seed", digest, got)
		}
		return ""
	}
	if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
		return fmt.Sprintf("recording plan digest: %v", err)
	}
	return ""
}
