package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"edgesurgeon/internal/client"
	"edgesurgeon/internal/wire"
)

// conns is the number of client connections (and GOMAXPROCS) the load
// generator uses: the core count of the 2-core reference host, so the
// generator never outnumbers the cores it shares with the system under
// test.
const conns = 2

// cluster is one `edgeserved -listen` process and its edgeagent children.
type cluster struct {
	cmd      *exec.Cmd
	addr     string // dispatcher (wire protocol)
	httpAddr string // /metrics and /plan
	exited   chan struct{}
}

// startCluster spawns edgeserved in live mode and returns once it reports
// every agent ready. The process gets its own process group so stop can
// reap the agents even if edgeserved itself misbehaves.
func startCluster(env *benchEnv, scenarioPath string, w servingWorkload, seed int64) (*cluster, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(env.binDir, "edgeserved"),
		"-scenario", scenarioPath,
		"-listen", "127.0.0.1:0",
		"-agent-bin", filepath.Join(env.binDir, "edgeagent"),
		"-timescale", strconv.FormatFloat(w.timeScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(seed, 10),
		"-http", httpAddr,
	)
	// The cluster harness writes its scratch scenario copy under TMPDIR;
	// keep it inside the checkout.
	cmd.Env = append(os.Environ(), "TMPDIR="+env.tmpDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting edgeserved: %w", err)
	}
	c := &cluster{cmd: cmd, httpAddr: httpAddr, exited: make(chan struct{})}
	up := make(chan string, 1)
	go func() {
		const marker = "cluster up: dispatcher at "
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				f := strings.Fields(line[i+len(marker):])
				if len(f) > 0 {
					select {
					case up <- strings.TrimSuffix(f[0], ","):
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(c.exited)
	}()
	select {
	case c.addr = <-up:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("edgeserved exited before its cluster came up")
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, fmt.Errorf("edgeserved cluster not up after 60s")
	}
}

// stop asks edgeserved to shut down (it kills its agents on the way out),
// then kills whatever is left of its process group and waits for the exit.
func (c *cluster) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	<-c.exited
}

// freeAddr returns a loopback address with a port free at the time of the
// call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// httpGet fetches path from the cluster's HTTP endpoint, retrying while the
// listener comes up.
func (c *cluster) httpGet(path string) ([]byte, error) {
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var lastErr error
	for try := 0; try < 50; try++ {
		resp, err := hc.Get("http://" + c.httpAddr + path)
		if err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				return body, nil
			}
			lastErr = fmt.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, lastErr
}

// scrape reads every counter and gauge from /metrics.
func (c *cluster) scrape() (map[string]float64, error) {
	body, err := c.httpGet("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || (f[0] != "counter" && f[0] != "gauge") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		m[f[1]] = v
	}
	return m, nil
}

// livePlan is the subset of edgeserved's /plan document the benchmark reads.
type livePlan struct {
	Objective float64 `json:"objective"`
	Users     []struct {
		Server         int     `json:"server"`
		Partition      int     `json:"partition"`
		ComputeShare   float64 `json:"computeShare"`
		BandwidthShare float64 `json:"bandwidthShare"`
	} `json:"users"`
}

func (c *cluster) plan() (*livePlan, error) {
	body, err := c.httpGet("/plan")
	if err != nil {
		return nil, err
	}
	var p livePlan
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("/plan: %w", err)
	}
	return &p, nil
}

// dialAll opens n fresh client connections.
func dialAll(addr string, w servingWorkload, n int) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.Dial(addr, client.Config{
			ID: fmt.Sprintf("perfbench%d", i),
			// Open loop: the window must never be what holds a request
			// back. The per-call timeout bounds what can be in flight.
			Window:        1 << 16,
			CallTimeout:   -1,
			ExpectServers: w.servers, ExpectUsers: w.users,
		})
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// outcome classifies one request.
type outcome uint8

const (
	outOK outcome = iota
	outStatus
	outTimeout
	outDisconnect
)

// record is one request as the generator saw it. Times are offsets from
// the phase start; due is when the open-loop schedule wanted it sent.
type record struct {
	arrival
	sent, done time.Duration
	out        outcome
	resp       wire.Response
}

// overhead is the request's software cost in wall seconds: latency from
// its due time minus the modelled time the processes slept for it.
func (r *record) overhead(timeScale float64) float64 {
	return (r.done - r.due).Seconds() - timeScale*r.resp.TotalSec
}

// drive runs one open-loop phase over fresh connections: every request is
// sent at its due time by its own goroutine, so a slow response never
// delays the next send. Each call times out after the deadline in wall
// seconds: a request still out by then has missed its deadline whatever
// its modelled time, and a shed response costs one miss instead of a
// stall.
func drive(addr string, w servingWorkload, sched []arrival, rec *recorder) ([]record, error) {
	cs, err := dialAll(addr, w, conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	recs := make([]record, len(sched))
	timeout := time.Duration(w.deadline * float64(time.Second))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		if d := sched[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &recs[i]
			r.arrival = sched[i]
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			sent := time.Now()
			resp, err := cs[i%len(cs)].Do(ctx, r.user)
			done := time.Now()
			cancel()
			r.sent, r.done = sent.Sub(start), done.Sub(start)
			var st *client.StatusError
			switch {
			case err == nil:
				r.out, r.resp = outOK, *resp
			case errors.As(err, &st):
				r.out = outStatus
			case errors.Is(err, context.DeadlineExceeded):
				r.out = outTimeout
			default:
				r.out = outDisconnect
			}
			if rec != nil {
				s := span{ID: uint64(i), Name: "client.Do", Tag: strconv.Itoa(i % len(cs)),
					Start: rec.since(sent), End: rec.since(done)}
				if r.out == outOK {
					s.Split = &modelSplit{Device: resp.DeviceSec, Uplink: resp.UplinkSec,
						Queue: resp.QueueSec, Server: resp.ServerSec, Seq: resp.Seq}
				}
				rec.add(s)
			}
		}(i)
	}
	wg.Wait()
	return recs, nil
}

// checkResponses is the serving output check: every OK response names the
// user asked for, carries finite non-negative stage times that sum to its
// total, and a server in range or -1 (completed on device).
func checkResponses(recs []record, servers int) []string {
	var bad []string
	for i := range recs {
		r := &recs[i]
		if r.out != outOK {
			continue
		}
		p := &r.resp
		stages := []float64{p.DeviceSec, p.UplinkSec, p.QueueSec, p.ServerSec, p.TotalSec}
		var problem string
		for _, v := range stages {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				problem = "non-finite or negative stage time"
			}
		}
		sum := p.DeviceSec + p.UplinkSec + p.QueueSec + p.ServerSec
		switch {
		case problem != "":
		case math.Abs(sum-p.TotalSec) > 1e-9*math.Max(1, p.TotalSec):
			problem = fmt.Sprintf("stages sum to %g, total says %g", sum, p.TotalSec)
		case p.Server < -1 || p.Server >= servers:
			problem = fmt.Sprintf("server %d out of range", p.Server)
		case p.User != r.user:
			problem = fmt.Sprintf("answered user %d", p.User)
		case p.Status != wire.StatusOK:
			problem = fmt.Sprintf("status %d on a successful call", p.Status)
		}
		if problem != "" {
			bad = append(bad, fmt.Sprintf("request %d (user %d): %s", i, r.user, problem))
		}
	}
	return bad
}
