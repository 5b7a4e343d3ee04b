package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of the utime/stime fields in /proc/<pid>/stat
// (USER_HZ, 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procStat reads a process's parent pid and CPU time (user + system) from
// /proc/<pid>/stat.
func procStat(pid int) (ppid int, cpu time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces and parentheses; fields resume
	// after the last ')'. Field 4 (ppid) is index 1 there, fields 14 and
	// 15 (utime, stime) are indices 11 and 12.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ppid, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, 0, err
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return ppid, time.Duration(ut+st) * clockTick, nil
}

// children lists the pids whose parent is pid.
func children(pid int) []int {
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	var out []int
	for _, d := range dirs {
		child, err := strconv.Atoi(filepath.Base(d))
		if err != nil {
			continue
		}
		if ppid, _, err := procStat(child); err == nil && ppid == pid {
			out = append(out, child)
		}
	}
	return out
}

// cpuOf sums the CPU time of each pid that is still alive.
func cpuOf(pids []int) time.Duration {
	var sum time.Duration
	for _, p := range pids {
		if _, cpu, err := procStat(p); err == nil {
			sum += cpu
		}
	}
	return sum
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
