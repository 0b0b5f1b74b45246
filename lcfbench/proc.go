package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// and /proc/stat; 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUSeconds is a process's user+system CPU time, all threads
// included, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command name", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// keyedValues reads "key: value" or "key value" lines and returns the
// named integer fields.
func keyedValues(path string, keys ...string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64, len(keys))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 2 {
			continue
		}
		name := strings.TrimSuffix(fs[0], ":")
		for _, k := range keys {
			if name == k {
				v, err := strconv.ParseInt(fs[1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: %s: %v", path, k, err)
				}
				out[k] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("%s: no %s", path, k)
		}
	}
	return out, nil
}

// procSyscalls returns a process's read and write syscall counts from
// /proc/<pid>/io.
func procSyscalls(pid int) (reads, writes int64, err error) {
	v, err := keyedValues(fmt.Sprintf("/proc/%d/io", pid), "syscr", "syscw")
	if err != nil {
		return 0, 0, err
	}
	return v["syscr"], v["syscw"], nil
}

// procCtxSwitches sums voluntary and involuntary context switches over a
// process's live threads.
func procCtxSwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		v, err := keyedValues(t, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
		if err != nil {
			return 0, err
		}
		total += v["voluntary_ctxt_switches"] + v["nonvoluntary_ctxt_switches"]
	}
	return total, nil
}

// procPeakRSSMB is a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	v, err := keyedValues(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(v["VmHWM"]) / 1024, nil
}

// stealTicks is the host's cumulative CPU steal time in clock ticks, the
// eighth value of the "cpu" line of /proc/stat.
func stealTicks() (int64, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) > 8 && fs[0] == "cpu" {
			return strconv.ParseInt(fs[8], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/stat: no cpu line")
}

// cpuInfo reads the host's processor model and count from /proc/cpuinfo,
// whatever this process's affinity allows it (runtime.NumCPU).
func cpuInfo() (model string, n int) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		switch k = strings.TrimSpace(k); {
		case ok && k == "processor":
			n++
		case ok && k == "model name" && model == "":
			model = strings.TrimSpace(v)
		}
	}
	return model, n
}

// hostRecord describes the machine a run was taken on, so that a run
// taken under heavy steal can be recognised.
type hostRecord struct {
	NumCPU     int     `json:"nproc"`
	CPUsUsed   int     `json:"cpus_used"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealTicks int64   `json:"steal_ticks"`
	SlotRate   float64 `json:"daemon_slots_per_s,omitempty"`
}

func newHostRecord() hostRecord {
	model, n := cpuInfo()
	return hostRecord{
		NumCPU:     n,
		CPUsUsed:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   model,
	}
}
