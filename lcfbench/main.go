// Command lcfbench is the repository's end-to-end benchmark: one command
// that runs a named workload with a seed, checks the switch's outputs,
// and prints every end-to-end metric (or, traced, every per-layer
// metric) with its unit, plus the operations attempted and failed.
//
// The wire-* workloads exec a cmd/lcfd binary built from the same tree
// and drive it over loopback TCP; the engine-* workloads drive
// internal/runtime in lockstep from one goroutine. See README.md for the
// workloads, the metrics and the layer each per-layer metric belongs to.
//
// Usage (from the repository root; lcfbench/run.sh builds both binaries):
//
//	lcfbench -lcfd path/to/lcfd --workload wire-closed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the host and, on a traced run, the traced run's end-to-end
// figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the switch sees. Every untraced run prints
// all of them; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"goodput_fps", "frames/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_frame", "us"},
	{"delay_mean_slots", "slots"},
	{"delay_p99_slots", "slots"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is what the traced run measures at each layer boundary. A
// layer a workload does not reach reads 0 there (README.md lists which
// workload each metric belongs to).
var perLayer = []metricDef{
	{"lcfd.read_syscalls_per_frame", "1/frame"},
	{"lcfd.write_syscalls_per_frame", "1/frame"},
	{"lcfd.ctx_switches_per_frame", "1/frame"},
	{"lcfd.nack_share", "ratio"},
	{"runtime.slot_rate_ratio", "ratio"},
	{"runtime.tick_ns", "ns"},
	{"runtime.tick_self_ns", "ns"},
	{"runtime.admit_ns", "ns"},
	{"runtime.drain_ns_per_frame", "ns"},
	{"runtime.match_ratio", "ratio"},
	{"sched.schedule_ns", "ns"},
	{"sched.lcf_grant_share", "ratio"},
	{"clint.encode_ns", "ns"},
	{"clint.decode_ns", "ns"},
	{"flowtable.admit_flow_ns", "ns"},
	{"flowtable.jain", "ratio"},
	{"pifo.admit_class_ns", "ns"},
	{"pifo.rt_delay_p99_slots", "slots"},
	{"loadgen.late_p99_us", "us"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	lcfd     string // daemon binary, wire-* only
	outDir   string // where traced runs write their spans
}

// report is what a workload measured. A failed output check is an error
// from the workload, not a report.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	slotRate          float64 // the daemon's achieved slots/s, wire-* only
}

var workloads = map[string]func(runConfig) (*report, error){
	"wire-open":    func(c runConfig) (*report, error) { return runWire(c, wireOpen) },
	"wire-closed":  func(c runConfig) (*report, error) { return runWire(c, wireClosed) },
	"engine-n64":   func(c runConfig) (*report, error) { return runEngine(c, engineN64) },
	"engine-tiers": func(c runConfig) (*report, error) { return runEngine(c, engineTiers) },
}

// errCheck marks a failed output check: the run prints correct=false.
var errCheck = errors.New("output check failed")

func checkErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg   runConfig
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured part of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&cfg.lcfd, "lcfd", "", "lcfd binary built from the tree under test (wire-* workloads)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/lcfbench", "directory for the span files of traced runs")
	flag.Parse()
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "lcfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "lcfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if err := checkerSelfTest(); err != nil {
		fmt.Fprintf(os.Stderr, "lcfbench: %v\n", err)
		return 1
	}

	steal0, stealErr := stealTicks()
	rep, err := w(cfg)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintf(os.Stderr, "lcfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	host := newHostRecord()
	if steal1, err1 := stealTicks(); stealErr == nil && err1 == nil {
		host.StealTicks = steal1 - steal0
	}

	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{Correct: err == nil, Metrics: map[string]jsonValue{}}
	info := struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Host      hostRecord         `json:"host"`
		Traced    bool               `json:"traced"`
		EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
		CheckFail string             `json:"check_failure,omitempty"`
	}{Workload: cfg.workload, Seed: cfg.seed, Host: host, Traced: cfg.trace}
	if err != nil {
		info.CheckFail = err.Error()
		fmt.Fprintf(os.Stderr, "lcfbench: %s: %v\n", cfg.workload, err)
	} else {
		info.Host.SlotRate = rep.slotRate
		res.Attempted, res.Failed = rep.attempted, rep.failed
		set, vals := endToEnd, rep.e2e
		if cfg.trace {
			set, vals = perLayer, rep.layer
			info.EndToEnd = rep.e2e
		}
		for _, m := range set {
			v, ok := vals[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "lcfbench: %s did not measure %s\n", cfg.workload, m.name)
				return 1
			}
			res.Metrics[m.name] = jsonValue{v, m.unit}
		}
	}
	line, _ := json.Marshal(info)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// zeroLayers returns the per-layer map with every metric at 0, for a
// workload to fill in the layers it reaches.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// medianSeconds is the median of set-up times, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return quantile(s, 0.5)
}
