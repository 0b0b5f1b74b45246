package main

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"syscall"
	"time"

	"repro/internal/flowtable"
	"repro/internal/matching"
	"repro/internal/pifo"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/traffic"
)

// engineSpec is one lockstep engine workload: the engine runs with
// SlotPeriod 0 and this benchmark's single goroutine admits a slot's
// arrivals, calls Tick, and drains every output, slot after slot.
type engineSpec struct {
	n     int
	sched string
	// uniform is the Bernoulli load of plain Admit arrivals per input per
	// slot, destinations uniform.
	uniform float64
	// tiers enables the flow tier (po2 steering) and the class tier
	// (deadline rank over tierClasses), fed by the loads below.
	tiers bool
	class float64 // AdmitClass arrivals per input per slot
	flow  float64 // AdmitFlow arrivals per input per slot, steered
	// block is the number of pre-drawn arrival slots, replayed in order;
	// about half a million arrivals either way.
	block int
}

var (
	// engineN64: no socket and no tiers, so the engine's snapshot,
	// arbitrate and dispatch phases and Central.Schedule do the work.
	engineN64 = engineSpec{n: 64, sched: "lcf_central_rr", uniform: 0.9, block: 8192}
	// engineTiers: the only workload through internal/flowtable and
	// internal/pifo; total offered load 0.8 per port.
	engineTiers = engineSpec{n: 16, sched: "lcf_central_rr", uniform: 0.3, tiers: true, class: 0.3, flow: 0.2, block: 32768}
)

const (
	tierClasses    = "rt:0:4:16,std:1:2:64,bulk:2:1"
	tierRank       = "deadline"
	tierFlows      = 4096  // flow population
	tierFlowSkew   = 0.6   // Zipf exponent of flow popularity
	tierFlowTable  = 65536 // steering table capacity
	tierFlowPolicy = "po2"

	roundSlots   = 1024 // the run checks its clock every round
	engineSetups = 21   // constructions timed per run; setup_s is their median
	latencyEvery = 64   // every 64th frame (by seq) is timed in wall clock
	stampRing    = 1 << 17
)

// tierClassMix is the cumulative share of AdmitClass arrivals per class
// of tierClasses: 20% rt, 30% std, 50% bulk.
var tierClassMix = []float64{0.2, 0.5, 1}

const (
	viaAdmit uint8 = iota
	viaFlow
	viaClass
)

type arrival struct {
	via   uint8
	class int8
	src   uint16 // input (viaAdmit, viaClass)
	dst   uint16
	flow  uint32 // flow rank (viaFlow)
}

// arrivals holds spec.block slots of pre-drawn arrivals; slot t's are
// arr[start[t]:start[t+1]].
type arrivals struct {
	arr   []arrival
	start []int32
}

func drawArrivals(spec engineSpec, seed uint64) *arrivals {
	r := rng.New(seed)
	var zipf *traffic.Zipf
	if spec.tiers {
		zipf = traffic.NewZipf(tierFlows, tierFlowSkew, seed^0x9e3779b97f4a7c15)
	}
	a := &arrivals{start: make([]int32, 0, spec.block+1)}
	for t := 0; t < spec.block; t++ {
		a.start = append(a.start, int32(len(a.arr)))
		for i := 0; i < spec.n; i++ {
			u := r.Float64()
			switch {
			case u < spec.uniform:
				a.arr = append(a.arr, arrival{via: viaAdmit, src: uint16(i), dst: uint16(r.Intn(spec.n))})
			case u < spec.uniform+spec.class:
				c, v := 0, r.Float64()
				for v >= tierClassMix[c] {
					c++
				}
				a.arr = append(a.arr, arrival{via: viaClass, class: int8(c), src: uint16(i), dst: uint16(r.Intn(spec.n))})
			case u < spec.uniform+spec.class+spec.flow:
				// A flow keeps one destination; ranks are spread over the
				// outputs so the popular flows do not share one.
				f := zipf.Next()
				a.arr = append(a.arr, arrival{via: viaFlow, flow: uint32(f), dst: uint16(f % spec.n)})
			}
		}
	}
	a.start = append(a.start, int32(len(a.arr)))
	return a
}

// flowID maps a flow rank to the 64-bit id the switch steers on.
func flowID(rank uint32) uint64 { return uint64(rank)*0x9e3779b97f4a7c15 + 1 }

// timedScheduler forwards to the scheduler under test and times each
// Schedule call (sched.schedule_ns). It forwards Explain so grant
// attribution (sched.lcf_grant_share) is unchanged.
type timedScheduler struct {
	sched.Scheduler
	timer  layerTimer
	spans  *spanLog
	parent int64 // the Tick span the next Schedule call runs under
}

func (t *timedScheduler) Schedule(ctx *sched.Context, m *matching.Match) {
	start := time.Now()
	t.Scheduler.Schedule(ctx, m)
	end := time.Now()
	t.timer.add(start, end)
	t.spans.add("sched.Scheduler.Schedule", start, end, t.parent)
}

func (t *timedScheduler) Explain(i int) (sched.GrantRule, int) {
	if ex, ok := t.Scheduler.(sched.Explainer); ok {
		return ex.Explain(i)
	}
	return sched.RuleUnattributed, -1
}

// engineRun is the state of one lockstep run: the checks and the
// measurements taken as frames leave.
type engineRun struct {
	spec   engineSpec
	ledger *ledger
	oq     *oqQueue

	slot    int64 // the slot being run
	match   []int // input → output granted in the current slot
	gotOut  []bool
	slotErr error

	flowPort []int16 // flow rank → input it entered at, -1 before its first frame

	delivered int64
	delaySum  int64
	delays    []int64 // delays[d]: frames that waited d slots
	rtDelays  []int64 // the same for class rt (engine-tiers)

	// Every latencyEvery-th frame is timed from just before its
	// admission to its receipt: admittedAt[seq/latencyEvery % stampRing]
	// holds ns since t0.
	t0         time.Time
	admittedAt []int64
	latency    []float64
}

// onSlot validates the slot's matching (Config.OnSlot) and keeps it so
// every delivery can be checked against the grant that released it.
func (r *engineRun) onSlot(ev rt.SlotEvent) {
	if r.slotErr != nil {
		return
	}
	if ev.Slot != r.slot {
		r.slotErr = checkErr("OnSlot reported slot %d during slot %d", ev.Slot, r.slot)
		return
	}
	m := ev.Match
	if m == nil || m.N() != r.spec.n {
		r.slotErr = checkErr("slot %d: no %d-port matching", ev.Slot, r.spec.n)
		return
	}
	for i, j := range m.InToOut {
		r.match[i] = j
		if j != matching.Unmatched && (j < 0 || j >= r.spec.n || m.OutToIn[j] != i) {
			r.slotErr = checkErr("slot %d: input %d granted output %d, which is not matched back", ev.Slot, i, j)
			return
		}
	}
	for j, i := range m.OutToIn {
		if i != matching.Unmatched && (i < 0 || i >= r.spec.n || m.InToOut[i] != j) {
			r.slotErr = checkErr("slot %d: output %d granted input %d, which is not matched back", ev.Slot, j, i)
			return
		}
	}
	if ev.Matched > m.Size() {
		r.slotErr = checkErr("slot %d: %d frames dispatched on a matching of %d", ev.Slot, ev.Matched, m.Size())
	}
}

// receive checks one frame taken from output j in the current slot.
func (r *engineRun) receive(j int, f rt.Frame) error {
	if f.Departed != r.slot {
		return checkErr("frame %d left in slot %d, reported departed %d", f.Seq, r.slot, f.Departed)
	}
	if f.Src < 0 || f.Src >= r.spec.n || r.match[f.Src] != j {
		return checkErr("slot %d: frame %d from input %d left on output %d without a grant", r.slot, f.Seq, f.Src, j)
	}
	if r.gotOut[j] {
		return checkErr("slot %d: output %d sent two frames", r.slot, j)
	}
	r.gotOut[j] = true
	if err := r.ledger.deliver(j, f.Src, f.Dst, f.Class+1, f.Seq); err != nil {
		return checkErr("%v", err)
	}
	d := f.Departed - f.Admitted
	if d < 0 || d >= stampRing {
		return checkErr("frame %d waited %d slots", f.Seq, d)
	}
	r.delivered++
	r.delaySum += d
	r.delays = bump(r.delays, d)
	if f.Class == 0 {
		r.rtDelays = bump(r.rtDelays, d)
	}
	if f.Seq%latencyEvery == 0 {
		at := r.admittedAt[f.Seq/latencyEvery%stampRing]
		r.latency = append(r.latency, float64(time.Since(r.t0).Nanoseconds()-at)/1e3)
	}
	return nil
}

func bump(c []int64, d int64) []int64 {
	for int64(len(c)) <= d {
		c = append(c, 0)
	}
	c[d]++
	return c
}

func runEngine(cfg runConfig, spec engineSpec) (*report, error) {
	arr := drawArrivals(spec, cfg.seed)
	n := spec.n
	classes := 1
	var classList []pifo.Class
	if spec.tiers {
		var err error
		if classList, err = pifo.ParseClasses(tierClasses); err != nil {
			return nil, err
		}
		classes += len(classList)
	}
	r := &engineRun{
		spec:       spec,
		ledger:     newLedger(n, classes, false),
		oq:         newOQ(n),
		match:      make([]int, n),
		gotOut:     make([]bool, n),
		flowPort:   make([]int16, tierFlows),
		admittedAt: make([]int64, stampRing),
		latency:    make([]float64, 0, 1<<15),
	}
	for i := range r.flowPort {
		r.flowPort[i] = -1
	}

	var (
		spans *spanLog
		ts    *timedScheduler
	)
	t0 := time.Now()
	r.t0 = t0
	if cfg.trace {
		spans = newSpanLog(t0)
	}
	newEngine := func() (*rt.Engine, error) {
		s, err := registry.New(spec.sched, n, sched.Options{Iterations: 4, Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			ts = &timedScheduler{Scheduler: s, spans: spans, parent: -1}
			s = ts
		}
		c := rt.Config{N: n, Scheduler: s, OnSlot: r.onSlot}
		if spec.tiers {
			c.Flows, c.FlowPolicy = tierFlowTable, tierFlowPolicy
			c.Classes, c.Rank = classList, tierRank
		}
		return rt.New(c)
	}
	// Set-up: construct the scheduler and engine several times from a
	// collected heap and keep the last.
	var (
		e      *rt.Engine
		setups []time.Duration
	)
	for k := 0; k < engineSetups; k++ {
		goruntime.GC()
		start := time.Now()
		ne, err := newEngine()
		setups = append(setups, time.Since(start))
		if err != nil {
			return nil, err
		}
		if e != nil {
			e.Close()
		}
		e = ne
	}
	defer e.Close()
	outs := make([]<-chan rt.Frame, n)
	for j := range outs {
		outs[j] = e.Output(j)
	}

	var (
		admitT, flowT, classT, tickT, drainT layerTimer
		attempted, failed                    int64
		seq                                  uint64
	)
	// admit offers one pre-drawn arrival through its front door.
	admit := func(a arrival, slotSpan int64) error {
		attempted++
		s := seq
		seq++
		var (
			start time.Time
			err   error
			src   = int(a.src)
			class = 0
			name  string
			timer *layerTimer
		)
		if s%latencyEvery == 0 {
			r.admittedAt[s/latencyEvery%stampRing] = time.Since(t0).Nanoseconds()
		}
		if cfg.trace {
			start = time.Now()
		}
		switch a.via {
		case viaAdmit:
			err = e.Admit(src, int(a.dst), s, 0)
			name, timer = "runtime.Engine.Admit", &admitT
		case viaClass:
			err = e.AdmitClass(src, int(a.dst), int(a.class), s, 0, 0)
			class = int(a.class) + 1
			name, timer = "runtime.Engine.AdmitClass", &classT
		case viaFlow:
			src, err = e.AdmitFlow(flowID(a.flow), int(a.dst), s, 0)
			name, timer = "runtime.Engine.AdmitFlow", &flowT
		}
		if cfg.trace {
			end := time.Now()
			timer.add(start, end)
			spans.add(name, start, end, slotSpan)
		}
		switch {
		case err == nil:
		case errors.Is(err, rt.ErrBackpressure), errors.Is(err, flowtable.ErrTableFull):
			failed++
			return nil
		default:
			return fmt.Errorf("admission: %w", err)
		}
		if a.via == viaFlow {
			if p := r.flowPort[a.flow]; p >= 0 && int(p) != src {
				return checkErr("flow %d entered at input %d after input %d", a.flow, src, p)
			}
			r.flowPort[a.flow] = int16(src)
		}
		r.ledger.offer(src, int(a.dst), class, s)
		r.oq.arrive(int(a.dst))
		return nil
	}

	// step runs the current slot after its arrivals: Tick, then drain
	// every output.
	step := func(slotSpan int64) error {
		var start time.Time
		tickSpan := spans.reserve()
		if cfg.trace {
			ts.parent = tickSpan
			start = time.Now()
		}
		e.Tick()
		if cfg.trace {
			end := time.Now()
			tickT.add(start, end)
			spans.fill(tickSpan, "runtime.Engine.Tick", start, end, slotSpan)
			start = end
		}
		if r.slotErr != nil {
			return r.slotErr
		}
		r.oq.slot()
		for j := range r.gotOut {
			r.gotOut[j] = false
		}
		got := r.delivered
		for j, ch := range outs {
		drain:
			for {
				select {
				case f := <-ch:
					if err := r.receive(j, f); err != nil {
						return err
					}
				default:
					break drain
				}
			}
		}
		if cfg.trace {
			end := time.Now()
			drainT.ns += end.Sub(start).Nanoseconds()
			drainT.calls += r.delivered - got
			spans.add("runtime.Engine.Output", start, end, slotSpan)
		}
		r.slot++
		return nil
	}

	var ru0 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	loopStart := time.Now()
	var wins windows
	winStart, winDelivered := loopStart, r.delivered
	for len(wins.goodput) < cfg.seconds {
		for k := 0; k < roundSlots; k++ {
			var slotStart time.Time
			if cfg.trace {
				slotStart = time.Now()
			}
			slotSpan := spans.reserve()
			b := r.slot % int64(spec.block)
			for _, a := range arr.arr[arr.start[b]:arr.start[b+1]] {
				if err := admit(a, slotSpan); err != nil {
					return nil, err
				}
			}
			if err := step(slotSpan); err != nil {
				return nil, err
			}
			spans.fill(slotSpan, "slot", slotStart, time.Now(), -1)
		}
		if now := time.Now(); now.Sub(winStart) >= time.Second {
			wins.add(float64(r.delivered-winDelivered)/now.Sub(winStart).Seconds(), r.latency)
			winStart, winDelivered = now, r.delivered
			r.latency = r.latency[:0]
		}
	}
	var ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	loopDelivered := r.delivered
	stats := e.Stats()
	matched, requested := stats.Matched.Value(), stats.Requested.Value()
	var grants int64
	for k := range stats.GrantsByRule {
		grants += stats.GrantsByRule[k].Value()
	}
	l := zeroLayers()
	l["runtime.admit_ns"] = admitT.perCall()
	l["runtime.tick_ns"] = tickT.perCall()
	l["runtime.drain_ns_per_frame"] = drainT.perCall()
	if ts != nil {
		l["sched.schedule_ns"] = ts.timer.perCall()
		l["runtime.tick_self_ns"] = tickT.perCall() - ts.timer.perCall()
	}
	if requested > 0 {
		l["runtime.match_ratio"] = float64(matched) / float64(requested)
	}
	if grants > 0 {
		l["sched.lcf_grant_share"] = float64(stats.GrantsByRule[sched.RuleLCF].Value()) / float64(grants)
	}
	l["flowtable.admit_flow_ns"] = flowT.perCall()
	l["pifo.admit_class_ns"] = classT.perCall()
	if spec.tiers {
		l["flowtable.jain"] = e.Flows().Fairness().Jain
	}

	// Drain what the timed loop left queued, with no new arrivals, so
	// every admitted frame is delivered and counted in the delays.
	for limit := 0; !r.ledger.resolved(); limit++ {
		if limit > 1<<20 {
			return nil, checkErr("%d frames still queued %d slots after the last arrival", r.ledger.open, limit)
		}
		if err := step(-1); err != nil {
			return nil, err
		}
	}
	if err := r.ledger.finish(); err != nil {
		return nil, checkErr("%v", err)
	}
	for r.oq.queued > 0 {
		r.oq.slot()
	}
	if r.delaySum < r.oq.sum {
		return nil, checkErr("summed delay %d slots is below the output-queued bound %d on the same arrivals", r.delaySum, r.oq.sum)
	}

	if cfg.trace {
		if err := spans.write(spanPath(cfg.outDir, cfg.workload, cfg.seed)); err != nil {
			return nil, err
		}
	}

	if loopDelivered == 0 || wins.empty() {
		return nil, checkErr("no frame was delivered")
	}
	cpu := rusageSeconds(ru1) - rusageSeconds(ru0)
	goodput, p50, p99 := wins.medians()
	rep := &report{
		attempted: attempted,
		failed:    failed,
		e2e: map[string]float64{
			"goodput_fps":      goodput,
			"latency_p50_us":   p50,
			"latency_p99_us":   p99,
			"cpu_us_per_frame": cpu * 1e6 / float64(loopDelivered),
			"delay_mean_slots": float64(r.delaySum) / float64(r.delivered),
			"delay_p99_slots":  slotQuantile(r.delays, 0.99),
			"setup_s":          medianSeconds(setups),
			"rss_peak_mb":      float64(ru1.Maxrss) / 1024,
		},
		layer: l,
	}
	if spec.tiers {
		l["pifo.rt_delay_p99_slots"] = slotQuantile(r.rtDelays, 0.99)
	}
	return rep, nil
}

func rusageSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}
