package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clint"
	"repro/internal/rng"
)

// wireSpec is one loopback workload: a fresh lcfd process, n client
// connections from this process (one per port, never more than the
// host's CPUs), and either an open-loop or a closed-loop generator.
type wireSpec struct {
	n    int
	slot time.Duration
	// open offers frames on a fixed schedule at load × the configured
	// capacity (n frames per slot); otherwise each connection keeps
	// window frames outstanding.
	open   bool
	load   float64
	window int
}

var (
	// wireOpen: latency at a fixed offered load, where the slot clock and
	// idle wake-ups show.
	wireOpen = wireSpec{n: 2, slot: 200 * time.Microsecond, open: true, load: 0.5}
	// wireClosed: the ceiling and the per-frame cost of the ingest,
	// egress and codec path.
	wireClosed = wireSpec{n: 2, slot: 20 * time.Microsecond, window: 8}
)

const (
	wireSetups = 11 // daemon start-ups timed per run; setup_s is their median
	// roundLen is one round of the open-loop schedule. Each round offers
	// exactly load × roundLen/slot frames per connection and checks once
	// that the daemon ran its configured slot rate.
	roundLen = time.Second
	// slotRateMin is the share of the configured slot rate a round must
	// reach for its slot-clock check to pass.
	slotRateMin  = 0.9
	maxBatch     = 64 // frames per client write
	drainTimeout = 30 * time.Second
)

// daemon is one running lcfd with this benchmark's connections to it.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	conns    []net.Conn // index = port
	done     chan error // the process's exit, after its output is read
	out      bytes.Buffer
	stopOnce sync.Once
	stopErr  error
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs lcfd and connects one client per port. The returned
// duration runs from exec to the last port's handshake grant.
func startDaemon(bin string, spec wireSpec) (*daemon, time.Duration, error) {
	dataAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{httpAddr: httpAddr, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-n", strconv.Itoa(spec.n), "-slot", spec.slot.String(),
		"-listen", dataAddr, "-http", httpAddr)
	// Should this process be killed before it stops the daemon, the
	// kernel kills the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = os.Stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	br := bufio.NewReader(stdout)
	fail := func(err error) (*daemon, time.Duration, error) {
		for _, c := range d.conns {
			c.Close()
		}
		d.cmd.Process.Kill()
		io.Copy(io.Discard, br)
		d.cmd.Wait()
		return nil, 0, err
	}
	// lcfd prints its banner after it listens.
	if banner, err := br.ReadString('\n'); err != nil || !strings.Contains(banner, " on ") {
		return fail(fmt.Errorf("lcfd did not start (banner %q): %v", banner, err))
	}
	for p := 0; p < spec.n; p++ {
		c, err := net.Dial("tcp", dataAddr)
		if err != nil {
			return fail(err)
		}
		d.conns = append(d.conns, c)
		var hello [clint.GrantLen]byte
		if _, err := io.ReadFull(c, hello[:]); err != nil {
			return fail(fmt.Errorf("handshake on port %d: %w", p, err))
		}
		g, err := clint.DecodeGrant(hello[:])
		if err != nil || !g.GntVal || int(g.NodeID) != p {
			return fail(fmt.Errorf("handshake on port %d: grant %+v, %v", p, g, err))
		}
	}
	setup := time.Since(start)
	go func() {
		io.Copy(&d.out, br)
		d.done <- d.cmd.Wait()
	}()
	return d, setup, nil
}

// stop closes the connections, interrupts the daemon and waits for it
// to exit, killing it if the drain hangs. Safe to call more than once.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		for _, c := range d.conns {
			c.Close()
		}
		d.cmd.Process.Signal(os.Interrupt)
		select {
		case err := <-d.done:
			if err != nil {
				d.stopErr = fmt.Errorf("lcfd exit: %v (output %q)", err, d.out.String())
			}
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			d.stopErr = fmt.Errorf("lcfd did not exit within 20s of SIGINT")
		}
	})
	return d.stopErr
}

// startTimed starts the daemon wireSetups times, stopping all but the
// last, and returns the last with every start-up's duration.
func startTimed(bin string, spec wireSpec) (*daemon, []time.Duration, error) {
	var setups []time.Duration
	for k := 0; ; k++ {
		d, setup, err := startDaemon(bin, spec)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		if k == wireSetups-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// daemonMetrics is the part of lcfd's GET /metrics JSON this benchmark
// reads.
type daemonMetrics struct {
	Engine struct {
		Slot          int64            `json:"slot"`
		Admitted      int64            `json:"admitted"`
		Backpressured int64            `json:"backpressured"`
		Requested     int64            `json:"requested"`
		Matched       int64            `json:"matched"`
		GrantsByRule  map[string]int64 `json:"grants_by_rule"`
		SlotLatencyNs struct {
			Total int64   `json:"total"`
			Sum   float64 `json:"sum"`
		} `json:"slot_latency_ns"`
	} `json:"engine"`
	Server struct {
		NacksSent       int64 `json:"nacks_sent"`
		DroppedNoClient int64 `json:"dropped_no_client"`
		ProtocolErrors  int64 `json:"protocol_errors"`
	} `json:"server"`
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) metrics() (*daemonMetrics, error) {
	resp, err := httpClient.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var m daemonMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &m, nil
}

// procSample is the daemon's process counters at one instant.
type procSample struct {
	at                   time.Duration
	cpu                  float64
	reads, writes, ctxsw int64
	m                    *daemonMetrics
}

func (d *daemon) sample(at time.Duration) (procSample, error) {
	pid := d.cmd.Process.Pid
	s := procSample{at: at}
	var err error
	if s.m, err = d.metrics(); err != nil {
		return s, err
	}
	if s.cpu, err = procCPUSeconds(pid); err != nil {
		return s, err
	}
	if s.reads, s.writes, err = procSyscalls(pid); err != nil {
		return s, err
	}
	s.ctxsw, err = procCtxSwitches(pid)
	return s, err
}

// wireRun is the client side of one measured run.
type wireRun struct {
	spec   wireSpec
	t0     time.Time
	window int64 // ns from t0 to the end of the measured window
	conns  []net.Conn
	spans  *spanLog
	trace  bool

	mu        sync.Mutex
	ledger    *ledger
	sent      int64
	sentInWin int64
	delivered int64
	delivWin  int64
	nacked    int64
	err       error

	tokens  []chan struct{} // closed loop: window slots per sender
	stop    chan struct{}   // closed when the window ends
	closing atomic.Bool
}

func (w *wireRun) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *wireRun) now() int64 { return time.Since(w.t0).Nanoseconds() }

// writerStats is one sender goroutine's measurements.
type writerStats struct {
	encode layerTimer
	late   []float64 // µs each open-loop frame was sent after it was due
}

// readerStats is one receiver goroutine's measurements.
type readerStats struct {
	decode layerTimer
	// latency[r] holds the µs from stamp to delivery of the frames
	// delivered here during one-second window r of the measured window.
	latency [][]float64
}

// offer records frames in the ledger before they can possibly arrive.
func (w *wireRun) offer(src int, dsts []int, seqs []uint64) {
	w.mu.Lock()
	for i, s := range seqs {
		w.ledger.offer(src, dsts[i], 0, s)
	}
	w.sent += int64(len(seqs))
	if w.now() <= w.window {
		w.sentInWin += int64(len(seqs))
	}
	w.mu.Unlock()
}

// send encodes and writes one batch of frames from port src.
func (w *wireRun) send(src int, dsts []int, seqs, stamps []uint64, buf []byte, st *writerStats) error {
	batch := w.spans.reserve()
	var bstart time.Time
	if w.trace {
		bstart = time.Now()
	}
	buf = buf[:0]
	for i := range seqs {
		var start time.Time
		if w.trace {
			start = time.Now()
		}
		off := len(buf)
		buf = buf[:off+clint.DataLen]
		clint.Data{Dst: uint8(dsts[i]), Seq: seqs[i], Stamp: stamps[i]}.EncodeTo(buf[off:])
		if w.trace {
			end := time.Now()
			st.encode.add(start, end)
			w.spans.add("clint.Data.EncodeTo", start, end, batch)
		}
	}
	w.offer(src, dsts, seqs)
	_, err := w.conns[src].Write(buf)
	if w.trace {
		w.spans.fill(batch, "loadgen.write", bstart, time.Now(), -1)
	}
	return err
}

func seqOf(src, k int) uint64 { return uint64(src)<<40 | uint64(k) }

// openWriter offers port src's pre-drawn schedule: frame k is due at
// due[k] slots after t0 and is stamped with that due time, so its
// latency counts any wait the generator itself imposed.
func (w *wireRun) openWriter(src int, due []int32, dsts []int, st *writerStats) error {
	slotNs := w.spec.slot.Nanoseconds()
	buf := make([]byte, 0, maxBatch*clint.DataLen)
	var seqs, stamps []uint64
	for k := 0; k < len(due); {
		now := w.now()
		next := int64(due[k]) * slotNs
		if next > now {
			time.Sleep(time.Duration(next - now))
			continue
		}
		seqs, stamps = seqs[:0], stamps[:0]
		first := k
		for k < len(due) && k-first < maxBatch && int64(due[k])*slotNs <= now {
			seqs = append(seqs, seqOf(src, k))
			stamps = append(stamps, uint64(int64(due[k])*slotNs))
			st.late = append(st.late, float64(now-int64(due[k])*slotNs)/1e3)
			k++
		}
		if err := w.send(src, dsts[first:k], seqs, stamps, buf, st); err != nil {
			return err
		}
	}
	return nil
}

// closedWriter keeps spec.window frames from port src outstanding until
// the window ends.
func (w *wireRun) closedWriter(src int, r *rng.PCG32, st *writerStats) error {
	buf := make([]byte, 0, maxBatch*clint.DataLen)
	var (
		seqs, stamps []uint64
		dsts         []int
		k            int
	)
	tokens := w.tokens[src]
	for {
		select {
		case <-tokens:
		case <-w.stop:
			return nil
		}
		got := 1
	more:
		for got < maxBatch {
			select {
			case <-tokens:
				got++
			default:
				break more
			}
		}
		seqs, stamps, dsts = seqs[:0], stamps[:0], dsts[:0]
		now := uint64(w.now())
		for i := 0; i < got; i++ {
			seqs = append(seqs, seqOf(src, k))
			stamps = append(stamps, now)
			dsts = append(dsts, r.Intn(w.spec.n))
			k++
		}
		if err := w.send(src, dsts, seqs, stamps, buf, st); err != nil {
			return err
		}
	}
}

// reader receives port p's deliveries and refusals and checks each.
func (w *wireRun) reader(p int, st *readerStats) {
	br := bufio.NewReaderSize(w.conns[p], 64<<10)
	var buf [64]byte
	for {
		typ, err := br.ReadByte()
		if err != nil {
			if !w.closing.Load() {
				w.fail(fmt.Errorf("port %d: connection lost: %v", p, err))
			}
			return
		}
		flen := clint.FrameLen(typ)
		if flen == 0 {
			w.fail(checkErr("port %d: frame type %#02x", p, typ))
			return
		}
		frame := buf[:flen]
		frame[0] = typ
		if _, err := io.ReadFull(br, frame[1:]); err != nil {
			if !w.closing.Load() {
				w.fail(fmt.Errorf("port %d: connection lost: %v", p, err))
			}
			return
		}
		var start time.Time
		if w.trace {
			start = time.Now()
		}
		switch typ {
		case clint.TypeData:
			d, err := clint.DecodeData(frame)
			w.traceDecode(st, start, "clint.DecodeData")
			if err != nil {
				w.fail(checkErr("port %d: %v", p, err))
				return
			}
			now := w.now()
			if win := now / roundLen.Nanoseconds(); win < int64(len(st.latency)) {
				st.latency[win] = append(st.latency[win], float64(now-int64(d.Stamp))/1e3)
			}
			w.mu.Lock()
			err = w.ledger.deliver(p, int(d.Src), int(d.Dst), 0, d.Seq)
			w.delivered++
			if now <= w.window {
				w.delivWin++
			}
			w.mu.Unlock()
			if err != nil {
				w.fail(checkErr("%v", err))
				return
			}
			w.release(int(d.Src))
		case clint.TypeNack:
			nk, err := clint.DecodeNack(frame)
			w.traceDecode(st, start, "clint.DecodeNack")
			if err != nil {
				w.fail(checkErr("port %d: %v", p, err))
				return
			}
			if int(nk.Seq>>40) != p {
				w.fail(checkErr("port %d: refusal of frame %#x, sent from another port", p, nk.Seq))
				return
			}
			w.mu.Lock()
			err = w.ledger.refuse(nk.Seq)
			w.nacked++
			w.mu.Unlock()
			if err != nil {
				w.fail(checkErr("%v", err))
				return
			}
			w.release(p)
		default:
			w.fail(checkErr("port %d: unexpected frame type %#02x", p, typ))
			return
		}
	}
}

func (w *wireRun) traceDecode(st *readerStats, start time.Time, name string) {
	if w.trace {
		end := time.Now()
		st.decode.add(start, end)
		w.spans.add(name, start, end, -1)
	}
}

// release returns a window slot to sender src (closed loop only). The
// channel holds the window, so it never blocks while the sender runs.
func (w *wireRun) release(src int) {
	if w.tokens != nil {
		select {
		case w.tokens[src] <- struct{}{}:
		default:
		}
	}
}

// openSchedule draws port src's open-loop frames: in every round, exactly
// load × slotsPerRound distinct slots chosen uniformly, each with a
// uniform destination. A fixed count per round keeps the operations of a
// run whole rounds.
func openSchedule(spec wireSpec, seed uint64, src, rounds int) (due []int32, dsts []int) {
	r := rng.NewPCG32(seed, uint64(src)+1)
	perRound := int(roundLen / spec.slot)
	frames := int(spec.load * float64(perRound))
	slots := make([]int, perRound)
	for round := 0; round < rounds; round++ {
		for i := range slots {
			slots[i] = i
		}
		for i := 0; i < frames; i++ {
			j := i + r.Intn(perRound-i)
			slots[i], slots[j] = slots[j], slots[i]
		}
		pick := append([]int(nil), slots[:frames]...)
		sort.Ints(pick)
		for _, s := range pick {
			due = append(due, int32(round*perRound+s))
			dsts = append(dsts, r.Intn(spec.n))
		}
	}
	return due, dsts
}

func runWire(cfg runConfig, spec wireSpec) (*report, error) {
	if cfg.lcfd == "" {
		return nil, fmt.Errorf("--lcfd names no daemon binary")
	}
	rounds := cfg.seconds
	var schedules [][]int32
	var schedDst [][]int
	if spec.open {
		for p := 0; p < spec.n; p++ {
			due, dsts := openSchedule(spec, cfg.seed, p, rounds)
			schedules, schedDst = append(schedules, due), append(schedDst, dsts)
		}
	}

	d, setups, err := startTimed(cfg.lcfd, spec)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// The metrics listener starts alongside the data plane; wait for it.
	for start := time.Now(); ; {
		if _, err = d.metrics(); err == nil || time.Since(start) > 5*time.Second {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}

	w := &wireRun{
		spec:   spec,
		conns:  d.conns,
		ledger: newLedger(spec.n, 1, true),
		trace:  cfg.trace,
		window: int64(rounds) * roundLen.Nanoseconds(),
	}
	if !spec.open {
		w.tokens = make([]chan struct{}, spec.n)
		for p := range w.tokens {
			w.tokens[p] = make(chan struct{}, spec.window)
			for i := 0; i < spec.window; i++ {
				w.tokens[p] <- struct{}{}
			}
		}
	}
	w.stop = make(chan struct{})
	w.t0 = time.Now()
	stopTimer := time.AfterFunc(time.Duration(w.window), func() { close(w.stop) })
	defer stopTimer.Stop()
	if cfg.trace {
		w.spans = newSpanLog(w.t0)
	}

	// One sample of the daemon's counters at every round boundary.
	samples := make([]procSample, rounds+1)
	var sampleErr error
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for r := 0; r <= rounds; r++ {
			at := time.Duration(r) * roundLen
			if wait := at - time.Since(w.t0); wait > 0 {
				time.Sleep(wait)
			}
			s, err := d.sample(time.Since(w.t0))
			if err != nil {
				sampleErr = err
				return
			}
			samples[r] = s
		}
	}()

	writers := make([]writerStats, spec.n)
	readers := make([]readerStats, spec.n)
	for p := range readers {
		readers[p].latency = make([][]float64, rounds)
	}
	var wg, rwg sync.WaitGroup
	for p := 0; p < spec.n; p++ {
		rwg.Add(1)
		go func(p int) {
			defer rwg.Done()
			w.reader(p, &readers[p])
		}(p)
	}
	for p := 0; p < spec.n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var err error
			if spec.open {
				err = w.openWriter(p, schedules[p], schedDst[p], &writers[p])
			} else {
				err = w.closedWriter(p, rng.NewPCG32(cfg.seed, uint64(p)+1), &writers[p])
			}
			if err != nil {
				w.fail(fmt.Errorf("port %d: send: %v", p, err))
			}
		}(p)
	}
	wg.Wait()
	sampler.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}

	// Every offered frame must now end as one delivery or one refusal.
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		w.mu.Lock()
		done, err := w.ledger.resolved(), w.err
		w.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if time.Since(start) > drainTimeout {
			w.mu.Lock()
			err := w.ledger.finish()
			w.mu.Unlock()
			return nil, checkErr("%v (after %v)", err, drainTimeout)
		}
	}
	final, err := d.metrics()
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	w.closing.Store(true)
	if err := d.stop(); err != nil {
		return nil, err
	}
	rwg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil, w.err
	}
	if err := w.ledger.finish(); err != nil {
		return nil, checkErr("%v", err)
	}
	e := final.Engine
	if e.Admitted != w.delivered || e.Backpressured != w.nacked || final.Server.NacksSent != w.nacked {
		return nil, checkErr("daemon admitted %d and refused %d (%d nacks sent); clients got %d deliveries and %d nacks",
			e.Admitted, e.Backpressured, final.Server.NacksSent, w.delivered, w.nacked)
	}
	if final.Server.DroppedNoClient != 0 || final.Server.ProtocolErrors != 0 {
		return nil, checkErr("daemon dropped %d frames for want of a client and saw %d protocol errors",
			final.Server.DroppedNoClient, final.Server.ProtocolErrors)
	}

	rep, err := w.measure(samples, readers, writers)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = medianSeconds(setups)
	rep.e2e["rss_peak_mb"] = rss
	if cfg.trace {
		if err := w.spans.write(spanPath(cfg.outDir, cfg.workload, cfg.seed)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measure turns a finished run into its report: samples[r] is the
// daemon's state at the start of round r, the last one at the end of the
// measured window. Wall-clock figures are taken per one-second window and
// the run reports the median window; slot delays convert a window's
// latency at the daemon's slot rate in that window.
func (w *wireRun) measure(samples []procSample, readers []readerStats, writers []writerStats) (*report, error) {
	rounds := len(samples) - 1
	first, last := samples[0], samples[rounds]
	span := (last.at - first.at).Seconds()
	slotRate := float64(last.m.Engine.Slot-first.m.Engine.Slot) / span
	configured := float64(time.Second) / float64(w.spec.slot)

	attempted, failed := w.sent, int64(0)
	if w.spec.open {
		// The slot-clock check: one operation per round.
		perRound := configured * roundLen.Seconds()
		for r := 0; r < rounds; r++ {
			attempted++
			if float64(samples[r+1].m.Engine.Slot-samples[r].m.Engine.Slot) < slotRateMin*perRound {
				failed++
			}
		}
	}

	var (
		wins                windows
		delayMean, delayP99 []float64
		late                []float64
		encode, decode      layerTimer
	)
	for r := 0; r < rounds; r++ {
		var lat []float64
		for _, rd := range readers {
			lat = append(lat, rd.latency[r]...)
		}
		if len(lat) == 0 {
			continue
		}
		var sum float64
		for _, v := range lat {
			sum += v
		}
		wins.add(float64(len(lat))/roundLen.Seconds(), lat)
		perUs := float64(samples[r+1].m.Engine.Slot-samples[r].m.Engine.Slot) / (samples[r+1].at - samples[r].at).Seconds() / 1e6
		delayMean = append(delayMean, sum/float64(len(lat))*perUs)
		delayP99 = append(delayP99, quantileSorted(lat, 0.99)*perUs)
	}
	for _, rd := range readers {
		decode.merge(rd.decode)
	}
	for _, wr := range writers {
		late = append(late, wr.late...)
		encode.merge(wr.encode)
	}
	if wins.empty() || w.delivWin == 0 {
		return nil, checkErr("no frame was delivered")
	}
	goodput, p50, p99 := wins.medians()
	rep := &report{
		attempted: attempted,
		failed:    failed,
		slotRate:  slotRate,
		e2e: map[string]float64{
			"goodput_fps":      goodput,
			"latency_p50_us":   p50,
			"latency_p99_us":   p99,
			"cpu_us_per_frame": (last.cpu - first.cpu) * 1e6 / float64(w.delivWin),
			"delay_mean_slots": quantile(delayMean, 0.5),
			"delay_p99_slots":  quantile(delayP99, 0.5),
		},
		layer: zeroLayers(),
	}
	l := rep.layer
	offered := float64(w.sentInWin)
	l["lcfd.read_syscalls_per_frame"] = float64(last.reads-first.reads) / offered
	l["lcfd.write_syscalls_per_frame"] = float64(last.writes-first.writes) / offered
	l["lcfd.ctx_switches_per_frame"] = float64(last.ctxsw-first.ctxsw) / offered
	l["lcfd.nack_share"] = float64(w.nacked) / float64(w.sent)
	l["runtime.slot_rate_ratio"] = slotRate / configured
	fe, le := first.m.Engine, last.m.Engine
	if ticks := le.SlotLatencyNs.Total - fe.SlotLatencyNs.Total; ticks > 0 {
		l["runtime.tick_ns"] = (le.SlotLatencyNs.Sum - fe.SlotLatencyNs.Sum) / float64(ticks)
	}
	if req := le.Requested - fe.Requested; req > 0 {
		l["runtime.match_ratio"] = float64(le.Matched-fe.Matched) / float64(req)
	}
	var grants int64
	for rule, v := range le.GrantsByRule {
		grants += v - fe.GrantsByRule[rule]
	}
	if grants > 0 {
		l["sched.lcf_grant_share"] = float64(le.GrantsByRule["lcf"]-fe.GrantsByRule["lcf"]) / float64(grants)
	}
	l["clint.encode_ns"] = encode.perCall()
	l["clint.decode_ns"] = decode.perCall()
	if len(late) > 0 {
		l["loadgen.late_p99_us"] = quantile(late, 0.99)
	}
	return rep, nil
}
