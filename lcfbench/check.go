package main

import (
	"fmt"
	"math"
	"sort"
)

// ledger checks a switch's delivery stream against the frames offered to
// it, using only properties every correct switch has: each offered frame
// ends as exactly one delivery or one refusal (NACK), nothing is
// duplicated or invented, a frame leaves on the port it was addressed to,
// and frames that share a key — (src, dst, class) — leave in the order
// they were admitted. It never compares against a saved copy of earlier
// output.
//
// Frames are identified by a seq the caller makes unique. A ledger is not
// safe for concurrent use; callers sharing one serialise access.
type ledger struct {
	n       int
	classes int // keys per (src, dst) pair; 1 when classless
	q       []fifo
	open    int64 // offered frames not yet resolved

	// refused holds refusals not yet matched to their place in a FIFO.
	refused map[uint64]bool
	// overtaken holds frames a later delivery on the same key skipped.
	// They may still end as refusals (a NACK travels on the sender's
	// connection and can arrive after a later frame's delivery on the
	// receiver's); any other end is a reordering. Only ledgers with
	// racyRefusals accept overtaking at all.
	overtaken    map[uint64]bool
	racyRefusals bool
}

func newLedger(n, classes int, racyRefusals bool) *ledger {
	return &ledger{
		n: n, classes: classes,
		q:            make([]fifo, n*n*classes),
		refused:      make(map[uint64]bool),
		overtaken:    make(map[uint64]bool),
		racyRefusals: racyRefusals,
	}
}

func (l *ledger) key(src, dst, class int) (int, bool) {
	if src < 0 || src >= l.n || dst < 0 || dst >= l.n || class < 0 || class >= l.classes {
		return 0, false
	}
	return (src*l.n+dst)*l.classes + class, true
}

// offer records that frame seq was accepted by the switch on key
// (src, dst, class). Offers on one key must come in admission order.
func (l *ledger) offer(src, dst, class int, seq uint64) {
	k, ok := l.key(src, dst, class)
	if !ok {
		panic(fmt.Sprintf("ledger: offer on bad key (%d,%d,%d)", src, dst, class))
	}
	l.q[k].push(seq)
	l.open++
}

// deliver checks one frame received on output port. src, dst and class
// are what the delivered frame carries.
func (l *ledger) deliver(port, src, dst, class int, seq uint64) error {
	if dst != port {
		return fmt.Errorf("frame %d for port %d delivered on port %d", seq, dst, port)
	}
	k, ok := l.key(src, dst, class)
	if !ok {
		return fmt.Errorf("frame %d carries bad endpoints src %d dst %d class %d", seq, src, dst, class)
	}
	q := &l.q[k]
	l.dropRefusedHeads(q)
	if q.len() == 0 {
		return fmt.Errorf("frame %d delivered on (%d→%d, class %d) but not outstanding there: duplicated, invented or misrouted", seq, src, dst, class)
	}
	if h := q.head(); h != seq {
		if !l.racyRefusals {
			return fmt.Errorf("frame %d delivered on (%d→%d, class %d) before frame %d admitted ahead of it", seq, src, dst, class, h)
		}
		at := q.index(seq)
		if at < 0 {
			return fmt.Errorf("frame %d delivered on (%d→%d, class %d) but not outstanding there: duplicated, invented, misrouted or reordered", seq, src, dst, class)
		}
		for i := 0; i < at; i++ {
			s := q.pop()
			if l.refused[s] {
				delete(l.refused, s)
			} else {
				l.overtaken[s] = true
			}
			l.open--
		}
	}
	q.pop()
	l.open--
	return nil
}

// refuse records the switch's refusal (NACK) of frame seq.
func (l *ledger) refuse(seq uint64) error {
	if l.overtaken[seq] {
		delete(l.overtaken, seq)
		return nil
	}
	if l.refused[seq] {
		return fmt.Errorf("frame %d refused twice", seq)
	}
	l.refused[seq] = true
	return nil
}

func (l *ledger) dropRefusedHeads(q *fifo) {
	for q.len() > 0 && l.refused[q.head()] {
		delete(l.refused, q.pop())
		l.open--
	}
}

// resolved reports whether every offered frame has ended.
func (l *ledger) resolved() bool {
	if len(l.refused) > 0 {
		for k := range l.q {
			l.dropRefusedHeads(&l.q[k])
		}
	}
	return l.open == 0 && len(l.overtaken) == 0
}

// finish checks that every offered frame ended exactly once. Call it
// after the switch has drained.
func (l *ledger) finish() error {
	for k := range l.q {
		q := &l.q[k]
		for q.len() > 0 {
			s := q.pop()
			if l.refused[s] {
				delete(l.refused, s)
				continue
			}
			src, dst, class := k/l.classes/l.n, k/l.classes%l.n, k%l.classes
			return fmt.Errorf("frame %d on (%d→%d, class %d) was neither delivered nor refused", s, src, dst, class)
		}
	}
	for s := range l.overtaken {
		return fmt.Errorf("frame %d was overtaken by a later frame on its key and never refused: reordered or lost", s)
	}
	for s := range l.refused {
		return fmt.Errorf("refusal of frame %d, which was not outstanding: duplicated or invented", s)
	}
	return nil
}

// fifo is a growable ring of seqs.
type fifo struct {
	buf        []uint64
	head0, cnt int
}

func (f *fifo) len() int     { return f.cnt }
func (f *fifo) head() uint64 { return f.buf[f.head0] }

func (f *fifo) push(v uint64) {
	if f.cnt == len(f.buf) {
		nb := make([]uint64, max(8, 2*len(f.buf)))
		for i := 0; i < f.cnt; i++ {
			nb[i] = f.buf[(f.head0+i)%len(f.buf)]
		}
		f.buf, f.head0 = nb, 0
	}
	f.buf[(f.head0+f.cnt)%len(f.buf)] = v
	f.cnt++
}

func (f *fifo) pop() uint64 {
	v := f.buf[f.head0]
	f.head0 = (f.head0 + 1) % len(f.buf)
	f.cnt--
	return v
}

func (f *fifo) index(v uint64) int {
	for i := 0; i < f.cnt; i++ {
		if f.buf[(f.head0+i)%len(f.buf)] == v {
			return i
		}
	}
	return -1
}

// oqQueue tracks an output-queued switch fed the same arrivals as the
// switch under test: every output serves one frame per slot, first come
// first served, so no switch can depart a frame sooner. Its summed delay
// is the lower bound the measured delay must respect.
type oqQueue struct {
	backlog []int64
	sum     int64 // summed delay of every frame, in slots
	queued  int64
}

func newOQ(n int) *oqQueue { return &oqQueue{backlog: make([]int64, n)} }

func (o *oqQueue) arrive(dst int) { o.backlog[dst]++; o.queued++ }

// slot serves one frame per non-empty output. A frame that arrived in
// slot t may depart in slot t (delay 0), as in the engine, and each frame
// still queued after a slot adds one slot to the summed delay.
func (o *oqQueue) slot() {
	for j, b := range o.backlog {
		if b > 0 {
			o.backlog[j] = b - 1
			o.queued--
		}
	}
	o.sum += o.queued
}

// quantileSorted is the q-quantile of ascending samples by linear
// interpolation between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func quantile(s []float64, q float64) float64 {
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// windows collects a run's one-second windows. Wall-clock figures are
// reported as the median window, so a burst of CPU steal or a GC cycle
// in a minority of windows does not move them.
type windows struct {
	goodput, p50, p99 []float64
}

// add records one window: its goodput and its latency samples (sorted in
// place).
func (w *windows) add(goodput float64, lat []float64) {
	w.goodput = append(w.goodput, goodput)
	if len(lat) > 0 {
		w.p50 = append(w.p50, quantile(lat, 0.5))
		w.p99 = append(w.p99, quantileSorted(lat, 0.99))
	}
}

func (w *windows) empty() bool { return len(w.p50) == 0 }

func (w *windows) medians() (goodput, p50, p99 float64) {
	return quantile(w.goodput, 0.5), quantile(w.p50, 0.5), quantile(w.p99, 0.5)
}

// slotQuantile is the q-quantile of integer slot delays held as counts
// (counts[d] frames waited d slots). Each frame's delay is spread evenly
// across its slot, the quantile of grouped data: the result moves by less
// than a slot when the tail moves within one, where the order statistic
// itself would sit on the same integer for every seed.
func slotQuantile(counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	var cum float64
	for d, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			return float64(d) + (target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(len(counts))
}

// checkerSelfTest feeds the ledger four corrupted delivery streams — one
// duplicate, one reordered pair, one frame on the wrong port, one missing
// frame — and the output-queued model a trace worked by hand. A checker
// that lets any of them pass makes the run fail before it measures.
func checkerSelfTest() error {
	// Three frames 1→0 (seqs 1,2,3) and one 0→1 (seq 4) on a 2-port
	// switch; the clean stream delivers each once, in order.
	offerAll := func(racy bool) *ledger {
		l := newLedger(2, 1, racy)
		l.offer(1, 0, 0, 1)
		l.offer(1, 0, 0, 2)
		l.offer(1, 0, 0, 3)
		l.offer(0, 1, 0, 4)
		return l
	}
	type delivery struct {
		port, src, dst int
		seq            uint64
	}
	run := func(l *ledger, ds []delivery) error {
		for _, d := range ds {
			if err := l.deliver(d.port, d.src, d.dst, 0, d.seq); err != nil {
				return err
			}
		}
		return l.finish()
	}
	clean := []delivery{{0, 1, 0, 1}, {1, 0, 1, 4}, {0, 1, 0, 2}, {0, 1, 0, 3}}
	bad := map[string][]delivery{
		"duplicate":  {{0, 1, 0, 1}, {1, 0, 1, 4}, {0, 1, 0, 2}, {0, 1, 0, 2}, {0, 1, 0, 3}},
		"reordered":  {{0, 1, 0, 2}, {0, 1, 0, 1}, {1, 0, 1, 4}, {0, 1, 0, 3}},
		"wrong port": {{0, 1, 0, 1}, {0, 0, 1, 4}, {0, 1, 0, 2}, {0, 1, 0, 3}},
		"missing":    {{0, 1, 0, 1}, {1, 0, 1, 4}, {0, 1, 0, 3}},
	}
	for _, racy := range []bool{false, true} {
		if err := run(offerAll(racy), clean); err != nil {
			return fmt.Errorf("checker self-test: clean stream rejected (racy refusals %v): %v", racy, err)
		}
		for name, ds := range bad {
			if run(offerAll(racy), ds) == nil {
				return fmt.Errorf("checker self-test: %s frame passed (racy refusals %v)", name, racy)
			}
		}
	}
	// A refusal that races a later delivery is legal only on ledgers that
	// allow it, and the overtaken frame must then be refused, not lost.
	l := offerAll(true)
	if err := l.deliver(0, 1, 0, 0, 2); err != nil {
		return fmt.Errorf("checker self-test: overtaking delivery rejected: %v", err)
	}
	if err := l.refuse(1); err != nil {
		return fmt.Errorf("checker self-test: late refusal rejected: %v", err)
	}
	if err := run(l, []delivery{{0, 1, 0, 3}, {1, 0, 1, 4}}); err != nil {
		return fmt.Errorf("checker self-test: refused-then-overtaken stream rejected: %v", err)
	}
	l = offerAll(true)
	if err := l.refuse(2); err != nil {
		return err
	}
	if run(l, []delivery{{0, 1, 0, 1}, {0, 1, 0, 2}, {0, 1, 0, 3}, {1, 0, 1, 4}}) == nil {
		return fmt.Errorf("checker self-test: frame both refused and delivered passed")
	}

	// Output-queued bound, worked by hand on two outputs:
	//   slot 0: three frames to output 0 → they depart in slots 0, 1, 2
	//   slot 1: one frame to each output → output 0's departs in slot 3
	//           (delay 2), output 1's in slot 1 (delay 0)
	// Delays 0+1+2+2+0 = 5 over five frames.
	o := newOQ(2)
	o.arrive(0)
	o.arrive(0)
	o.arrive(0)
	o.slot()
	o.arrive(0)
	o.arrive(1)
	for o.queued > 0 {
		o.slot()
	}
	if o.sum != 5 {
		return fmt.Errorf("checker self-test: output-queued delay sum %d on the hand-worked trace, want 5", o.sum)
	}
	return nil
}
