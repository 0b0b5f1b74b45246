package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// spanLog keeps the spans of a traced run in memory — name, start, end
// and the span that caused it — and writes them out when the run ends.
// Spans are recorded from the benchmark's own code around its calls into
// each layer's public functions. The log keeps the first spanCap spans; the
// per-layer totals (layerTimer) count every call.
//
// A nil *spanLog records nothing, so untraced runs pay one nil check.
type spanLog struct {
	t0    time.Time
	next  atomic.Int64
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"` // index of the causing span, -1 for a root
}

// spanCap bounds the spans a traced run keeps: enough for the first few
// thousand slots of an engine run, a few MB on disk.
const spanCap = 50000

func newSpanLog(t0 time.Time) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, spanCap)}
}

// reserve claims the index of a span that will cause others, so its
// children can name it before it ends; fill records it. It returns -1
// once the log is full. Safe for concurrent use.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return -1
	}
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		return -1
	}
	return i
}

func (l *spanLog) fill(i int64, name string, start, end time.Time, parent int64) {
	if i < 0 {
		return
	}
	l.spans[i] = span{Name: name, Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(), Parent: parent}
}

// add records a span that causes no others.
func (l *spanLog) add(name string, start, end time.Time, parent int64) {
	l.fill(l.reserve(), name, start, end, parent)
}

// write stores the recorded spans as JSON lines, one span per line with
// its index as "id".
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(l.next.Load(), int64(len(l.spans)))
	for i := int64(0); i < n; i++ {
		rec := struct {
			ID int64 `json:"id"`
			span
		}{i, l.spans[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimer totals the wall time and calls spent in one layer. Each
// goroutine owns its timers; merge them after the goroutines end.
type layerTimer struct {
	ns, calls int64
}

func (t *layerTimer) add(start, end time.Time) {
	t.ns += end.Sub(start).Nanoseconds()
	t.calls++
}

func (t *layerTimer) merge(o layerTimer) { t.ns += o.ns; t.calls += o.calls }

// perCall is the mean nanoseconds per call, 0 when the layer was never
// called on this workload.
func (t layerTimer) perCall() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls)
}

func spanPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
