package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestCheckerSelfTest(t *testing.T) {
	if err := checkerSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, same units, same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
}

func TestSlotQuantile(t *testing.T) {
	// Ten frames: four at delay 0, six at delay 1. The median falls one
	// sixth of the way into slot 1; the 40th percentile ends slot 0.
	counts := []int64{4, 6}
	for _, c := range []struct{ q, want float64 }{{0.4, 1}, {0.5, 1 + 1.0/6}, {1, 2}} {
		if got := slotQuantile(counts, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("slotQuantile(%v, %v) = %v, want %v", counts, c.q, got, c.want)
		}
	}
}
