package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// exactly the workloads, reasons and metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(e2eKeys) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(doc.EndToEnd), len(e2eKeys))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != e2eKeys[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %q, the command %q", i, m.Name, e2eKeys[i])
		}
	}
	if len(doc.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(doc.PerLayer), len(layerTable))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layerTable[i].name || m.Unit != layerTable[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the command %s [%s]",
				i, m.Name, m.Unit, layerTable[i].name, layerTable[i].unit)
		}
	}
}

// TestCovered checks the interval union behind per-layer self times.
func TestCovered(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := covered(ivs, 8, 45); got != 7+10+5 {
		t.Errorf("covered = %d, want 22", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

// TestCombine checks how launches combine: the median of a time or a rate,
// the sum of a count.
func TestCombine(t *testing.T) {
	var launches [][]figure
	for i := 1; i <= 5; i++ {
		launches = append(launches, []figure{
			{name: "t", unit: "us", value: float64(i)},
			{name: "r", unit: "1/s", value: float64(i)},
			{name: "n", unit: "count", value: float64(i)},
		})
	}
	got := combine(launches)
	if got[0].value != 3 || got[1].value != 3 || got[2].value != 15 {
		t.Errorf("combine = %v, want t=3 r=3 n=15", got)
	}
}

// TestAtPace checks that a launch's times scale by paceRef/pace, its rates
// by the inverse, and its counts not at all.
func TestAtPace(t *testing.T) {
	fs := []figure{
		{name: "t", unit: "us", value: 2},
		{name: "s", unit: "s", value: 2},
		{name: "r", unit: "1/s", value: 2},
		{name: "b", unit: "MB/s", value: 2},
		{name: "n", unit: "count", value: 2},
	}
	got := atPace(fs, 2*paceRef)
	want := []float64{1, 1, 4, 4, 2}
	for i, f := range got {
		if f.value != want[i] {
			t.Errorf("atPace %s = %v, want %v", f.name, f.value, want[i])
		}
	}
	if fs[0].value != 2 {
		t.Errorf("atPace changed its input")
	}
}
