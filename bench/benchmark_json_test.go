package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloadRunners {
		ours = append(ours, name)
	}
	slices.Sort(names)
	slices.Sort(ours)
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	for _, tc := range []struct {
		list string
		decl []metric
		defs []metricDef
	}{
		{"end_to_end", decl.EndToEnd, endToEnd},
		{"per_layer", decl.PerLayer, perLayer},
	} {
		var want []metric
		for _, d := range tc.defs {
			want = append(want, metric{d.name, d.unit})
		}
		if !slices.Equal(tc.decl, want) {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", tc.list, tc.decl, want)
		}
	}
}
