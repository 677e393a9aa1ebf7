package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"

	"stash"
)

// goldenPath is the repository's pinned per-cell metrics table, read
// from the checkout the benchmark runs in.
const goldenPath = "testdata/golden.json"

// goldenEntry is one row of testdata/golden.json.
type goldenEntry struct {
	Workload     string            `json:"workload"`
	Org          string            `json:"org"`
	Cycles       uint64            `json:"cycles"`
	EnergyPJ     float64           `json:"energy_pj"`
	Instructions uint64            `json:"instructions"`
	FlitHops     map[string]uint64 `json:"flit_hops"`
}

// loadGolden returns the golden entry of every spec, in spec order.
func loadGolden(specs []stash.RunSpec) ([]goldenEntry, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden table: %w", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	byCell := make(map[string]goldenEntry, len(entries))
	for _, e := range entries {
		byCell[e.Workload+"/"+e.Org] = e
	}
	out := make([]goldenEntry, len(specs))
	for i, s := range specs {
		e, ok := byCell[s.String()]
		if !ok {
			return nil, fmt.Errorf("%s has no entry in %s", s, goldenPath)
		}
		out[i] = e
	}
	return out, nil
}

// check reports how r differs from the golden entry, if it does.
func (g goldenEntry) check(r stash.Result) error {
	switch {
	case r.Cycles != g.Cycles:
		return fmt.Errorf("cycles %d, golden %d", r.Cycles, g.Cycles)
	case r.EnergyPJ != g.EnergyPJ:
		return fmt.Errorf("energy %v pJ, golden %v", r.EnergyPJ, g.EnergyPJ)
	case r.GPUInstructions != g.Instructions:
		return fmt.Errorf("GPU instructions %d, golden %d", r.GPUInstructions, g.Instructions)
	case !maps.Equal(r.FlitHops, g.FlitHops):
		return fmt.Errorf("flit hops %v, golden %v", r.FlitHops, g.FlitHops)
	}
	return nil
}
