package stash

import (
	"fmt"

	"stash/internal/energy"
	"stash/internal/sim"
	"stash/internal/system"
	"stash/internal/tech"
)

// TechSpec selects a memory technology for one storage structure (the
// stash, the GPU L1s, or the LLC), as a named profile, inline parameter
// overrides, or both. A nil *TechSpec field on Config is plain SRAM: it
// simulates exactly as an explicit "sram" profile does, reports no
// leakage, and leaves the configuration's cell-cache fingerprint as it
// was before the technology axes existed. The zero-valued spec is the
// same identity under the name "custom".
//
// Other specs change cycle counts and energy through asymmetric
// read/write latency deltas and energy scales; their expected metrics
// are pinned by testdata/golden_tech.json.
type TechSpec struct {
	// Profile names a registered technology profile ("sram", "stt-mram",
	// "edram") supplying the baseline parameters. Empty starts from a
	// neutral custom profile (zero deltas, 1.0 scales, zero leakage).
	Profile string `json:"profile,omitempty"`
	// ReadLatDelta and WriteLatDelta override the profile's extra cycles
	// per read/write access when nonzero.
	ReadLatDelta  int `json:"read_lat_delta,omitempty"`
	WriteLatDelta int `json:"write_lat_delta,omitempty"`
	// ReadEnergyScale and WriteEnergyScale override the profile's
	// per-access energy multipliers when nonzero (1.0 = SRAM-equivalent).
	ReadEnergyScale  float64 `json:"read_energy_scale,omitempty"`
	WriteEnergyScale float64 `json:"write_energy_scale,omitempty"`
	// LeakageMWPerKB overrides the profile's static power per kilobyte
	// of capacity when nonzero. Leakage is reported separately
	// (Result.StaticEnergyPJ), never mixed into the dynamic EnergyPJ.
	LeakageMWPerKB float64 `json:"leakage_mw_per_kb,omitempty"`
	// CapacityKB resizes the structure when nonzero: the stash size, the
	// L1 size (every L1 instance), or the per-bank LLC size. Technology
	// latency/energy deltas apply to the GPU-side instances the energy
	// model measures; a capacity override is a structural change and
	// applies to every instance.
	CapacityKB int `json:"capacity_kb,omitempty"`
}

// Bounds on inline overrides: far beyond any published technology, so
// they only reject mis-specifications (e.g. a latency that would
// dominate every run and trip the watchdog).
const (
	maxTechLatDelta   = 1024
	maxTechScale      = 1024.0
	maxTechLeakage    = 1024.0 // mW/KB
	maxTechCapacityKB = 1 << 16
)

// resolve merges the named profile with the inline overrides and
// validates the effective parameters.
func (t *TechSpec) resolve() (tech.Profile, error) {
	p := tech.Profile{Name: "custom", ReadEnergyScale: 1, WriteEnergyScale: 1}
	if t.Profile != "" {
		var err error
		if p, err = tech.Lookup(t.Profile); err != nil {
			return tech.Profile{}, err
		}
	}
	if t.ReadLatDelta != 0 {
		p.ReadLatDelta = t.ReadLatDelta
	}
	if t.WriteLatDelta != 0 {
		p.WriteLatDelta = t.WriteLatDelta
	}
	if t.ReadEnergyScale != 0 {
		p.ReadEnergyScale = t.ReadEnergyScale
	}
	if t.WriteEnergyScale != 0 {
		p.WriteEnergyScale = t.WriteEnergyScale
	}
	if t.LeakageMWPerKB != 0 {
		p.LeakageMWPerKB = t.LeakageMWPerKB
	}
	if err := p.Validate(); err != nil {
		return tech.Profile{}, err
	}
	if p.ReadLatDelta > maxTechLatDelta || p.WriteLatDelta > maxTechLatDelta {
		return tech.Profile{}, fmt.Errorf("latency deltas must be at most %d cycles", maxTechLatDelta)
	}
	if p.ReadEnergyScale <= 0 || p.WriteEnergyScale <= 0 {
		return tech.Profile{}, fmt.Errorf("energy scales must be positive")
	}
	if p.ReadEnergyScale > maxTechScale || p.WriteEnergyScale > maxTechScale {
		return tech.Profile{}, fmt.Errorf("energy scales must be at most %g", maxTechScale)
	}
	if p.LeakageMWPerKB > maxTechLeakage {
		return tech.Profile{}, fmt.Errorf("leakage must be at most %g mW/KB", maxTechLeakage)
	}
	return p, nil
}

// validate reports whether the spec is usable on the named axis.
// minCapacityKB is the smallest structurally valid size (the structure
// must still hold at least one set/chunk at its associativity).
func (t *TechSpec) validate(axis string, minCapacityKB int) error {
	if t == nil {
		return nil
	}
	if _, err := t.resolve(); err != nil {
		return fmt.Errorf("stash: invalid %s: %w", axis, err)
	}
	if t.CapacityKB != 0 && (t.CapacityKB < minCapacityKB || t.CapacityKB > maxTechCapacityKB) {
		return fmt.Errorf("stash: invalid %s: CapacityKB %d out of range [%d, %d]",
			axis, t.CapacityKB, minCapacityKB, maxTechCapacityKB)
	}
	return nil
}

// Minimum structurally valid capacities: the L1 (8-way) and the
// per-bank LLC (16-way) need at least one full set of 64 B lines; the
// stash needs at least one 64 B writeback chunk per bank.
const (
	minL1CapacityKB    = 1
	minLLCCapacityKB   = 1
	minStashCapacityKB = 2
)

// validateTech checks all three technology axes.
func (c Config) validateTech() error {
	if err := c.StashTech.validate("StashTech", minStashCapacityKB); err != nil {
		return err
	}
	if err := c.L1Tech.validate("L1Tech", minL1CapacityKB); err != nil {
		return err
	}
	return c.LLCTech.validate("LLCTech", minLLCCapacityKB)
}

// applyTech lowers the technology axes onto the simulator config:
// latency extras on the structure parameters, read and write cost
// scaling on the cost table, capacity overrides, and per-cycle leakage
// for the static-energy report. Validate has already accepted the specs.
func (c Config) applyTech(cfg *system.Config) {
	if t := c.StashTech; t != nil {
		p, _ := t.resolve()
		if t.CapacityKB != 0 {
			cfg.Stash.SizeBytes = t.CapacityKB << 10
		}
		cfg.Stash.ReadExtra = sim.Cycle(p.ReadLatDelta)
		cfg.Stash.WriteExtra = sim.Cycle(p.WriteLatDelta)
		cfg.Costs[energy.StashRead] *= p.ReadEnergyScale
		cfg.Costs[energy.StashWrite] *= p.WriteEnergyScale
		if c.Org.internal().HasStash() {
			kb := float64(cfg.Stash.SizeBytes) / 1024
			cfg.Static.StashPJPerCycle = tech.StaticPJPerCycle(p.LeakageMWPerKB*kb) * float64(c.GPUs)
		}
	}
	if t := c.L1Tech; t != nil {
		p, _ := t.resolve()
		if t.CapacityKB != 0 {
			cfg.L1.SizeBytes = t.CapacityKB << 10
		}
		cfg.L1.ReadExtra = sim.Cycle(p.ReadLatDelta)
		cfg.L1.WriteExtra = sim.Cycle(p.WriteLatDelta)
		cfg.Costs[energy.L1ReadHit] *= p.ReadEnergyScale
		cfg.Costs[energy.L1ReadMiss] *= p.ReadEnergyScale
		cfg.Costs[energy.L1WriteHit] *= p.WriteEnergyScale
		cfg.Costs[energy.L1WriteMiss] *= p.WriteEnergyScale
		// Leakage covers the GPU-side L1s the energy model measures
		// (system.New strips the tech parameters off CPU L1s).
		kb := float64(cfg.L1.SizeBytes) / 1024
		cfg.Static.L1PJPerCycle = tech.StaticPJPerCycle(p.LeakageMWPerKB*kb) * float64(c.GPUs)
	}
	if t := c.LLCTech; t != nil {
		p, _ := t.resolve()
		if t.CapacityKB != 0 {
			cfg.L2.BankBytes = t.CapacityKB << 10
		}
		cfg.L2.ReadExtra = sim.Cycle(p.ReadLatDelta)
		cfg.L2.WriteExtra = sim.Cycle(p.WriteLatDelta)
		cfg.Costs[energy.L2Read] *= p.ReadEnergyScale
		cfg.Costs[energy.L2Write] *= p.WriteEnergyScale
		kb := float64(cfg.L2.BankBytes) / 1024
		cfg.Static.LLCPJPerCycle = tech.StaticPJPerCycle(p.LeakageMWPerKB*kb) * float64(cfg.L2.NumBanks)
	}
}

// TechProfiles lists the registered technology profile names usable in
// TechSpec.Profile, in sorted order.
func TechProfiles() []string { return tech.Names() }

// LocalMemKB returns the per-CU local storage capacity the
// configuration provides (stash or scratchpad plus L1), in kilobytes —
// the capacity axis of a Pareto-frontier exploration. It reflects
// technology capacity overrides; invalid configurations report the
// defaults.
func (c Config) LocalMemKB() int {
	l1 := 32
	if c.L1Tech != nil && c.L1Tech.CapacityKB != 0 {
		l1 = c.L1Tech.CapacityKB
	}
	local := 0
	switch c.Org {
	case Scratch, ScratchG, ScratchGD:
		local = 16 // scratchpad (no technology axis yet)
	case Stash, StashG:
		local = 16
		if c.StashTech != nil && c.StashTech.CapacityKB != 0 {
			local = c.StashTech.CapacityKB
		}
	}
	return local + l1
}

// TechGrid crosses workloads x organizations x technology profiles x
// stash capacity points into sweep RunSpecs — the design-space grids of
// a HOPE-style exploration. Every cell carries an explicit profile on
// the stash (where the organization has one) and the GPU L1 axes, so
// every cell reports those structures' leakage (a nil axis reports
// none); the LLC stays at the shared SRAM baseline.
// Organizations without a stash ignore the capacity axis (one cell per
// technology instead of one per capacity point), so the grid never
// contains duplicate cells. The spec order is deterministic: row-major
// in (workload, org, tech, capacity).
func TechGrid(workloads []string, orgs []MemOrg, techs []string, capsKB []int) ([]RunSpec, error) {
	if len(techs) == 0 {
		return nil, fmt.Errorf("stash: TechGrid needs at least one technology profile")
	}
	if len(capsKB) == 0 {
		capsKB = []int{16}
	}
	var specs []RunSpec
	for _, w := range workloads {
		for _, o := range orgs {
			for _, tn := range techs {
				if _, err := tech.Lookup(tn); err != nil {
					return nil, fmt.Errorf("stash: TechGrid: %w", err)
				}
				base := configFor(w, o)
				base.L1Tech = &TechSpec{Profile: tn}
				if !o.internal().HasStash() {
					if err := base.Validate(); err != nil {
						return nil, err
					}
					specs = append(specs, RunSpec{Workload: w, Config: base})
					continue
				}
				for _, kb := range capsKB {
					cfg := base
					cfg.StashTech = &TechSpec{Profile: tn, CapacityKB: kb}
					if err := cfg.Validate(); err != nil {
						return nil, err
					}
					specs = append(specs, RunSpec{Workload: w, Config: cfg})
				}
			}
		}
	}
	return specs, nil
}
