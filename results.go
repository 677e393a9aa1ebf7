package stash

import (
	"fmt"
	"sort"
	"strings"

	"stash/internal/energy"
	"stash/internal/system"
)

// Result holds one simulation's measurements: the quantities plotted in
// the paper's Figures 5 and 6.
type Result struct {
	// Cycles is execution time in GPU cycles (Figures 5a, 6a).
	Cycles uint64
	// EnergyPJ is total dynamic energy in picojoules (Figures 5b, 6b).
	EnergyPJ float64
	// EnergyByComponent breaks EnergyPJ into the paper's stacked-bar
	// components: "GPU core+", "L1 D$", "Scratch/Stash", "L2 $", "N/W".
	EnergyByComponent map[string]float64
	// GPUInstructions counts dynamic GPU instructions (Figure 5c).
	GPUInstructions uint64
	// FlitHops counts network flit-crossings by class: "read", "write",
	// "writeback" (Figure 5d).
	FlitHops map[string]uint64
	// Counters is the full raw counter snapshot for deeper analysis.
	Counters map[string]uint64
	// EnergyEvents counts the energy-model events that occurred, keyed
	// by event name (e.g. "l1_read_hit", "stash_write"). Multiplying
	// each by its configured per-access cost reproduces EnergyPJ
	// exactly, so a consumer can re-price a run under different cost
	// tables without re-simulating. Zero-count events are omitted.
	EnergyEvents map[string]uint64
	// StaticEnergyPJ is leakage energy over the run (leakage power x
	// elapsed cycles), reported only when a technology profile with
	// nonzero leakage is configured. It is deliberately NOT included in
	// EnergyPJ: the paper's dynamic-energy stacks stay comparable, and
	// design-space tooling adds the two when ranking total energy.
	StaticEnergyPJ float64 `json:",omitempty"`
	// StaticByStructure breaks StaticEnergyPJ into the profiled
	// structure groups ("Scratch/Stash", "L1 D$", "L2 $").
	StaticByStructure map[string]float64 `json:",omitempty"`
	// Timeline is the run's event trace, non-nil exactly when the
	// Config's Trace was set. Failed runs carry the partial timeline up
	// to the failure. Its JSON form is a compact summary; write the
	// full trace with Timeline.WriteChrome.
	Timeline *Timeline `json:",omitempty"`
}

func measure(s *system.System) Result {
	r := Result{
		Cycles:            uint64(s.Cycles()),
		EnergyPJ:          s.Acct.TotalPJ(),
		EnergyByComponent: make(map[string]float64),
		FlitHops:          make(map[string]uint64),
		Counters:          s.Stats.Snapshot(),
		EnergyEvents:      s.Acct.NonzeroCounts(),
	}
	if st := s.Cfg.Static; st.Any() {
		cycles := float64(r.Cycles)
		r.StaticByStructure = make(map[string]float64)
		for _, part := range []struct {
			name string
			pj   float64
		}{
			{energy.ScratchStash.String(), st.StashPJPerCycle},
			{energy.L1.String(), st.L1PJPerCycle},
			{energy.L2.String(), st.LLCPJPerCycle},
		} {
			if part.pj == 0 {
				continue
			}
			e := part.pj * cycles
			r.StaticByStructure[part.name] = e
			r.StaticEnergyPJ += e
		}
	}
	for c := energy.Component(0); c < energy.NumComponents; c++ {
		if pj := s.Acct.ComponentPJ(c); pj != 0 || c < energy.DRAM {
			r.EnergyByComponent[c.String()] = pj
		}
	}
	for name, v := range r.Counters {
		if strings.HasPrefix(name, "cu.") && strings.HasSuffix(name, ".instructions") {
			r.GPUInstructions += v
		}
	}
	for _, class := range []string{"read", "write", "writeback"} {
		r.FlitHops[class] = s.Stats.Sum("noc.flit_hops." + class)
	}
	if tl := s.FinishTrace(); tl != nil {
		r.Timeline = &Timeline{tl: tl}
	}
	return r
}

// TotalFlitHops sums the network traffic across classes.
func (r Result) TotalFlitHops() uint64 {
	var t uint64
	for _, v := range r.FlitHops {
		t += v
	}
	return t
}

// String renders the headline metrics.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d energy=%.1fnJ instructions=%d flit-hops=%d\n",
		r.Cycles, r.EnergyPJ/1e3, r.GPUInstructions, r.TotalFlitHops())
	comps := make([]string, 0, len(r.EnergyByComponent))
	for c := range r.EnergyByComponent {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(&b, "  %-14s %12.1f pJ\n", c, r.EnergyByComponent[c])
	}
	return b.String()
}

// Normalized expresses this result relative to a baseline, as the
// paper's figures do (1.0 = baseline).
type Normalized struct {
	Cycles, Energy, Instructions, Traffic float64
}

// NormalizeTo divides r's metrics by the baseline's.
func (r Result) NormalizeTo(base Result) Normalized {
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	n := Normalized{
		Cycles:       frac(r.Cycles, base.Cycles),
		Instructions: frac(r.GPUInstructions, base.GPUInstructions),
		Traffic:      frac(r.TotalFlitHops(), base.TotalFlitHops()),
	}
	if base.EnergyPJ != 0 {
		n.Energy = r.EnergyPJ / base.EnergyPJ
	}
	return n
}
