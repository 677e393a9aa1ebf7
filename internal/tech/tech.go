// Package tech defines memory-technology profiles for design-space
// exploration, in the spirit of HOPE's STT-RAM architecture exploration
// and FUSE's STT-MRAM-in-GPU study: a Profile captures how an on-chip
// memory structure built in a given technology differs from the SRAM
// baseline in access latency (asymmetric read vs. write), per-access
// energy, and leakage.
//
// The SRAM profile is the identity: zero latency deltas and 1.0 energy
// scales leave the simulator's Table 3 baseline untouched. Non-SRAM
// profiles are illustrative composites of the values reported in the
// literature (see DESIGN.md section 16), chosen to exercise the
// qualitative tradeoffs — STT-MRAM's expensive writes vs. near-zero
// leakage, eDRAM's cheaper dynamic energy vs. slower access — not to
// model a specific foundry node.
package tech

import (
	"fmt"
	"sort"
)

// Profile describes one memory technology relative to the SRAM baseline.
// Latency deltas are in core clock cycles and are added on top of the
// structure's baseline access latency; energy scales multiply the
// structure's baseline per-access energy.
type Profile struct {
	// Name is the profile's registry key (e.g. "sram", "stt-mram").
	Name string

	// ReadLatDelta and WriteLatDelta are extra cycles per read/write
	// access relative to the SRAM baseline. Never negative.
	ReadLatDelta  int
	WriteLatDelta int

	// ReadEnergyScale and WriteEnergyScale multiply the baseline
	// per-access read/write energy. 1.0 means SRAM-equivalent.
	ReadEnergyScale  float64
	WriteEnergyScale float64

	// LeakageMWPerKB is static power in milliwatts per kilobyte of
	// capacity. Reported separately from dynamic energy (Result's
	// StaticEnergyPJ) so the golden dynamic-energy totals stay
	// comparable with the paper's stacks.
	LeakageMWPerKB float64
}

// profiles is the registry of named profiles. Values are illustrative
// mid-range points from the exploration literature:
//
//   - sram: the identity baseline (Table 3 / DefaultCosts as-is). The
//     leakage figure (~0.05 mW/KB) is in the range McPAT reports for
//     high-performance SRAM arrays at 32-45nm.
//   - stt-mram: reads near-SRAM (+1 cycle, slightly higher energy from
//     sense amps), writes much slower and costlier (+10 cycles, ~6x
//     energy), near-zero array leakage.
//   - edram: logic-process embedded DRAM; slightly slower than SRAM both
//     ways, lower dynamic energy, leakage between SRAM and STT-MRAM.
var profiles = map[string]Profile{
	"sram": {
		Name:             "sram",
		ReadEnergyScale:  1.0,
		WriteEnergyScale: 1.0,
		LeakageMWPerKB:   0.050,
	},
	"stt-mram": {
		Name:             "stt-mram",
		ReadLatDelta:     1,
		WriteLatDelta:    10,
		ReadEnergyScale:  1.3,
		WriteEnergyScale: 6.0,
		LeakageMWPerKB:   0.002,
	},
	"edram": {
		Name:             "edram",
		ReadLatDelta:     2,
		WriteLatDelta:    2,
		ReadEnergyScale:  0.7,
		WriteEnergyScale: 0.7,
		LeakageMWPerKB:   0.010,
	},
}

// Lookup returns the named profile. The name must be one of Names.
func Lookup(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("tech: unknown profile %q (have %v)", name, Names())
	}
	return p, nil
}

// Names returns the registered profile names in sorted order.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks a profile's parameters for physical plausibility.
func (p Profile) Validate() error {
	if p.ReadLatDelta < 0 || p.WriteLatDelta < 0 {
		return fmt.Errorf("tech: profile %q: latency deltas must be >= 0", p.Name)
	}
	if p.ReadEnergyScale < 0 || p.WriteEnergyScale < 0 {
		return fmt.Errorf("tech: profile %q: energy scales must be >= 0", p.Name)
	}
	if p.LeakageMWPerKB < 0 {
		return fmt.Errorf("tech: profile %q: leakage must be >= 0", p.Name)
	}
	return nil
}

// IsIdentity reports whether the profile changes nothing relative to the
// SRAM baseline's timing and dynamic energy (leakage may still differ:
// it is reported separately and does not affect golden metrics).
func (p Profile) IsIdentity() bool {
	return p.ReadLatDelta == 0 && p.WriteLatDelta == 0 &&
		p.ReadEnergyScale == 1.0 && p.WriteEnergyScale == 1.0
}

// ClockHz is the modeled core clock (Table 2: 700 MHz), used to convert
// leakage power into per-cycle static energy.
const ClockHz = 700e6

// StaticPJPerCycle converts a total leakage power in milliwatts into
// picojoules consumed per simulated cycle at ClockHz.
//
//	mW * 1e9 pJ/s / ClockHz cycles/s
func StaticPJPerCycle(mw float64) float64 {
	return mw * 1e9 / ClockHz
}
