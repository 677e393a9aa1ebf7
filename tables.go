package stash

import (
	"fmt"
	"strings"

	"stash/internal/energy"
)

// Feature is one row of the paper's qualitative comparisons (Tables 1
// and 4).
type Feature struct {
	Name    string
	Benefit string
	// Support maps a design name to "yes", "no", or a qualified answer.
	Support map[string]string
}

// FeatureMatrix reproduces Table 1: the cache / scratchpad / stash
// feature comparison.
func FeatureMatrix() []Feature {
	row := func(name, benefit, cache, scratch, st string) Feature {
		return Feature{Name: name, Benefit: benefit, Support: map[string]string{
			"Cache": cache, "Scratchpad": scratch, "Stash": st,
		}}
	}
	return []Feature{
		row("Directly addressed", "No address translation hardware access",
			"no (if physically tagged)", "yes", "yes (on hits)"),
		row("Directly addressed", "No tag access", "no", "yes", "yes (on hits)"),
		row("Directly addressed", "No conflict misses", "no", "yes", "yes"),
		row("Compact storage", "Efficient use of SRAM storage", "no", "yes", "yes"),
		row("Global addressing", "Implicit data movement from/to structure", "yes", "no", "yes"),
		row("Global addressing", "No pollution of other memories", "yes", "no", "yes"),
		row("Global addressing", "On-demand loads into structures", "yes", "no", "yes"),
		row("Global visibility", "Lazy writebacks to global AS", "yes", "no", "yes"),
		row("Global visibility", "Reuse across compute kernels and application phases", "yes", "no", "yes"),
	}
}

// RelatedWorkMatrix reproduces Table 4: stash versus prior techniques.
func RelatedWorkMatrix() []Feature {
	row := func(name, benefit string, support ...string) Feature {
		designs := []string{"Bypass L1", "Change Data Layout", "Elide Tag", "Virtual Private Memories", "DMAs", "Stash"}
		m := make(map[string]string, len(designs))
		for i, d := range designs {
			m[d] = support[i]
		}
		return Feature{Name: name, Benefit: benefit, Support: m}
	}
	return []Feature{
		row("Directly addressed", "No address translation HW access", "yes", "no", "no/yes", "yes", "yes", "yes (on hits)"),
		row("Directly addressed", "No tag access", "yes", "no", "yes (on hits)", "no", "yes", "yes (on hits)"),
		row("Directly addressed", "No conflict misses", "yes", "no", "no", "yes", "yes", "yes"),
		row("Compact storage", "Efficient use of SRAM storage", "yes", "yes", "no", "yes", "yes", "yes"),
		row("Global addressing", "Implicit data movement", "no", "yes", "yes", "no", "no", "yes"),
		row("Global addressing", "No pollution of other memories", "yes", "yes", "yes", "yes", "yes", "yes"),
		row("Global addressing", "On-demand loads into structure", "no", "yes", "yes", "no", "no", "yes"),
		row("Global visibility", "Lazy writebacks to global AS", "no", "yes", "yes", "no", "no", "yes"),
		row("Global visibility", "Reuse across kernels or phases", "no", "yes", "yes", "partial", "no", "yes"),
		row("Applied to GPU", "", "yes", "no/yes", "no", "no/no/no/yes", "yes", "yes"),
	}
}

// RenderFeatures formats a feature matrix as an aligned text table with
// the given design-column order.
func RenderFeatures(rows []Feature, designs []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s", "Benefit")
	for _, d := range designs {
		fmt.Fprintf(&b, " | %-24s", d)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 52+27*len(designs)) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-52s", r.Benefit)
		for _, d := range designs {
			fmt.Fprintf(&b, " | %-24s", r.Support[d])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// AccessEnergy is one row of Table 3.
type AccessEnergy struct {
	Unit         string
	HitPJ        float64
	MissPJ       float64 // 0 when not applicable
	HasMissEntry bool
}

// AccessEnergies reproduces Table 3: per-access energy of the hardware
// units, as configured in the simulator's energy model.
func AccessEnergies() []AccessEnergy {
	c := energy.DefaultCosts()
	return []AccessEnergy{
		{Unit: "Scratchpad", HitPJ: c[energy.ScratchAccess]},
		{Unit: "Stash", HitPJ: c[energy.StashRead], MissPJ: c[energy.StashMiss], HasMissEntry: true},
		{Unit: "L1 cache", HitPJ: c[energy.L1ReadHit], MissPJ: c[energy.L1ReadMiss], HasMissEntry: true},
		{Unit: "TLB access", HitPJ: c[energy.TLBAccess], MissPJ: c[energy.TLBAccess], HasMissEntry: true},
	}
}
