package stash

import (
	"reflect"
	"strings"
	"testing"
)

// TestTechFingerprintsUnchangedWithoutTechAxes pins the fingerprints of
// cells spanning both machine shapes and several organizations, first
// captured immediately before the technology axes were added to Config
// and repinned at each fingerprintVersion bump since (now
// stash-cell-v5). Absent (nil) tech fields must keep every pre-existing
// cell-cache entry valid, so these hashes must never move without a
// fingerprintVersion bump.
func TestTechFingerprintsUnchangedWithoutTechAxes(t *testing.T) {
	chunk4 := AppConfig(Scratch)
	chunk4.ChunkWords = 4
	for _, tc := range []struct {
		name string
		spec RunSpec
		want string
	}{
		{"implicit/MicroConfig(Stash)",
			RunSpec{Workload: "implicit", Config: MicroConfig(Stash)},
			"70423a9dcc0b7ba9a64cda600de87af0e68313288f20ffacc1d6470ab1d7077f"},
		{"lud/AppConfig(StashG)",
			RunSpec{Workload: "lud", Config: AppConfig(StashG)},
			"9b52d1c88232a9ab3b17c70b724428b5d503ef6c021d6e25ad13da5d8a15f113"},
		{"reuse/MicroConfig(Cache)",
			RunSpec{Workload: "reuse", Config: MicroConfig(Cache)},
			"53f80327684d1e6be9de2773e7b5c072bec8afbb3992c4c81bfb78a90af7a3b6"},
		{"sgemm/AppConfig(Scratch)+ChunkWords=4",
			RunSpec{Workload: "sgemm", Config: chunk4},
			"9e0cfaf4cebc4867d6d3d471c16cc9359fa5239acd1506bbd9865944616380d8"},
	} {
		fp, err := tc.spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fp != tc.want {
			t.Errorf("%s: fingerprint moved without any tech axis set:\n got %s\nwant %s\nAdding Config fields must not re-key existing cache entries.", tc.name, fp, tc.want)
		}
	}
}

// TestTechSpecFieldSensitivity mutates every TechSpec field on every
// axis and requires the fingerprint to move: two cells differing in any
// technology parameter must never alias in the cell cache.
func TestTechSpecFieldSensitivity(t *testing.T) {
	mk := func(edit func(*Config)) string {
		cfg := MicroConfig(Stash)
		cfg.StashTech = &TechSpec{Profile: "sram"}
		cfg.L1Tech = &TechSpec{Profile: "sram"}
		cfg.LLCTech = &TechSpec{Profile: "sram"}
		if edit != nil {
			edit(&cfg)
		}
		fp, err := (RunSpec{Workload: "implicit", Config: cfg}).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	base := mk(nil)
	edits := map[string]func(*Config){
		"StashTech.Profile":          func(c *Config) { c.StashTech.Profile = "stt-mram" },
		"StashTech.ReadLatDelta":     func(c *Config) { c.StashTech.ReadLatDelta = 3 },
		"StashTech.WriteLatDelta":    func(c *Config) { c.StashTech.WriteLatDelta = 5 },
		"StashTech.ReadEnergyScale":  func(c *Config) { c.StashTech.ReadEnergyScale = 1.5 },
		"StashTech.WriteEnergyScale": func(c *Config) { c.StashTech.WriteEnergyScale = 2.5 },
		"StashTech.LeakageMWPerKB":   func(c *Config) { c.StashTech.LeakageMWPerKB = 0.01 },
		"StashTech.CapacityKB":       func(c *Config) { c.StashTech.CapacityKB = 32 },
		"L1Tech.Profile":             func(c *Config) { c.L1Tech.Profile = "edram" },
		"L1Tech.CapacityKB":          func(c *Config) { c.L1Tech.CapacityKB = 64 },
		"LLCTech.Profile":            func(c *Config) { c.LLCTech.Profile = "edram" },
		"LLCTech.CapacityKB":         func(c *Config) { c.LLCTech.CapacityKB = 128 },
	}
	seen := map[string]string{base: "base"}
	for name, edit := range edits {
		fp := mk(edit)
		if fp == base {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutations %s and %s collided on fingerprint %s", name, prev, fp)
		}
		seen[fp] = name
	}
	// The same spec on different axes must also be distinct cells.
	onStash := mk(func(c *Config) { c.StashTech.Profile = "edram" })
	onL1 := mk(func(c *Config) { c.L1Tech.Profile = "edram" })
	if onStash == onL1 {
		t.Error("the same profile on StashTech vs L1Tech fingerprinted identically")
	}
}

func TestTechSpecValidation(t *testing.T) {
	valid := []Config{
		MicroConfig(Stash), // all axes nil
		func() Config {
			c := MicroConfig(Stash)
			c.StashTech = &TechSpec{} // empty spec = custom identity
			return c
		}(),
		func() Config {
			c := MicroConfig(Stash)
			c.StashTech = &TechSpec{Profile: "stt-mram", WriteLatDelta: 20}
			c.L1Tech = &TechSpec{ReadEnergyScale: 0.5, CapacityKB: 64}
			c.LLCTech = &TechSpec{Profile: "edram", CapacityKB: 256}
			return c
		}(),
		func() Config {
			// A tech axis for a structure the org lacks is accepted.
			c := MicroConfig(Cache)
			c.StashTech = &TechSpec{Profile: "stt-mram"}
			return c
		}(),
	}
	for i, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"unknown profile", func(c *Config) { c.StashTech = &TechSpec{Profile: "memristor"} }, "StashTech"},
		{"negative read scale", func(c *Config) { c.L1Tech = &TechSpec{ReadEnergyScale: -1} }, "L1Tech"},
		{"negative write delta", func(c *Config) { c.LLCTech = &TechSpec{WriteLatDelta: -2} }, "LLCTech"},
		{"huge lat delta", func(c *Config) { c.StashTech = &TechSpec{ReadLatDelta: 1 << 20} }, "StashTech"},
		{"huge energy scale", func(c *Config) { c.StashTech = &TechSpec{WriteEnergyScale: 1e9} }, "StashTech"},
		{"stash capacity too small", func(c *Config) { c.StashTech = &TechSpec{CapacityKB: 1} }, "StashTech"},
		{"l1 capacity too large", func(c *Config) { c.L1Tech = &TechSpec{CapacityKB: 1 << 20} }, "L1Tech"},
		{"negative capacity", func(c *Config) { c.LLCTech = &TechSpec{CapacityKB: -4} }, "LLCTech"},
	}
	for _, tc := range invalid {
		c := MicroConfig(Stash)
		tc.edit(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the offending axis %s", tc.name, err, tc.want)
		}
	}
}

// TestTechSRAMProfileKeepsMetrics runs every organization with and
// without an explicit "sram" profile on all three technology axes. A
// nil axis is plain SRAM, so cycles and every dynamic-energy figure
// must be identical; only the leakage report differs, which nil axes
// do not produce.
func TestTechSRAMProfileKeepsMetrics(t *testing.T) {
	for _, org := range Orgs() {
		base, err := RunWorkload("implicit", org)
		if err != nil {
			t.Fatal(err)
		}
		cfg := MicroConfig(org)
		cfg.StashTech = &TechSpec{Profile: "sram"}
		cfg.L1Tech = &TechSpec{Profile: "sram"}
		cfg.LLCTech = &TechSpec{Profile: "sram"}
		got, err := RunWorkloadCfg("implicit", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != base.Cycles {
			t.Errorf("%v: sram profile changed cycles: %d vs %d", org, got.Cycles, base.Cycles)
		}
		if got.EnergyPJ != base.EnergyPJ {
			t.Errorf("%v: sram profile changed energy: %v vs %v pJ", org, got.EnergyPJ, base.EnergyPJ)
		}
		if !reflect.DeepEqual(got.EnergyEvents, base.EnergyEvents) {
			t.Errorf("%v: sram profile changed energy events:\n got %v\nwant %v", org, got.EnergyEvents, base.EnergyEvents)
		}
		if !reflect.DeepEqual(got.EnergyByComponent, base.EnergyByComponent) {
			t.Errorf("%v: sram profile changed energy components:\n got %v\nwant %v", org, got.EnergyByComponent, base.EnergyByComponent)
		}
		if base.StaticEnergyPJ != 0 {
			t.Errorf("%v: nil tech axes reported leakage %v pJ", org, base.StaticEnergyPJ)
		}
		if got.StaticEnergyPJ == 0 {
			t.Errorf("%v: sram profile has nonzero leakage but StaticEnergyPJ is 0", org)
		}
	}
}

// TestTechSTTMRAMChangesMetrics pins the direction of the technology
// model: a write-penalized profile on the stash must cost cycles and
// change dynamic energy relative to the SRAM baseline.
func TestTechSTTMRAMChangesMetrics(t *testing.T) {
	base, err := RunWorkload("implicit", Stash)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MicroConfig(Stash)
	cfg.StashTech = &TechSpec{Profile: "stt-mram"}
	got, err := RunWorkloadCfg("implicit", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles <= base.Cycles {
		t.Errorf("stt-mram stash did not cost cycles: %d vs baseline %d", got.Cycles, base.Cycles)
	}
	if got.EnergyPJ == base.EnergyPJ {
		t.Error("stt-mram stash left dynamic energy bit-identical to SRAM")
	}
	if got.StaticEnergyPJ >= float64(got.Cycles)*0.05*16*1e9/700e6 {
		t.Error("stt-mram leakage should be far below an SRAM-leakage bound")
	}
}

func TestTechGridShape(t *testing.T) {
	specs, err := TechGrid([]string{"reuse"}, []MemOrg{Cache, Stash}, []string{"sram", "stt-mram"}, []int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	// Cache: one cell per tech (no stash capacity axis); Stash: tech x cap.
	if want := 2 + 2*2; len(specs) != want {
		t.Fatalf("grid has %d cells, want %d", len(specs), want)
	}
	for i, s := range specs {
		if err := s.Config.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
		if s.Config.L1Tech == nil || s.Config.L1Tech.Profile == "" {
			t.Errorf("cell %d missing explicit L1 profile", i)
		}
		if s.Config.LLCTech != nil {
			t.Errorf("cell %d set an LLC tech; the grid holds the LLC at baseline", i)
		}
	}
	// Stash cells carry the capacity axis.
	caps := map[int]bool{}
	for _, s := range specs {
		if s.Config.Org == Stash && s.Config.StashTech != nil {
			caps[s.Config.StashTech.CapacityKB] = true
		}
	}
	if !caps[16] || !caps[32] {
		t.Errorf("stash capacity axis not expanded: got %v", caps)
	}
	// Deterministic: same inputs, same specs.
	again, err := TechGrid([]string{"reuse"}, []MemOrg{Cache, Stash}, []string{"sram", "stt-mram"}, []int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		a, _ := specs[i].Fingerprint()
		b, _ := again[i].Fingerprint()
		if a != b {
			t.Fatalf("grid expansion not deterministic at cell %d", i)
		}
	}

	if _, err := TechGrid([]string{"reuse"}, []MemOrg{Cache}, []string{"unobtainium"}, nil); err == nil {
		t.Error("unknown technology accepted")
	}
	if _, err := TechGrid([]string{"reuse"}, []MemOrg{Cache}, nil, nil); err == nil {
		t.Error("empty technology list accepted")
	}
}

func TestLocalMemKB(t *testing.T) {
	if got := MicroConfig(Cache).LocalMemKB(); got != 32 {
		t.Errorf("Cache local mem = %d KB, want 32", got)
	}
	if got := MicroConfig(Stash).LocalMemKB(); got != 48 {
		t.Errorf("Stash local mem = %d KB, want 48", got)
	}
	c := MicroConfig(Stash)
	c.StashTech = &TechSpec{Profile: "stt-mram", CapacityKB: 64}
	c.L1Tech = &TechSpec{CapacityKB: 16}
	if got := c.LocalMemKB(); got != 80 {
		t.Errorf("overridden local mem = %d KB, want 80", got)
	}
}

func TestTechProfilesListed(t *testing.T) {
	names := TechProfiles()
	if len(names) < 3 {
		t.Fatalf("want at least sram/stt-mram/edram, got %v", names)
	}
	for _, want := range []string{"sram", "stt-mram", "edram"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("profile %s missing from TechProfiles(): %v", want, names)
		}
	}
}
