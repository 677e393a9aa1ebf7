package tech

import (
	"math"
	"testing"
)

func TestNamesSortedAndLookupable(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 profiles, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	for _, n := range names {
		p, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if p.Name != n {
			t.Fatalf("profile %q has Name %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("registered profile %q invalid: %v", n, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("unobtainium"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestSRAMIsIdentity(t *testing.T) {
	p, err := Lookup("sram")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsIdentity() {
		t.Fatalf("sram profile must be the identity baseline: %+v", p)
	}
}

func TestNonDefaultProfilesAreNotIdentity(t *testing.T) {
	for _, n := range []string{"stt-mram", "edram"} {
		p, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsIdentity() {
			t.Fatalf("%s must differ from the SRAM baseline", n)
		}
	}
}

func TestSTTMRAMAsymmetry(t *testing.T) {
	p, _ := Lookup("stt-mram")
	if p.WriteLatDelta <= p.ReadLatDelta {
		t.Fatalf("STT-MRAM writes must be slower than reads: %+v", p)
	}
	if p.WriteEnergyScale <= p.ReadEnergyScale {
		t.Fatalf("STT-MRAM writes must cost more than reads: %+v", p)
	}
	sram, _ := Lookup("sram")
	if p.LeakageMWPerKB >= sram.LeakageMWPerKB {
		t.Fatalf("STT-MRAM leakage must be below SRAM: %v >= %v",
			p.LeakageMWPerKB, sram.LeakageMWPerKB)
	}
}

func TestValidateRejectsNegatives(t *testing.T) {
	cases := []Profile{
		{Name: "bad", ReadLatDelta: -1, ReadEnergyScale: 1, WriteEnergyScale: 1},
		{Name: "bad", WriteLatDelta: -2, ReadEnergyScale: 1, WriteEnergyScale: 1},
		{Name: "bad", ReadEnergyScale: -0.5, WriteEnergyScale: 1},
		{Name: "bad", ReadEnergyScale: 1, WriteEnergyScale: -1},
		{Name: "bad", ReadEnergyScale: 1, WriteEnergyScale: 1, LeakageMWPerKB: -1},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestStaticPJPerCycle(t *testing.T) {
	// 0.7 mW at 700 MHz is exactly 1 pJ/cycle.
	if got := StaticPJPerCycle(0.7); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("StaticPJPerCycle(0.7) = %v, want 1.0", got)
	}
	if got := StaticPJPerCycle(0); got != 0 {
		t.Fatalf("StaticPJPerCycle(0) = %v, want 0", got)
	}
}
