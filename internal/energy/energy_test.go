package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCostsMatchPaperTable3(t *testing.T) {
	c := DefaultCosts()
	// Paper Table 3 values, exactly. Table 3 gives one hit energy per
	// array; for SRAM a read and a write both cost it.
	cases := []struct {
		e    Event
		want float64
	}{
		{ScratchAccess, 55.3},
		{StashRead, 55.4},
		{StashWrite, 55.4},
		{StashMiss, 86.8},
		{L1ReadHit, 177.0},
		{L1WriteHit, 177.0},
		{L1ReadMiss, 197.0},
		{L1WriteMiss, 197.0},
		{TLBAccess, 14.1},
	}
	for _, tc := range cases {
		if c[tc.e] != tc.want {
			t.Errorf("cost[%v] = %v, want %v (paper Table 3)", tc.e, c[tc.e], tc.want)
		}
	}
}

func TestPaperEnergyRelations(t *testing.T) {
	c := DefaultCosts()
	// "scratchpad access energy is 29% of the L1 cache hit energy"
	if r := c[ScratchAccess] / c[L1ReadHit]; math.Abs(r-0.31) > 0.03 {
		t.Errorf("scratch/L1 hit ratio = %.2f, want ~0.31 (paper: 29%% incl. TLB)", r)
	}
	// "stash's miss energy is 41% of the L1 cache miss energy"
	if r := c[StashMiss] / c[L1ReadMiss]; math.Abs(r-0.44) > 0.04 {
		t.Errorf("stash miss/L1 miss ratio = %.2f, want ~0.44", r)
	}
	// "Stash's hit energy is comparable to that of scratchpad."
	if math.Abs(c[StashRead]-c[ScratchAccess]) > 1.0 {
		t.Errorf("stash hit %.1f vs scratch %.1f: not comparable", c[StashRead], c[ScratchAccess])
	}
}

// unitCosts prices every event class at 1 pJ, so each component's
// energy is the count of its events, DRAM included (Table 3 prices
// DRAM at 0).
func unitCosts() Costs {
	var c Costs
	for e := range c {
		c[e] = 1
	}
	return c
}

// TestEventComponentMapping charges one event of each class and checks
// that ComponentPJ puts it in its figure component and nowhere else.
func TestEventComponentMapping(t *testing.T) {
	cases := map[Event]Component{
		GPUInst:       GPUCore,
		L1ReadHit:     L1,
		L1WriteHit:    L1,
		L1ReadMiss:    L1,
		L1WriteMiss:   L1,
		TLBAccess:     L1,
		ScratchAccess: ScratchStash,
		StashRead:     ScratchStash,
		StashWrite:    ScratchStash,
		StashMiss:     ScratchStash,
		L2Read:        L2,
		L2Write:       L2,
		NoCFlitHop:    NoC,
		DRAMAccess:    DRAM,
	}
	if len(cases) != int(numEvents) {
		t.Fatalf("table covers %d of %d events", len(cases), numEvents)
	}
	for e, comp := range cases {
		a := NewAccount(unitCosts())
		a.Add(e, 1)
		for c := Component(0); c < NumComponents; c++ {
			want := 0.0
			if c == comp {
				want = 1
			}
			if got := a.ComponentPJ(c); got != want {
				t.Errorf("%v: ComponentPJ(%v) = %v, want %v", e, c, got, want)
			}
		}
	}
}

func TestAccountAccumulation(t *testing.T) {
	a := NewAccount(DefaultCosts())
	a.Add(StashRead, 10)
	a.Add(StashMiss, 2)
	if a.Count(StashRead) != 10 {
		t.Fatalf("Count = %d, want 10", a.Count(StashRead))
	}
	want := 10*55.4 + 2*86.8
	if got := a.TotalPJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalPJ = %v, want %v", got, want)
	}
	if got := a.ComponentPJ(ScratchStash); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ComponentPJ(ScratchStash) = %v, want %v", got, want)
	}
	if got := a.ComponentPJ(L2); got != 0 {
		t.Fatalf("ComponentPJ(L2) = %v, want 0", got)
	}
}

// Property: the per-component energies always sum to the total.
func TestBreakdownSumsToTotalProperty(t *testing.T) {
	f := func(counts [numEvents]uint16) bool {
		a := NewAccount(unitCosts())
		for e := Event(0); e < numEvents; e++ {
			a.Add(e, uint64(counts[e]))
		}
		var sum float64
		for c := Component(0); c < NumComponents; c++ {
			sum += a.ComponentPJ(c)
		}
		return math.Abs(sum-a.TotalPJ()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventAndComponentNames(t *testing.T) {
	if StashRead.String() != "stash_read" {
		t.Errorf("StashRead.String() = %q", StashRead.String())
	}
	if ScratchStash.String() != "Scratch/Stash" {
		t.Errorf("ScratchStash.String() = %q", ScratchStash.String())
	}
	seen := map[string]Event{}
	for e := Event(0); e < numEvents; e++ {
		name := e.String()
		if name == "" {
			t.Errorf("event %d has no name", e)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("events %d and %d share the name %q", prev, e, name)
		}
		seen[name] = e
	}
}

// TestAccountCustomCosts prices the same counts under a non-default,
// write-asymmetric cost table (an STT-MRAM-like technology) and checks
// total, per-component attribution, and that untouched classes keep
// their Table 3 pricing.
func TestAccountCustomCosts(t *testing.T) {
	costs := DefaultCosts()
	costs[StashRead] = 72.0   // 55.4 * 1.3, rounded for exactness
	costs[StashWrite] = 332.4 // 55.4 * 6
	costs[L2Read] = 100.5
	costs[L2Write] = 990.25
	a := NewAccount(costs)
	a.Add(StashRead, 7)
	a.Add(StashWrite, 3)
	a.Add(L2Read, 2)
	a.Add(L2Write, 1)
	a.Add(GPUInst, 5)
	a.Add(StashMiss, 4) // untouched class still prices at Table 3

	wantStash := 7*72.0 + 3*332.4 + 4*86.8
	wantL2 := 2*100.5 + 1*990.25
	wantCore := 5 * 220.0
	if got := a.ComponentPJ(ScratchStash); math.Abs(got-wantStash) > 1e-9 {
		t.Errorf("ComponentPJ(ScratchStash) = %v, want %v", got, wantStash)
	}
	if got := a.ComponentPJ(L2); math.Abs(got-wantL2) > 1e-9 {
		t.Errorf("ComponentPJ(L2) = %v, want %v", got, wantL2)
	}
	if got := a.TotalPJ(); math.Abs(got-(wantStash+wantL2+wantCore)) > 1e-9 {
		t.Errorf("TotalPJ = %v, want %v", got, wantStash+wantL2+wantCore)
	}
	if got := a.ComponentPJ(GPUCore); math.Abs(got-wantCore) > 1e-9 {
		t.Errorf("ComponentPJ(GPUCore) = %v, want %v", got, wantCore)
	}
}

func TestNonzeroCounts(t *testing.T) {
	a := NewAccount(DefaultCosts())
	if got := a.NonzeroCounts(); len(got) != 0 {
		t.Errorf("fresh account has nonzero counts: %v", got)
	}
	a.Add(StashRead, 3)
	a.Add(L2Write, 9)
	a.Add(GPUInst, 0) // explicit zero add stays omitted
	got := a.NonzeroCounts()
	if len(got) != 2 || got["stash_read"] != 3 || got["l2_write"] != 9 {
		t.Errorf("NonzeroCounts = %v", got)
	}
	// The map is a fresh copy: mutating it must not corrupt the account.
	got["stash_read"] = 999
	if a.Count(StashRead) != 3 {
		t.Errorf("NonzeroCounts aliases the account")
	}
}
