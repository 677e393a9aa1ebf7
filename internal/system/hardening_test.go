package system

import (
	"strings"
	"testing"

	"stash/internal/check"
	"stash/internal/faults"
	"stash/internal/memdata"
	"stash/internal/sim"
)

// runRecover runs the engine and returns the recovered panic value.
func runRecover(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// bank0Lines returns n distinct physical line addresses that all map
// to LLC bank 0, allocated fresh in s.
func bank0Lines(t *testing.T, s *System, n int) []memdata.PAddr {
	t.Helper()
	base := s.Alloc((n+2)*16*16, nil) // n+2 KiB: one bank-0 line per KiB
	var lines []memdata.PAddr
	for off := 0; off < (n+2)*16*16 && len(lines) < n; off += memdata.WordsPerLine {
		pa := s.AS.Translate(base + memdata.VAddr(off*memdata.WordBytes))
		line := memdata.LineOf(pa)
		if line%1024 == 0 && (len(lines) == 0 || lines[len(lines)-1] != line) {
			lines = append(lines, line)
		}
	}
	if len(lines) < n {
		t.Fatalf("found only %d bank-0 lines, need %d", len(lines), n)
	}
	return lines
}

// A dead LLC bank swallows its requests. With all 16 MSHRs parked on
// it, a 17th load replays every few cycles forever — simulated time
// runs away while nothing completes. The watchdog must convert that
// livelock into a structured error within the cycle budget.
func TestWatchdogCatchesStalledBankLivelock(t *testing.T) {
	cfg := MicrobenchConfig(CacheOnly)
	cfg.Check = check.Params{Invariants: true, WatchdogBudget: 20_000, ProbeEvery: 64}
	cfg.Faults = &faults.Schedule{BankStalls: []faults.BankStall{{Bank: 0, From: 0}}} // dead forever
	s := New(cfg)

	lines := bank0Lines(t, s, s.Cfg.L1.MSHRs+1)
	l1 := s.l1s[0]
	for _, line := range lines {
		l1.Load(line, memdata.Bit(0), func([memdata.WordsPerLine]uint32) {})
	}

	v := runRecover(s.Eng.Run)
	he, ok := v.(*check.HangError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *check.HangError", v, v)
	}
	// Detection within the budget plus probe quantization: replays are
	// one event per 4 cycles and the probe runs every 64 events.
	if slack := he.Now - he.LastProgress; slack > 20_000+64*4 {
		t.Errorf("hang detected after %d stalled cycles, want <= %d", slack, 20_000+64*4)
	}
	if he.Outstanding == 0 {
		t.Error("HangError reports no outstanding work")
	}
	if !strings.Contains(he.Dump, "l1[0]") || !strings.Contains(he.Dump, "mshr") {
		t.Errorf("dump does not locate the wedged L1:\n%s", he.Dump)
	}
	if s.banks[0].Dropped() == 0 {
		t.Error("dead bank dropped nothing; fault was not injected")
	}
}

// A single lost request with no replay pressure drains the event queue
// with the kernel unfinished: time stands still, so only the boundary
// check can see it. RunKernel must panic with a DeadlockError carrying
// a usable dump.
func TestKernelBoundaryDetectsDeadlock(t *testing.T) {
	cfg := MicrobenchConfig(CacheOnly)
	cfg.Check = check.Params{Invariants: true, WatchdogBudget: 1 << 30}
	cfg.Faults = &faults.Schedule{BankStalls: []faults.BankStall{{Bank: 0, From: 0}}}
	s := New(cfg)
	base := s.Alloc(nElems, func(i int) uint32 { return uint32(i) })

	v := runRecover(func() { s.RunKernel(incKernelCache(base)) })
	de, ok := v.(*check.DeadlockError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *check.DeadlockError", v, v)
	}
	if de.Phase != "kernel" {
		t.Errorf("Phase = %q, want kernel", de.Phase)
	}
	if !strings.Contains(de.Dump, "mshr") {
		t.Errorf("dump does not show the stranded miss:\n%s", de.Dump)
	}
	if s.banks[0].Dropped() == 0 {
		t.Error("dead bank dropped nothing; fault was not injected")
	}
}

// Arming the checker (watchdog + invariant sweeps) must not change a
// single metric: the probe never advances the clock.
func TestChecksAreMetricNeutral(t *testing.T) {
	for _, org := range []MemOrg{StashOrg, CacheOnly} {
		t.Run(org.String(), func(t *testing.T) {
			run := func(checked bool) (sim.Cycle, float64) {
				cfg := MicrobenchConfig(org)
				if checked {
					cfg.Check = check.Params{Invariants: true, WatchdogBudget: 1 << 20, ProbeEvery: 128, InvariantEvery: 4}
				}
				s := New(cfg)
				base := s.Alloc(nElems, func(i int) uint32 { return uint32(i) })
				s.RunKernel(kernelFor(org, base))
				s.FlushForVerify()
				return s.Cycles(), s.Acct.TotalPJ()
			}
			c0, e0 := run(false)
			c1, e1 := run(true)
			if c0 != c1 || e0 != e1 {
				t.Fatalf("checker perturbed the run: cycles %d vs %d, energy %v vs %v", c0, c1, e0, e1)
			}
		})
	}
}

// Timing perturbation the protocol must tolerate: bounded NoC jitter
// (per-flow FIFO preserved) and a finite bank stall change cycle
// counts but never correctness, and equal seeds reproduce bit-equal
// runs.
func TestProtocolToleratesTimingFaults(t *testing.T) {
	run := func(sched *faults.Schedule) sim.Cycle {
		cfg := MicrobenchConfig(StashOrg)
		cfg.Check = check.Params{Invariants: true, WatchdogBudget: 1 << 20}
		cfg.Faults = sched
		s := New(cfg)
		base := s.Alloc(nElems, func(i int) uint32 { return uint32(10 * i) })
		s.RunKernel(incKernelStash(base))
		s.FlushForVerify()
		for i := 0; i < nElems; i++ {
			if got := s.ReadGlobal(base + memdata.VAddr(4*i)); got != uint32(10*i+1) {
				t.Fatalf("A[%d] = %d, want %d", i, got, 10*i+1)
			}
		}
		return s.Cycles()
	}

	baseline := run(nil)
	jitterA := run(&faults.Schedule{Seed: 7, NoCJitterMax: 6})
	jitterB := run(&faults.Schedule{Seed: 7, NoCJitterMax: 6})
	if jitterA != jitterB {
		t.Errorf("equal seeds diverged: %d vs %d cycles", jitterA, jitterB)
	}
	if jitterA <= baseline {
		t.Errorf("jitter did not slow the run: %d vs baseline %d", jitterA, baseline)
	}
	stalled := run(&faults.Schedule{BankStalls: []faults.BankStall{{Bank: 0, From: 0, For: 2000}}})
	if stalled <= baseline {
		t.Errorf("finite bank stall did not slow the run: %d vs baseline %d", stalled, baseline)
	}
}

// A panicking probe — RunWorkloadContext's cancellation — unwinds the
// run at an arbitrary event, but the engine and every pooled structure
// stay consistent: draining after it completes the kernel with no
// leaked pooled objects.
func TestInterruptMidRunLeavesSystemReusable(t *testing.T) {
	cfg := MicrobenchConfig(StashOrg)
	cfg.Check = check.Params{Invariants: true, WatchdogBudget: 1 << 20}
	s := New(cfg)
	base := s.Alloc(nElems, func(i int) uint32 { return uint32(i) })

	type interrupted struct{}
	fired := false
	s.Eng.AddProbe(50, func() {
		if !fired {
			fired = true
			panic(interrupted{})
		}
	})
	v := runRecover(func() { s.RunKernel(incKernelStash(base)) })
	if _, ok := v.(interrupted); !ok {
		t.Fatalf("recovered %T, want the probe's interrupted value", v)
	}
	if s.Eng.Pending() == 0 {
		t.Fatal("interrupt fired after the kernel already finished; lower the probe period")
	}

	// Resume: drain the remaining events, then verify the machine is
	// fully quiescent — no leaked waiters, plans, or value buffers.
	s.Eng.Run()
	st := s.stashs[0]
	if err := st.CheckQuiescent(); err != nil {
		t.Fatalf("stash not quiescent after resumed drain: %v", err)
	}
	if w, p, vl := st.PoolCounters(); w != 0 || p != 0 || vl != 0 {
		t.Fatalf("pooled objects leaked: waiters=%d plans=%d vals=%d", w, p, vl)
	}
	s.Checker.Boundary("resume")

	// The machine stays usable: flush and verify the kernel's effect.
	for _, cu := range s.CUs {
		cu.SelfInvalidate()
	}
	s.FlushForVerify()
	for i := 0; i < nElems; i++ {
		if got := s.ReadGlobal(base + memdata.VAddr(4*i)); got != uint32(i+1) {
			t.Fatalf("A[%d] = %d, want %d", i, got, i+1)
		}
	}
}
