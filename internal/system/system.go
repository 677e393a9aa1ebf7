// Package system assembles the simulated machine of the paper's
// Figure 4: a 4x4 mesh whose nodes carry GPU CUs (with L1 +
// scratchpad, stash, or cache-only SRAM per the evaluated memory
// organization) and CPU cores (with L1s), one shared-LLC bank per
// node, a unified virtual address space, and the DeNovo coherence
// protocol throughout.
package system

import (
	"fmt"

	"stash/internal/cache"
	"stash/internal/check"
	"stash/internal/coh"
	"stash/internal/core"
	"stash/internal/cpu"
	"stash/internal/dma"
	"stash/internal/energy"
	"stash/internal/faults"
	"stash/internal/gpu"
	"stash/internal/isa"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/scratch"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/trace"
	"stash/internal/vm"
)

// MemOrg selects one of the six simulated memory configurations
// (paper Section 5.3). Scratch/ScratchG and Stash/StashG differ only
// in the kernels the workloads generate; the hardware is the same.
type MemOrg int

// Memory organizations.
const (
	Scratch   MemOrg = iota // 16 KB scratchpad + 32 KB L1
	ScratchG                // Scratch, global accesses converted to scratchpad
	ScratchGD               // ScratchG + DMA engine
	CacheOnly               // 32 KB L1 only
	StashOrg                // 16 KB stash + 32 KB L1
	StashG                  // Stash, global accesses converted to stash
)

var orgNames = [...]string{"Scratch", "ScratchG", "ScratchGD", "Cache", "Stash", "StashG"}

// String returns the configuration name as used in the paper's figures.
func (o MemOrg) String() string { return orgNames[o] }

// HasScratchpad reports whether the organization includes a scratchpad.
func (o MemOrg) HasScratchpad() bool { return o == Scratch || o == ScratchG || o == ScratchGD }

// HasStash reports whether the organization includes a stash.
func (o MemOrg) HasStash() bool { return o == StashOrg || o == StashG }

// HasDMA reports whether the organization includes a DMA engine.
func (o MemOrg) HasDMA() bool { return o == ScratchGD }

// Config parameterizes a System.
type Config struct {
	MeshW, MeshH int
	GPUNodes     []int // mesh nodes hosting CUs
	CPUNodes     []int // mesh nodes hosting CPU cores
	Org          MemOrg
	L1           cache.Params
	L2           llc.Params
	Stash        core.Params
	Scratch      scratch.Params
	DMA          dma.Params
	CU           gpu.Params
	Costs        energy.Costs
	// Check configures the self-checking layer (watchdog + invariant
	// sweeps). The zero value disables it, leaving the hot paths with
	// only a nil comparison per protocol completion.
	Check check.Params
	// Faults, when non-nil and non-empty, injects the described timing
	// perturbations and component faults deterministically.
	Faults *faults.Schedule
	// Trace, when non-nil, attaches the event-tracing collector to every
	// component. Nil (the default) leaves each emit site a nil-check
	// no-op, preserving bit-identical timing and zero allocations.
	Trace *trace.Options
	// Static holds leakage power expressed as picojoules per simulated
	// cycle, per technology-profiled structure group, summed over all
	// instances of that structure in the machine. The public Config
	// lowering computes it from the selected technology profiles; the
	// measurement layer multiplies by elapsed cycles. Zero values (the
	// default) report no static energy — static power is deliberately
	// kept out of the dynamic-energy account so the paper's Figure 5b/6b
	// stacks stay comparable.
	Static StaticEnergy
}

// StaticEnergy is per-cycle leakage energy (pJ/cycle) by structure
// group. It never influences timing; it only scales with cycle count
// at measurement time.
type StaticEnergy struct {
	StashPJPerCycle float64
	L1PJPerCycle    float64
	LLCPJPerCycle   float64
}

// Any reports whether any structure has nonzero leakage configured.
func (s StaticEnergy) Any() bool {
	return s.StashPJPerCycle != 0 || s.L1PJPerCycle != 0 || s.LLCPJPerCycle != 0
}

// MicrobenchConfig returns the paper's microbenchmark machine: 1 GPU CU
// and 15 CPU cores (Table 2).
func MicrobenchConfig(org MemOrg) Config {
	cfg := baseConfig(org)
	cfg.GPUNodes = []int{0}
	for n := 1; n < 16; n++ {
		cfg.CPUNodes = append(cfg.CPUNodes, n)
	}
	return cfg
}

// AppConfig returns the paper's application machine: 15 GPU CUs and 1
// CPU core (Table 2).
func AppConfig(org MemOrg) Config {
	cfg := baseConfig(org)
	for n := 0; n < 15; n++ {
		cfg.GPUNodes = append(cfg.GPUNodes, n)
	}
	cfg.CPUNodes = []int{15}
	return cfg
}

func baseConfig(org MemOrg) Config {
	return Config{
		MeshW:   4,
		MeshH:   4,
		Org:     org,
		L1:      cache.DefaultParams(),
		L2:      llc.DefaultParams(),
		Stash:   core.DefaultParams(),
		Scratch: scratch.DefaultParams(),
		DMA:     dma.DefaultParams(),
		CU:      gpu.DefaultParams(),
		Costs:   energy.DefaultCosts(),
	}
}

// System is one assembled machine.
type System struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   *noc.Network
	Mem   *memdata.Memory
	AS    *vm.AddressSpace
	Acct  *energy.Account
	Stats *stats.Set
	CUs   []*gpu.CU
	CPUs  []*cpu.Core

	// Checker is non-nil when cfg.Check enabled any self-checking; Inj
	// is non-nil when cfg.Faults injects anything; Trace is non-nil when
	// cfg.Trace enabled event tracing.
	Checker *check.Checker
	Inj     *faults.Injector
	Trace   *trace.Collector

	banks    []*llc.Bank
	l1s      []*cache.Cache  // per mesh node; nil where no L1 lives
	stashs   []*core.Stash   // per mesh node; nil where no stash lives
	probes   []check.Probe   // built unconditionally, for failure dumps
	timeline *trace.Timeline // cached FinishTrace result
}

// New builds the machine described by cfg.
func New(cfg Config) *System {
	eng := sim.NewEngine()
	acct := energy.NewAccount(cfg.Costs)
	set := stats.NewSet()
	net := noc.New(eng, cfg.MeshW, cfg.MeshH, acct, set)
	mem := memdata.NewMemory()
	as := vm.NewAddressSpace()
	s := &System{Cfg: cfg, Eng: eng, Net: net, Mem: mem, AS: as, Acct: acct, Stats: set}
	s.l1s = make([]*cache.Cache, net.Nodes())
	s.stashs = make([]*core.Stash, net.Nodes())

	if cfg.Faults.Enabled() {
		s.Inj = faults.NewInjector(*cfg.Faults)
		if cfg.Faults.NoCJitterMax > 0 {
			net.SetPerturb(s.Inj.Jitter)
		}
	}

	gpuAt := make(map[int]bool)
	for _, n := range cfg.GPUNodes {
		gpuAt[n] = true
	}
	cpuAt := make(map[int]bool)
	for _, n := range cfg.CPUNodes {
		cpuAt[n] = true
	}

	dmas := make([]*dma.Engine, net.Nodes())
	for n := 0; n < net.Nodes(); n++ {
		router := coh.NewRouter()
		bank := llc.NewBank(eng, net, n, cfg.L2, mem, acct, set)
		s.banks = append(s.banks, bank)
		router.Attach(coh.ToLLC, bank)
		if s.Inj != nil && len(cfg.Faults.BankStalls) > 0 {
			node := n
			bank.SetStall(func(now sim.Cycle) (sim.Cycle, bool) {
				return s.Inj.BankStall(node, now)
			})
		}

		switch {
		case gpuAt[n]:
			name := fmt.Sprintf("gpu%d", n)
			l1p := cfg.L1
			l1p.ChargeEnergy = true
			l1 := cache.New(eng, net, n, name, l1p, acct, set)
			router.Attach(coh.ToL1, l1)
			var sp *scratch.Scratchpad
			var st *core.Stash
			var dm *dma.Engine
			if cfg.Org.HasScratchpad() {
				sp = scratch.New(name, cfg.Scratch, acct, set)
			}
			if cfg.Org.HasStash() {
				st = core.New(eng, net, n, name, cfg.Stash, as, acct, set)
				router.Attach(coh.ToStash, st)
			}
			if cfg.Org.HasDMA() {
				dm = dma.New(eng, net, n, name, cfg.DMA, sp, as, set)
				router.Attach(coh.ToDMA, dm)
				if s.Inj != nil && cfg.Faults.DMAExtraDelay > 0 {
					dm.SetExtraDelay(s.Inj.DMAExtraDelay())
				}
			}
			s.l1s[n], s.stashs[n], dmas[n] = l1, st, dm
			s.CUs = append(s.CUs, gpu.New(eng, n, name, cfg.CU, as, l1, sp, st, dm, acct, set))
		case cpuAt[n]:
			name := fmt.Sprintf("cpu%d", n)
			l1p := cfg.L1
			l1p.ChargeEnergy = false // paper: CPU L1 energy not measured
			// The technology axes model the GPU-side storage hierarchy
			// (plus the shared LLC); CPU L1s stay at the SRAM baseline.
			l1p.ReadExtra, l1p.WriteExtra = 0, 0
			l1 := cache.New(eng, net, n, name, l1p, acct, set)
			router.Attach(coh.ToL1, l1)
			s.l1s[n] = l1
			s.CPUs = append(s.CPUs, cpu.New(eng, n, name, as, l1, set))
		}
		// Packets are pooled by coh.Send: once the router has dispatched
		// one (handlers consume it synchronously), recycle it.
		net.Register(n, func(m *noc.Message) {
			p := m.Payload.(*coh.Packet)
			router.Deliver(p)
			net.ReleasePayload(p)
		})
	}

	if cfg.Trace != nil {
		tc := trace.NewCollector(*cfg.Trace)
		s.Trace = tc
		// Attach sinks in deterministic order: the network first, then
		// per node the LLC bank and whatever the node hosts. Track order
		// fixes the Chrome-export row order.
		net.SetTrace(tc.Sink("noc"))
		cuIdx, cpuIdx := 0, 0
		for n := 0; n < net.Nodes(); n++ {
			s.banks[n].SetTrace(tc.Sink(fmt.Sprintf("llc.%d", n)))
			switch {
			case gpuAt[n]:
				name := fmt.Sprintf("gpu%d", n)
				s.l1s[n].SetTrace(tc.Sink("l1." + name))
				if st := s.stashs[n]; st != nil {
					st.SetTrace(tc.Sink("stash." + name))
				}
				if dmas[n] != nil {
					dmas[n].SetTrace(tc.Sink("dma." + name))
				}
				s.CUs[cuIdx].SetTrace(tc.Sink("cu." + name))
				cuIdx++
			case cpuAt[n]:
				name := fmt.Sprintf("cpu%d", n)
				s.l1s[n].SetTrace(tc.Sink("l1." + name))
				s.CPUs[cpuIdx].SetTrace(tc.Sink("cpu." + name))
				cpuIdx++
			}
		}
	}

	s.buildProbes(dmas)
	if cfg.Check.Enabled() {
		s.Checker = check.New(eng, cfg.Check)
		for _, p := range s.probes {
			s.Checker.Register(p)
		}
		for n := 0; n < net.Nodes(); n++ {
			s.banks[n].SetChecker(s.Checker)
			if s.l1s[n] != nil {
				s.l1s[n].SetChecker(s.Checker)
			}
			if s.stashs[n] != nil {
				s.stashs[n].SetChecker(s.Checker)
			}
			if dmas[n] != nil {
				dmas[n].SetChecker(s.Checker)
			}
		}
		s.Checker.Install()
	}
	return s
}

// buildProbes assembles the per-component inspection probes in
// deterministic node order. They are built whether or not a Checker is
// armed: Diagnose uses them to dump a crashed run too. The MSHR age
// bound is tied to the watchdog budget — an entry outliving the budget
// while the rest of the system makes progress is per-entry starvation
// the global watchdog cannot see.
func (s *System) buildProbes(dmas []*dma.Engine) {
	ageBound := s.Cfg.Check.WatchdogBudget
	for n := 0; n < s.Net.Nodes(); n++ {
		if bank := s.banks[n]; bank != nil {
			bank := bank
			s.probes = append(s.probes, check.Probe{
				Name:        fmt.Sprintf("llc[%d]", n),
				Outstanding: bank.Outstanding,
				Dump:        bank.DebugString,
				Invariants:  bank.CheckInvariants,
				Quiescent: func() error {
					if k := bank.Outstanding(); k != 0 {
						return fmt.Errorf("%d requests still in flight", k)
					}
					return nil
				},
			})
		}
		if l1 := s.l1s[n]; l1 != nil {
			l1 := l1
			s.probes = append(s.probes, check.Probe{
				Name:        fmt.Sprintf("l1[%d]", n),
				Outstanding: l1.Outstanding,
				Dump:        l1.DebugString,
				Invariants:  func() error { return l1.CheckInvariants(s.Eng.Now(), ageBound) },
				Quiescent:   l1.CheckQuiescent,
			})
		}
		if st := s.stashs[n]; st != nil {
			st := st
			s.probes = append(s.probes, check.Probe{
				Name:        fmt.Sprintf("stash[%d]", n),
				Outstanding: st.Outstanding,
				Dump:        st.DebugString,
				Invariants:  func() error { return st.CheckInvariants(s.Eng.Now(), ageBound) },
				Quiescent:   st.CheckQuiescent,
			})
		}
		if dm := dmas[n]; dm != nil {
			dm := dm
			s.probes = append(s.probes, check.Probe{
				Name:        fmt.Sprintf("dma[%d]", n),
				Outstanding: dm.Outstanding,
				Dump:        dm.DebugString,
				Quiescent:   dm.CheckQuiescent,
			})
		}
	}
	// Cross-structure single-owner audit: every word the LLC registry
	// records as owned must be held in an owned state by exactly the
	// component the registry names. Runs only at quiescent boundaries
	// (all traffic drained), when both sides must agree. The stash side
	// is conservative: a word the audit cannot locate (reverse
	// translation not resident, entry re-mapped) is inconclusive, not a
	// violation — but a located word that is NOT owned is.
	s.probes = append(s.probes, check.Probe{
		Name: "registry",
		Quiescent: func() error {
			var err error
			for bn := range s.banks {
				if err != nil {
					break
				}
				s.banks[bn].ForEachOwned(func(addr memdata.PAddr, word int, own coh.Owner) {
					if err != nil {
						return
					}
					pa := addr + memdata.PAddr(word*memdata.WordBytes)
					switch own.Comp {
					case coh.ToL1:
						l1 := s.l1s[own.Node]
						if l1 == nil {
							err = fmt.Errorf("llc[%d]: word %#x registered to node %d which has no L1", bn, uint64(pa), own.Node)
						} else if !l1.OwnsWord(pa) {
							err = fmt.Errorf("llc[%d]: word %#x registered to l1[%d] which does not own it", bn, uint64(pa), own.Node)
						}
					case coh.ToStash:
						st := s.stashs[own.Node]
						if st == nil {
							err = fmt.Errorf("llc[%d]: word %#x registered to node %d which has no stash", bn, uint64(pa), own.Node)
						} else if found, owned := st.OwnsPA(pa, own.MapIdx); found && !owned {
							err = fmt.Errorf("llc[%d]: word %#x registered to stash[%d] map %d which does not own it", bn, uint64(pa), own.Node, own.MapIdx)
						}
					}
				})
			}
			return err
		},
	})
}

// Diagnose renders a deterministic snapshot of the whole machine's
// transient state (event queue, per-unit occupancy, watchdog state),
// for failure dumps. It works with or without an armed Checker.
func (s *System) Diagnose() string {
	if s.Checker != nil {
		return s.Checker.Dump()
	}
	return check.DumpState(s.Eng, s.probes)
}

// Alloc reserves n words of global memory initialized by gen (gen may
// be nil for zeros) and returns the virtual base address.
func (s *System) Alloc(nwords int, gen func(i int) uint32) memdata.VAddr {
	base := s.AS.Alloc(nwords * memdata.WordBytes)
	if gen != nil {
		for i := 0; i < nwords; i++ {
			s.Mem.StoreWord(s.AS.Translate(base+memdata.VAddr(i*memdata.WordBytes)), gen(i))
		}
	}
	return base
}

// ReadGlobal returns the coherent value of the word at va: the owner's
// copy if registered, else the LLC's, else DRAM. Used by verification
// after the simulation has quiesced and all owners flushed.
func (s *System) ReadGlobal(va memdata.VAddr) uint32 {
	pa := s.AS.Translate(va)
	bank := s.banks[llc.BankOf(memdata.LineOf(pa), s.Cfg.L2.NumBanks)]
	if v, owner, ok := bank.Peek(pa); ok {
		if owner != nil {
			panic(fmt.Sprintf("system: ReadGlobal(%#x) while word is still registered to node %d; flush first",
				uint64(va), owner.Node))
		}
		return v
	}
	return s.Mem.LoadWord(pa)
}

// RunKernel launches k across all CUs (grid blocks split contiguously),
// runs the simulation until the kernel completes and drains, applies
// the kernel-boundary self-invalidations, and returns.
func (s *System) RunKernel(k *gpu.Kernel) {
	if len(s.CUs) == 0 {
		panic("system: no CUs configured")
	}
	s.Trace.PhaseBegin("kernel", uint64(s.Eng.Now()))
	remaining := 0
	per := (k.GridDim + len(s.CUs) - 1) / len(s.CUs)
	next := 0
	for _, cu := range s.CUs {
		n := per
		if next+n > k.GridDim {
			n = k.GridDim - next
		}
		if n <= 0 {
			break
		}
		remaining++
		cu.Launch(k, next, n, func() { remaining-- })
		next += n
	}
	s.Eng.Run()
	if remaining != 0 {
		// The event queue drained with blocks unfinished: a lost wakeup.
		// Time stands still, so only this boundary check can see it.
		panic(&check.DeadlockError{Phase: "kernel", Dump: s.Diagnose()})
	}
	for _, cu := range s.CUs {
		cu.SelfInvalidate()
	}
	s.Trace.PhaseEnd(uint64(s.Eng.Now()))
	s.Checker.Boundary("kernel")
}

// RunCPUPhase runs prog as numThreads logical threads spread across the
// CPU cores (each core runs its share sequentially), returning when all
// complete. Each core self-invalidates at phase start (acquire).
func (s *System) RunCPUPhase(prog *isa.Program, numThreads int) {
	if len(s.CPUs) == 0 {
		panic("system: no CPU cores configured")
	}
	s.Trace.PhaseBegin("cpu-phase", uint64(s.Eng.Now()))
	active := 0
	for c := 0; c < len(s.CPUs) && c < numThreads; c++ {
		core := s.CPUs[c]
		first := c
		active++
		var runNext func(tid int)
		runNext = func(tid int) {
			core.Run(prog, tid, numThreads, func() {
				nt := tid + len(s.CPUs)
				if nt < numThreads {
					runNext(nt)
				} else {
					active--
				}
			})
		}
		runNext(first)
	}
	s.Eng.Run()
	if active != 0 {
		panic(&check.DeadlockError{Phase: "cpu-phase", Dump: s.Diagnose()})
	}
	s.Trace.PhaseEnd(uint64(s.Eng.Now()))
	s.Checker.Boundary("cpu-phase")
}

// FlushForVerify writes every owned word back to the LLC so ReadGlobal
// can observe final values. Call only after measurement snapshots.
func (s *System) FlushForVerify() {
	s.Trace.PhaseBegin("flush", uint64(s.Eng.Now()))
	for _, cu := range s.CUs {
		if st := cu.Stash(); st != nil {
			st.WritebackAll()
		}
		cu.L1().WritebackAll()
	}
	for _, c := range s.CPUs {
		c.L1().WritebackAll()
	}
	s.Eng.Run()
	s.Trace.PhaseEnd(uint64(s.Eng.Now()))
	s.Checker.Boundary("flush")
}

// Cycles returns the current simulated time.
func (s *System) Cycles() sim.Cycle { return s.Eng.Now() }

// FinishTrace completes and returns the run's timeline, or nil when
// tracing was not configured. The first call snapshots at the current
// cycle; later calls return the same timeline, so measuring a system
// more than once is safe.
func (s *System) FinishTrace() *trace.Timeline {
	if s.Trace == nil {
		return nil
	}
	if s.timeline == nil {
		s.timeline = s.Trace.Finish(uint64(s.Eng.Now()))
	}
	return s.timeline
}
