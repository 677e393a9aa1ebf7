// Package stash is a from-scratch reproduction of the memory system
// proposed in "Stash: Have Your Scratchpad and Cache It Too"
// (Komuravelli et al., ISCA 2015) as an executable Go library.
//
// The stash is an SRAM organization for heterogeneous CPU-GPU systems
// that is directly addressed and compactly stored like a scratchpad —
// no tag or TLB access on hits, no conflict misses, only useful words
// resident — while remaining globally addressable and visible like a
// cache: data moves implicitly and on demand, writebacks are lazy, and
// values are kept coherent across compute units, enabling reuse across
// kernels.
//
// The package front-ends a full simulated machine (see DESIGN.md): GPU
// compute units executing a mini SIMT ISA, scratchpads, stashes, a DMA
// engine, DeNovo word-granularity coherence, a banked shared LLC, a 4x4
// mesh NoC, virtual memory, and a GPUWattch-style energy model. Every
// table and figure of the paper's evaluation can be regenerated through
// the benchmarks in bench_test.go and cmd/paperfigs.
//
// Quick start:
//
//	res, err := stash.RunWorkload("implicit", stash.Stash)
//	// res.Cycles, res.EnergyPJ, res.FlitHops, ...
//
// Custom kernels are written against System, Asm and MapParams; see
// examples/ for complete programs.
package stash

import (
	"fmt"

	"stash/internal/check"
	"stash/internal/core"
	"stash/internal/faults"
	"stash/internal/gpu"
	"stash/internal/isa"
	"stash/internal/memdata"
	"stash/internal/sim"
	"stash/internal/system"
)

// MemOrg selects one of the paper's six memory organizations
// (Section 5.3).
type MemOrg int

// Memory organizations, in the paper's order.
const (
	// Scratch: 16 KB scratchpad + 32 KB L1; explicit copies.
	Scratch MemOrg = iota
	// ScratchG: Scratch with global accesses converted to scratchpad.
	ScratchG
	// ScratchGD: ScratchG with a D2MA-style DMA engine.
	ScratchGD
	// Cache: 32 KB L1 only.
	Cache
	// Stash: 16 KB stash + 32 KB L1 (the paper's contribution).
	Stash
	// StashG: Stash with global accesses converted to stash accesses.
	StashG
)

// Orgs lists all six memory organizations in the paper's order.
func Orgs() []MemOrg { return []MemOrg{Scratch, ScratchG, ScratchGD, Cache, Stash, StashG} }

var memOrgNames = [...]string{"Scratch", "ScratchG", "ScratchGD", "Cache", "Stash", "StashG"}

// Valid reports whether o is one of the six paper organizations.
func (o MemOrg) Valid() bool { return o >= Scratch && o <= StashG }

// String returns the configuration name as used in the paper's figures,
// or "MemOrg(n)" for values outside the six organizations.
func (o MemOrg) String() string {
	if !o.Valid() {
		return fmt.Sprintf("MemOrg(%d)", int(o))
	}
	return memOrgNames[o]
}

// ParseMemOrg returns the memory organization with the given figure
// name (e.g. "ScratchGD", "Stash").
func ParseMemOrg(name string) (MemOrg, error) {
	for i, n := range memOrgNames {
		if n == name {
			return MemOrg(i), nil
		}
	}
	return 0, fmt.Errorf("stash: unknown memory organization %q (want one of %v)", name, Orgs())
}

// MarshalText encodes o as its figure name, making MemOrg usable as a
// JSON value or map key.
func (o MemOrg) MarshalText() ([]byte, error) {
	if !o.Valid() {
		return nil, fmt.Errorf("stash: cannot marshal invalid MemOrg %d", int(o))
	}
	return []byte(o.String()), nil
}

// UnmarshalText decodes a figure name produced by MarshalText.
func (o *MemOrg) UnmarshalText(b []byte) error {
	v, err := ParseMemOrg(string(b))
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// internal maps o onto the simulator's organization constant. Every
// public entry point validates o (Config.Validate) before reaching this
// point, so the default branch is unreachable from outside the package.
func (o MemOrg) internal() system.MemOrg {
	switch o {
	case Scratch:
		return system.Scratch
	case ScratchG:
		return system.ScratchG
	case ScratchGD:
		return system.ScratchGD
	case Cache:
		return system.CacheOnly
	case Stash:
		return system.StashOrg
	case StashG:
		return system.StashG
	}
	panic(fmt.Sprintf("stash: invalid MemOrg %d", int(o)))
}

// Config describes a machine to simulate. The zero value is not valid
// (Validate rejects it); start from MicroConfig or AppConfig.
type Config struct {
	// Org selects the memory organization.
	Org MemOrg `json:"org"`
	// GPUs and CPUs place compute units and CPU cores on the 16-node
	// mesh (GPUs first). GPUs must be at least 1 and GPUs+CPUs must not
	// exceed 16.
	GPUs int `json:"gpus"`
	CPUs int `json:"cpus"`
	// DisableReplication turns off the data-replication optimization of
	// paper Section 4.5 (for ablation).
	DisableReplication bool `json:"disable_replication,omitempty"`
	// EagerWriteback makes the stash write dirty data back at every
	// kernel boundary, scratchpad-style (for ablation).
	EagerWriteback bool `json:"eager_writeback,omitempty"`
	// ChunkWords overrides the lazy-writeback chunk granularity in words
	// (for ablation). Zero selects the paper's default of 16 words
	// (64 B, Section 4.2); explicit values must be powers of two between
	// 1 and 16, so kernels' 64 B-aligned stash allocations stay
	// chunk-aligned at the finer granularity.
	ChunkWords int `json:"chunk_words,omitempty"`
	// CheckInvariants enables periodic and boundary structural checks of
	// the coherence machinery (single owner per LLC line, MSHR and pool
	// conservation, stash map consistency). Violations surface as a
	// *CellError of kind FailInvariant. Checks never perturb simulated
	// metrics; they cost host time only.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// WatchdogBudget arms the deadlock/livelock watchdog: if no protocol
	// transaction completes for this many simulated cycles while work is
	// outstanding, the run fails with a *CellError of kind FailHang
	// instead of spinning forever. Zero disables the watchdog. The
	// budget is checked once per 4096 executed events, not every cycle,
	// so a hang is reported up to one such period late, and a stall that
	// ends within a period is never reported.
	WatchdogBudget uint64 `json:"watchdog_budget,omitempty"`
	// Faults, when non-nil, injects a deterministic timing-fault
	// schedule (for robustness testing; see FaultConfig).
	Faults *FaultConfig `json:"faults,omitempty"`
	// Trace, when non-nil, records a cycle-accurate event timeline and
	// per-bucket time-series, attached to Result.Timeline. Tracing is
	// timing-neutral: metrics are bit-identical with it on or off.
	Trace *TraceConfig `json:"trace,omitempty"`
	// StashTech, L1Tech, and LLCTech select memory technologies for the
	// stash, the GPU L1 caches, and the LLC banks (see TechSpec). Nil
	// means the SRAM baseline and is bit-identical to the pre-technology
	// timing model; non-nil specs are a versioned timing-model extension
	// pinned by their own golden vectors. An axis naming a structure the
	// organization lacks (e.g. StashTech under Cache) is accepted and has
	// no metric effect.
	StashTech *TechSpec `json:"stash_tech,omitempty"`
	L1Tech    *TechSpec `json:"l1_tech,omitempty"`
	LLCTech   *TechSpec `json:"llc_tech,omitempty"`
}

// FaultConfig is a seeded, deterministic timing-fault schedule. Faults
// perturb when packets and transfers happen, never what they carry, so
// a correct protocol must produce identical final values under any
// schedule — only cycle counts move. A dead bank (BankStall with
// For == 0) drops traffic outright, which a hardened run converts into
// a structured hang/deadlock failure rather than an infinite loop.
type FaultConfig struct {
	// Seed selects the deterministic perturbation stream; equal seeds
	// reproduce bit-equal runs.
	Seed uint64 `json:"seed,omitempty"`
	// NoCJitterMax adds 0..max extra cycles to each network delivery
	// (per-flow FIFO order is preserved).
	NoCJitterMax uint64 `json:"noc_jitter_max,omitempty"`
	// BankStalls stalls or kills LLC banks.
	BankStalls []BankStall `json:"bank_stalls,omitempty"`
	// DMAExtraDelay adds cycles to every DMA line transfer.
	DMAExtraDelay uint64 `json:"dma_extra_delay,omitempty"`
}

// BankStall describes one LLC bank perturbation window.
type BankStall struct {
	// Bank is the LLC bank index (one per mesh node, 0..15).
	Bank int `json:"bank"`
	// From is the first affected cycle.
	From uint64 `json:"from"`
	// For is the window length in cycles. Zero means forever: the bank
	// is dead from From on and silently drops its requests.
	For uint64 `json:"for,omitempty"`
}

// maxFaultDelay caps per-event fault delays; anything larger is a
// mis-specification (it would dominate every run's cycle count and
// mostly just trip the watchdog).
const maxFaultDelay = 1 << 20

// maxChunkWords is the paper's chunk granularity (64 B in 4-byte
// words), the coarsest — and default — lazy-writeback granularity.
const maxChunkWords = 16

// Validate reports whether c describes a simulable machine. Every
// error path that used to panic inside the package is reported here
// instead; RunWorkloadCfg, Sweep, and NewSystem all call it and return
// its error rather than crashing the process.
func (c Config) Validate() error {
	if !c.Org.Valid() {
		return fmt.Errorf("stash: invalid memory organization MemOrg(%d): want one of %v", int(c.Org), Orgs())
	}
	if c.GPUs < 1 {
		return fmt.Errorf("stash: invalid placement: %d GPU CUs (the machine needs at least 1)", c.GPUs)
	}
	if c.CPUs < 0 {
		return fmt.Errorf("stash: invalid placement: negative CPU count %d", c.CPUs)
	}
	if c.GPUs+c.CPUs > 16 {
		return fmt.Errorf("stash: invalid placement: %d GPUs + %d CPUs exceed the 16-node mesh", c.GPUs, c.CPUs)
	}
	if c.ChunkWords != 0 {
		cw := c.ChunkWords
		if cw < 1 || cw > maxChunkWords || cw&(cw-1) != 0 {
			return fmt.Errorf("stash: invalid ChunkWords %d: want 0 (default) or a power of two between 1 and %d", cw, maxChunkWords)
		}
	}
	if c.WatchdogBudget > 1<<40 {
		return fmt.Errorf("stash: invalid WatchdogBudget %d: want at most %d cycles", c.WatchdogBudget, uint64(1)<<40)
	}
	if f := c.Faults; f != nil {
		if f.NoCJitterMax > maxFaultDelay {
			return fmt.Errorf("stash: invalid NoCJitterMax %d: want at most %d cycles", f.NoCJitterMax, maxFaultDelay)
		}
		if f.DMAExtraDelay > maxFaultDelay {
			return fmt.Errorf("stash: invalid DMAExtraDelay %d: want at most %d cycles", f.DMAExtraDelay, maxFaultDelay)
		}
		for i, st := range f.BankStalls {
			if st.Bank < 0 || st.Bank >= 16 {
				return fmt.Errorf("stash: invalid BankStalls[%d].Bank %d: the LLC has banks 0..15", i, st.Bank)
			}
		}
	}
	if err := c.Trace.validate(); err != nil {
		return err
	}
	return c.validateTech()
}

// MicroConfig is the paper's microbenchmark machine: 1 GPU CU and 15
// CPU cores (Table 2).
func MicroConfig(org MemOrg) Config { return Config{Org: org, GPUs: 1, CPUs: 15} }

// AppConfig is the paper's application machine: 15 GPU CUs and 1 CPU
// core (Table 2).
func AppConfig(org MemOrg) Config { return Config{Org: org, GPUs: 15, CPUs: 1} }

// internal validates c and lowers it onto the simulator configuration.
func (c Config) internal() (system.Config, error) {
	if err := c.Validate(); err != nil {
		return system.Config{}, err
	}
	cfg := system.MicrobenchConfig(c.Org.internal())
	cfg.GPUNodes = nil
	cfg.CPUNodes = nil
	for n := 0; n < c.GPUs; n++ {
		cfg.GPUNodes = append(cfg.GPUNodes, n)
	}
	for n := c.GPUs; n < c.GPUs+c.CPUs; n++ {
		cfg.CPUNodes = append(cfg.CPUNodes, n)
	}
	cfg.Stash.EnableReplication = !c.DisableReplication
	cfg.Stash.EagerWriteback = c.EagerWriteback
	cfg.Stash.ChunkWords = c.ChunkWords
	cfg.Check = check.Params{
		Invariants:     c.CheckInvariants,
		WatchdogBudget: sim.Cycle(c.WatchdogBudget),
	}
	if f := c.Faults; f != nil {
		sched := &faults.Schedule{
			Seed:          f.Seed,
			NoCJitterMax:  sim.Cycle(f.NoCJitterMax),
			DMAExtraDelay: sim.Cycle(f.DMAExtraDelay),
		}
		for _, st := range f.BankStalls {
			sched.BankStalls = append(sched.BankStalls, faults.BankStall{
				Bank: st.Bank,
				From: sim.Cycle(st.From),
				For:  sim.Cycle(st.For),
			})
		}
		cfg.Faults = sched
	}
	cfg.Trace = c.Trace.internal()
	c.applyTech(&cfg)
	return cfg, nil
}

// Addr is a virtual address in the simulated unified address space.
type Addr uint64

// System is one simulated machine instance. Systems are single-use:
// allocate data, run kernels and CPU phases, then read results.
type System struct {
	sys *system.System
}

// NewSystem builds a machine, or reports why cfg is not simulable
// (see Config.Validate).
func NewSystem(cfg Config) (*System, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	return &System{sys: system.New(icfg)}, nil
}

// Alloc reserves words of global memory, optionally initialized by gen,
// and returns its base address.
func (s *System) Alloc(words int, gen func(i int) uint32) Addr {
	return Addr(s.sys.Alloc(words, gen))
}

// RunKernel launches the kernel across all CUs and runs the simulation
// until it completes, drains, and self-invalidates (a full kernel
// boundary).
func (s *System) RunKernel(k *Kernel) { s.sys.RunKernel(k.k) }

// RunCPU runs prog as n logical threads over the CPU cores (an
// acquire-release synchronized CPU phase).
func (s *System) RunCPU(prog *Program, n int) { s.sys.RunCPUPhase(prog.p, n) }

// Cycles returns the simulated time elapsed so far.
func (s *System) Cycles() uint64 { return uint64(s.sys.Cycles()) }

// Flush writes all owned data back to the LLC so ReadWord observes
// final values. Call after measurements: flushing adds traffic.
func (s *System) Flush() { s.sys.FlushForVerify() }

// ReadWord returns the coherent value of the word at a (Flush first).
func (s *System) ReadWord(a Addr) uint32 { return s.sys.ReadGlobal(memdata.VAddr(a)) }

// Result snapshots the system's measurements; see Measure.
func (s *System) Result() Result { return measure(s.sys) }

// MapParams is the AddMap intrinsic's argument list (paper Section 3.1):
// it maps a 1D or 2D, possibly strided, tile of a global array-of-
// structures field onto dense local words.
type MapParams struct {
	// StashBase is the first block-relative local word of the tile.
	StashBase int
	// GlobalBase is the tile's first mapped field address.
	GlobalBase Addr
	// FieldBytes is the mapped field's size; ObjectBytes the AoS
	// element size (equal for scalar arrays).
	FieldBytes, ObjectBytes int
	// RowElems elements per tile row; StrideBytes between rows;
	// NumRows rows ("rowSize", "strideSize", "numStrides"). A tile of
	// more than one row needs a StrideBytes that is a multiple of 4, so
	// that every row starts on a word.
	RowElems, StrideBytes, NumRows int
	// Coherent selects Mapped Coherent vs Mapped Non-coherent mode.
	Coherent bool
}

func (m MapParams) internal() core.MapParams {
	return core.MapParams{
		StashBase:   m.StashBase,
		GlobalBase:  memdata.VAddr(m.GlobalBase),
		FieldBytes:  m.FieldBytes,
		ObjectBytes: m.ObjectBytes,
		RowElems:    m.RowElems,
		StrideBytes: m.StrideBytes,
		NumRows:     m.NumRows,
		Coherent:    m.Coherent,
	}
}

// Kernel is a compiled GPU grid.
type Kernel struct {
	k *gpu.Kernel
}

// Program is a compiled instruction sequence (for CPU phases).
type Program struct {
	p *isa.Program
}
