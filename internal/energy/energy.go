// Package energy implements the GPUWattch/McPAT-style dynamic energy
// model used by the paper's evaluation: dynamic energy is the sum over
// event classes of (event count x per-access energy).
//
// The per-access energies for the scratchpad, stash, L1 and TLB are the
// paper's Table 3 values. Energies the paper does not publish (L2 access,
// NoC flit-hop, GPU core energy per instruction) use documented constants
// in GPUWattch's reported range; they are identical across configurations
// so they rescale stacked-bar components without changing who wins.
//
// Following the paper (Section 5.2), CPU core and CPU L1 energy are not
// charged; CPU-induced network traffic is.
package energy

// Event identifies an energy-consuming event class.
type Event int

// Event classes. Each maps to exactly one Component.
//
// Storage arrays charge read and write accesses as separate classes,
// so a memory technology with asymmetric read and write costs (a
// Config tech axis, DESIGN.md §16) prices each by its own scale. For
// SRAM a read and a write cost the same, as in the paper's Table 3.
const (
	GPUInst       Event = iota // one dynamic GPU instruction (core+, incl. fetch/RF/ALU)
	TLBAccess                  // address translation (charged as a hit; see paper fn. 8)
	ScratchAccess              // scratchpad bank access (no tags, no TLB)
	StashMiss                  // stash miss: storage + stash-map + translation ALUs
	NoCFlitHop                 // one flit crossing one mesh link
	DRAMAccess                 // off-chip access (not in the paper's stacks; cost 0 by default)
	StashRead                  // stash array read (hit-path data read, writeback drain, remote serve, replication source)
	StashWrite                 // stash array write (store data write, fill install, replication copy)
	L1ReadHit                  // GPU L1 load hit (tag + data; TLB charged separately)
	L1WriteHit                 // GPU L1 store hit
	L1ReadMiss                 // GPU L1 load miss
	L1WriteMiss                // GPU L1 store miss
	L2Read                     // LLC bank read access (ReadReq)
	L2Write                    // LLC bank write access (WriteReq/WBReq/RegReq)
	numEvents
)

var eventNames = [numEvents]string{
	"gpu_inst", "tlb_access", "scratch_access", "stash_miss",
	"noc_flit_hop", "dram_access",
	"stash_read", "stash_write", "l1_read_hit", "l1_write_hit",
	"l1_read_miss", "l1_write_miss", "l2_read", "l2_write",
}

// String returns the event's snake_case name.
func (e Event) String() string { return eventNames[e] }

// Component identifies a stacked-bar component as drawn in the paper's
// Figures 5b and 6b.
type Component int

// Components in the paper's stacking order.
const (
	GPUCore      Component = iota // "GPU core+"
	L1                            // "L1 D$" (includes TLB energy)
	ScratchStash                  // "Scratch/Stash"
	L2                            // "L2 $"
	NoC                           // "N/W"
	DRAM                          // off-chip; zero-cost by default, kept for ablations
	NumComponents
)

var componentNames = [NumComponents]string{
	"GPU core+", "L1 D$", "Scratch/Stash", "L2 $", "N/W", "DRAM",
}

// String returns the component's display name as used in the figures.
func (c Component) String() string { return componentNames[c] }

var eventComponent = [numEvents]Component{
	GPUInst:       GPUCore,
	TLBAccess:     L1,
	ScratchAccess: ScratchStash,
	StashMiss:     ScratchStash,
	NoCFlitHop:    NoC,
	DRAMAccess:    DRAM,
	StashRead:     ScratchStash,
	StashWrite:    ScratchStash,
	L1ReadHit:     L1,
	L1WriteHit:    L1,
	L1ReadMiss:    L1,
	L1WriteMiss:   L1,
	L2Read:        L2,
	L2Write:       L2,
}

// Costs holds the per-access energy of each event class in picojoules.
type Costs [numEvents]float64

// DefaultCosts returns the paper's Table 3 energies plus the documented
// constants for unpublished components (see package comment and DESIGN.md).
func DefaultCosts() Costs {
	var c Costs
	// One warp instruction activates fetch, decode, scheduling, the
	// register file and 32 lanes: GPUWattch puts a full-SM dynamic
	// instruction in the hundreds of pJ. 220 pJ reproduces the paper's
	// Figure 5b proportions, where "GPU core+" is the largest component.
	c[GPUInst] = 220.0
	c[TLBAccess] = 14.1
	c[ScratchAccess] = 55.3
	c[StashMiss] = 86.8
	c[NoCFlitHop] = 10.0
	c[DRAMAccess] = 0 // not part of the paper's dynamic-energy stacks
	// Table 3 gives one hit and one miss energy per array; for SRAM a
	// read and a write cost the same. Technology profiles rescale the
	// read and write classes per axis.
	c[StashRead], c[StashWrite] = 55.4, 55.4
	c[L1ReadHit], c[L1WriteHit] = 177.0, 177.0
	c[L1ReadMiss], c[L1WriteMiss] = 197.0, 197.0
	c[L2Read], c[L2Write] = 240.0, 240.0
	return c
}

// Account accumulates event counts and converts them to energy.
// The zero value is unusable; call NewAccount.
type Account struct {
	costs  Costs
	counts [numEvents]uint64
}

// NewAccount returns an account using the given per-access costs.
func NewAccount(costs Costs) *Account { return &Account{costs: costs} }

// Add records n occurrences of event e.
func (a *Account) Add(e Event, n uint64) { a.counts[e] += n }

// Count returns the number of recorded occurrences of event e.
func (a *Account) Count(e Event) uint64 { return a.counts[e] }

// TotalPJ returns total dynamic energy in picojoules.
func (a *Account) TotalPJ() float64 {
	var total float64
	for e := Event(0); e < numEvents; e++ {
		total += float64(a.counts[e]) * a.costs[e]
	}
	return total
}

// ComponentPJ returns the dynamic energy attributed to component c.
func (a *Account) ComponentPJ(c Component) float64 {
	var total float64
	for e := Event(0); e < numEvents; e++ {
		if eventComponent[e] == c {
			total += float64(a.counts[e]) * a.costs[e]
		}
	}
	return total
}

// NonzeroCounts returns the recorded event counts keyed by event name,
// omitting events that never occurred. The returned map is freshly
// allocated and safe to retain.
func (a *Account) NonzeroCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for e := Event(0); e < numEvents; e++ {
		if a.counts[e] != 0 {
			out[eventNames[e]] = a.counts[e]
		}
	}
	return out
}
