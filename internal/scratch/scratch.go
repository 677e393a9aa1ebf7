// Package scratch implements the classic GPU scratchpad (CUDA "shared
// memory"): a banked, directly addressed SRAM in a private address
// space. It has no tags, no TLB, no misses and no coherence — all data
// movement is explicit software loads and stores through the core's
// registers and L1 (paper Section 1.2), or a DMA engine (Section 5.3).
package scratch

import (
	"fmt"

	"stash/internal/energy"
	"stash/internal/memdata"
	"stash/internal/sim"
	"stash/internal/stats"
)

// Params configures a scratchpad.
type Params struct {
	SizeBytes int
	Banks     int // a power of two
	AccessLat sim.Cycle
}

// DefaultParams returns the paper's Table 2 scratchpad: 16 KB, 32 banks,
// 1-cycle access.
func DefaultParams() Params {
	return Params{SizeBytes: 16 << 10, Banks: 32, AccessLat: 1}
}

// Scratchpad is one CU's scratchpad.
type Scratchpad struct {
	p     Params
	words []uint32
	acct  *energy.Account

	out   []uint32 // reused Load result buffer
	banks *memdata.BankCounter

	accesses  *stats.Counter
	conflicts *stats.Counter
}

// New builds a scratchpad charging accesses to acct.
func New(name string, p Params, acct *energy.Account, set *stats.Set) *Scratchpad {
	return &Scratchpad{
		p:         p,
		words:     make([]uint32, p.SizeBytes/4),
		acct:      acct,
		banks:     memdata.NewBankCounter(p.SizeBytes/4, p.Banks),
		accesses:  set.Counter(fmt.Sprintf("scratch.%s.accesses", name)),
		conflicts: set.Counter(fmt.Sprintf("scratch.%s.conflict_rounds", name)),
	}
}

// Words returns the scratchpad capacity in words.
func (s *Scratchpad) Words() int { return len(s.words) }

// Load reads the words at the given word offsets (one per active lane)
// and returns their values plus the access latency in cycles. The
// returned slice is a reused buffer, valid only until the next Load.
func (s *Scratchpad) Load(offsets []int) ([]uint32, sim.Cycle) {
	rounds := s.account(offsets)
	out := s.out[:0]
	for _, off := range offsets {
		out = append(out, s.words[off])
	}
	s.out = out
	return out, s.p.AccessLat * sim.Cycle(rounds)
}

// Store writes vals at the given word offsets and returns the latency.
func (s *Scratchpad) Store(offsets []int, vals []uint32) sim.Cycle {
	if len(vals) != len(offsets) {
		panic("scratch: offsets/vals length mismatch")
	}
	rounds := s.account(offsets)
	for i, off := range offsets {
		s.words[off] = vals[i]
	}
	return s.p.AccessLat * sim.Cycle(rounds)
}

func (s *Scratchpad) account(offsets []int) int {
	if len(offsets) == 0 {
		return 1
	}
	for _, off := range offsets {
		if off < 0 || off >= len(s.words) {
			panic(fmt.Sprintf("scratch: offset %d out of range (%d words)", off, len(s.words)))
		}
	}
	rounds := s.banks.Rounds(offsets)
	s.accesses.Inc()
	if rounds > 1 {
		s.conflicts.Add(uint64(rounds - 1))
	}
	// One structure activation per serialized round.
	s.acct.Add(energy.ScratchAccess, uint64(rounds))
	return rounds
}

// Peek returns the word at offset, for tests and the DMA engine.
func (s *Scratchpad) Peek(offset int) uint32 { return s.words[offset] }

// Poke writes the word at offset without charging energy or latency;
// used only by tests.
func (s *Scratchpad) Poke(offset int, v uint32) { s.words[offset] = v }
