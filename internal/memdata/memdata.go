// Package memdata defines the simulator's address types, cache-line
// geometry helpers, and the word-addressed backing memory (DRAM).
//
// The simulator is value-accurate: every load observes the value the
// coherence protocol says it should, so functional correctness of the
// stash, caches, and protocol is testable, not assumed.
package memdata

import (
	"fmt"
	"math/bits"
)

// VAddr is a virtual byte address.
type VAddr uint64

// PAddr is a physical byte address.
type PAddr uint64

// Cache-line geometry shared by every level of the hierarchy.
const (
	WordBytes    = 4  // the coherence and stash tracking granularity
	LineBytes    = 64 // cache line and stash chunk size
	WordsPerLine = LineBytes / WordBytes
)

// LineOf returns the line-aligned base of physical address a.
func LineOf(a PAddr) PAddr { return a &^ (LineBytes - 1) }

// WordOf returns the word-aligned base of physical address a.
func WordOf(a PAddr) PAddr { return a &^ (WordBytes - 1) }

// WordIndex returns the index (0..15) of address a's word within its line.
func WordIndex(a PAddr) int { return int(a%LineBytes) / WordBytes }

// VLineOf returns the line-aligned base of virtual address a.
func VLineOf(a VAddr) VAddr { return a &^ (LineBytes - 1) }

// WordMask is a bitmask over the 16 words of a line.
type WordMask uint16

// MaskAll covers every word of a line.
const MaskAll WordMask = 1<<WordsPerLine - 1

// Bit returns the mask with only word i set.
func Bit(i int) WordMask { return 1 << uint(i) }

// Has reports whether word i is in the mask.
func (m WordMask) Has(i int) bool { return m&Bit(i) != 0 }

// Count returns the number of words in the mask.
func (m WordMask) Count() int { return bits.OnesCount16(uint16(m)) }

// Marks is a set of word offsets into an SRAM that empties in O(1): an
// offset is in the set while its mark equals the current generation.
// One array serves every per-access user of the SRAM in turn; each
// starts with Reset.
type Marks struct {
	gen   uint32
	marks []uint32
}

// Reset empties the set.
func (m *Marks) Reset() {
	m.gen++
	if m.gen == 0 { // wrapped: stale marks could alias the new generation
		clear(m.marks)
		m.gen = 1
	}
}

// Add inserts offset i, reporting whether it was absent.
func (m *Marks) Add(i int) bool {
	if m.marks[i] == m.gen {
		return false
	}
	m.marks[i] = m.gen
	return true
}

// Has reports whether offset i is in the set.
func (m *Marks) Has(i int) bool { return m.marks[i] == m.gen }

// BankCounter counts the serialized bank rounds of a warp access to a
// banked SRAM: the largest number of distinct word offsets that map to
// one bank, since lanes reading the same offset share one broadcast.
// Offsets are deduplicated through Marks and the bank is the offset's
// low bits, so a count is O(len(offsets)).
type BankCounter struct {
	Marks         // one mark per SRAM word; free between Rounds calls
	mask  int     // banks - 1
	count []int32 // per-bank distinct offsets, zero between calls
}

// NewBankCounter returns a counter for an SRAM of words words spread
// over banks banks, which must be a power of two.
func NewBankCounter(words, banks int) *BankCounter {
	if banks < 1 || banks&(banks-1) != 0 {
		panic(fmt.Sprintf("memdata: bank count %d must be a power of two", banks))
	}
	return &BankCounter{
		Marks: Marks{marks: make([]uint32, words)},
		mask:  banks - 1,
		count: make([]int32, banks),
	}
}

// Rounds returns the bank rounds the access to offsets needs, at least
// 1. Every offset must be in [0, words).
func (b *BankCounter) Rounds(offsets []int) int {
	b.Reset()
	rounds := int32(1)
	for _, off := range offsets {
		if !b.Add(off) {
			continue
		}
		k := off & b.mask
		n := b.count[k] + 1
		b.count[k] = n
		rounds = max(rounds, n)
	}
	for _, off := range offsets {
		b.count[off&b.mask] = 0
	}
	return int(rounds)
}

// Memory page geometry: 4 KB pages, the same granularity the vm package
// maps at, so a page is the natural unit of physical locality. A cache
// line (64 B) never straddles a page.
const (
	memPageShift = 12
	memPageBytes = 1 << memPageShift
	memPageWords = memPageBytes / WordBytes
)

// mpage is one resident 4 KB page: a dense word array plus a
// written-word bitmap that keeps Footprint exact (only words actually
// stored count, not whole pages).
type mpage struct {
	vals    [memPageWords]uint32
	written [memPageWords / 64]uint64
}

// Memory is the simulated DRAM: a sparse, word-granularity physical
// memory holding 32-bit values. Unwritten words read as zero.
//
// Storage is paged: one map lookup locates a 4 KB page (with a
// last-page cache making streaming access map-free) and line transfers
// become a single 16-word copy instead of 16 per-word map operations.
type Memory struct {
	pages    map[PAddr]*mpage
	lastKey  PAddr
	lastPage *mpage // page cache; nil until the first page exists
	written  int    // distinct words ever written, for Footprint
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: make(map[PAddr]*mpage)} }

// page returns the resident page containing a, or nil.
func (m *Memory) page(a PAddr) *mpage {
	key := a >> memPageShift
	if m.lastPage != nil && key == m.lastKey {
		return m.lastPage
	}
	p := m.pages[key]
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// ensurePage returns the page containing a, creating it if needed.
func (m *Memory) ensurePage(a PAddr) *mpage {
	if p := m.page(a); p != nil {
		return p
	}
	key := a >> memPageShift
	p := &mpage{}
	m.pages[key] = p
	m.lastKey, m.lastPage = key, p
	return p
}

// markWritten records a store to word index wi of page p, keeping the
// distinct-words-written count exact.
func (m *Memory) markWritten(p *mpage, wi int) {
	bit := uint64(1) << (uint(wi) & 63)
	if p.written[wi>>6]&bit == 0 {
		p.written[wi>>6] |= bit
		m.written++
	}
}

// wordIndex returns a's word index within its page.
func wordIndex(a PAddr) int {
	return int(a&(memPageBytes-1)) / WordBytes
}

// LoadWord returns the 32-bit word at physical address a (word aligned).
func (m *Memory) LoadWord(a PAddr) uint32 {
	checkAligned(a)
	p := m.page(a)
	if p == nil {
		return 0
	}
	return p.vals[wordIndex(a)]
}

// StoreWord writes the 32-bit word at physical address a (word aligned).
func (m *Memory) StoreWord(a PAddr, v uint32) {
	checkAligned(a)
	p := m.ensurePage(a)
	wi := wordIndex(a)
	m.markWritten(p, wi)
	p.vals[wi] = v
}

// LoadLine reads the full line containing a.
func (m *Memory) LoadLine(a PAddr) [WordsPerLine]uint32 {
	var out [WordsPerLine]uint32
	p := m.page(a)
	if p == nil {
		return out
	}
	wi := wordIndex(LineOf(a))
	copy(out[:], p.vals[wi:wi+WordsPerLine])
	return out
}

// StoreMasked writes the words selected by mask from vals into the line
// containing a. vals is indexed by word position within the line.
func (m *Memory) StoreMasked(a PAddr, mask WordMask, vals [WordsPerLine]uint32) {
	if mask == 0 {
		return
	}
	p := m.ensurePage(a)
	base := wordIndex(LineOf(a))
	for mk := mask; mk != 0; mk &= mk - 1 {
		i := bits.TrailingZeros16(uint16(mk))
		wi := base + i
		m.markWritten(p, wi)
		p.vals[wi] = vals[i]
	}
}

// Footprint reports the number of distinct words ever written.
func (m *Memory) Footprint() int { return m.written }

func checkAligned(a PAddr) {
	if a%WordBytes != 0 {
		panic(fmt.Sprintf("memdata: unaligned word address %#x", uint64(a)))
	}
}
