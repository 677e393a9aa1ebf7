package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"stash/internal/check"
	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/trace"
	"stash/internal/vm"
)

// Params configures a stash.
type Params struct {
	SizeBytes    int
	Banks        int // a power of two
	HitLat       sim.Cycle
	TranslateLat sim.Cycle // stash address translation on a miss (Table 2: 10 cycles)
	MapEntries   int       // stash-map size (Table 2: 64)
	VPEntries    int       // VP-map TLB/RTLB size (Table 2: 64)
	SlotsPerTB   int       // map index table entries per thread block (4)
	NumLLCBanks  int
	// EnableReplication turns on the data-replication optimization of
	// Section 4.5 (on by default; the ablation benchmark disables it).
	EnableReplication bool
	// EagerWriteback forces scratchpad-style writeback of all dirty data
	// at every kernel boundary instead of lazy writeback. Off in the real
	// design; exists for the ablation study.
	EagerWriteback bool
	// ChunkWords is the lazy-writeback chunk granularity in words. Zero
	// selects the paper's 64 B (= ChunkWords const) default. Must be a
	// power of two no larger than the default: every kernel aligns its
	// stash allocations to the default granularity, so any divisor of it
	// keeps the per-chunk stash-map index unambiguous.
	ChunkWords int
	// ReadExtra and WriteExtra add technology-dependent cycles to the
	// demand access path: ReadExtra on load/fill completions, WriteExtra
	// on store accepts. Background writeback drains charge technology
	// energy but no extra latency — their WBReq injection times carry
	// the registration-before-writeback ordering invariant and are never
	// perturbed. Zero (the SRAM baseline) is bit-identical to the
	// pre-technology timing model.
	ReadExtra  sim.Cycle
	WriteExtra sim.Cycle
}

// DefaultParams returns the paper's Table 2 stash configuration.
func DefaultParams() Params {
	return Params{
		SizeBytes:         16 << 10,
		Banks:             32,
		HitLat:            1,
		TranslateLat:      10,
		MapEntries:        64,
		VPEntries:         64,
		SlotsPerTB:        4,
		NumLLCBanks:       16,
		EnableReplication: true,
	}
}

// ChunkWords is the writeback chunk granularity (64 B, Section 4.2).
const ChunkWords = memdata.WordsPerLine

// readMSHR tracks an outstanding fill of one global line. fills may
// hold several stash destinations per word: two thread blocks can map
// the same global data into different stash allocations concurrently
// (the replication scenario of Section 4.5). MSHRs are pooled: the
// per-word fill lists and the waiter list keep their capacity across
// reuses, so a warmed-up stash misses without allocating.
type readMSHR struct {
	line      memdata.PAddr // the global line this MSHR tracks
	requested memdata.WordMask
	fills     [memdata.WordsPerLine][]int32 // per line word: stash word offsets
	waiters   []*stashWaiter
	inPurge   bool      // already on the purge-candidate list
	born      sim.Cycle // cycle the entry was allocated, for age checks
}

// stashWaiter is one warp load waiting for fills. A load that misses in
// several global lines is attached to every line's MSHR; fired ensures
// it completes exactly once. attached counts the MSHR waiter lists
// still referencing it, so a fired waiter returns to the pool only once
// every list has dropped it. The miss plan rides on the waiter until
// the translation delay ends and issue, bound once to issueMiss,
// requests its lines.
type stashWaiter struct {
	offsets  []int // waiter-owned copy of the access's stash offsets
	done     func(vals []uint32)
	plan     *fillPlan
	issue    func()
	fired    bool
	attached int
}

// loadResult is a pooled load completion: the values gathered for a
// warp load, handed to its callback by run, which is bound once.
type loadResult struct {
	s    *Stash
	vals []uint32
	done func(vals []uint32)
	run  func()
}

// fillLine records, for one global line of a fill or registration plan,
// the stash word offset each line word targets (-1 = none).
type fillLine struct {
	line memdata.PAddr
	soff [memdata.WordsPerLine]int32
}

// fillPlan groups one access's misses (or registrations) by global
// line. Lines are kept sorted by address, so iterating the plan issues
// requests in the same deterministic order the old sorted-map-keys code
// produced; plans are pooled because a load's plan lives until its
// translation-delayed issue closure runs.
type fillPlan struct {
	lines []fillLine
}

func (p *fillPlan) lookup(line memdata.PAddr) *fillLine {
	for i := range p.lines {
		if p.lines[i].line == line {
			return &p.lines[i]
		}
	}
	return nil
}

func (p *fillPlan) insert(line memdata.PAddr) *fillLine {
	pos := len(p.lines)
	for i := range p.lines {
		if line < p.lines[i].line {
			pos = i
			break
		}
	}
	p.lines = append(p.lines, fillLine{})
	copy(p.lines[pos+1:], p.lines[pos:len(p.lines)-1])
	fl := &p.lines[pos]
	fl.line = line
	for i := range fl.soff {
		fl.soff[i] = -1
	}
	return fl
}

func (p *fillPlan) getOrInsert(line memdata.PAddr) *fillLine {
	if fl := p.lookup(line); fl != nil {
		return fl
	}
	return p.insert(line)
}

// regPend tracks stash offsets awaiting a RegAck for one global line,
// per line word. present marks words with a non-empty list (the map-
// free equivalent of the old per-word map keys).
type regPend struct {
	present memdata.WordMask
	lists   [memdata.WordsPerLine][]int32
}

// wbLine is one global line of a chunk writeback.
type wbLine struct {
	line memdata.PAddr
	mask memdata.WordMask
	vals [memdata.WordsPerLine]uint32
}

// wbPlan groups a chunk flush by global line, sorted by address (same
// determinism argument as fillPlan). It is used synchronously, so one
// scratch instance per stash suffices.
type wbPlan struct {
	lines []wbLine
}

func (p *wbPlan) getOrInsert(line memdata.PAddr) *wbLine {
	pos := len(p.lines)
	for i := range p.lines {
		if p.lines[i].line == line {
			return &p.lines[i]
		}
		if line < p.lines[i].line {
			pos = i
			break
		}
	}
	p.lines = append(p.lines, wbLine{})
	copy(p.lines[pos+1:], p.lines[pos:len(p.lines)-1])
	wl := &p.lines[pos]
	*wl = wbLine{line: line}
	return wl
}

// Stash is one CU's stash (Figure 3). It attaches to the node's router
// as coh.ToStash.
type Stash struct {
	eng  *sim.Engine
	net  *noc.Network
	node int
	p    Params
	as   *vm.AddressSpace
	acct *energy.Account

	words []uint32
	state []coh.State

	chunkMap   []int // stash-map index last stored into the chunk
	chunkDirty []bool
	chunkWB    []bool

	maps []mapEntry
	tail int
	gen  uint64

	vp     *vpMap
	tables map[int][]int // thread block -> map index table

	chunk      int  // writeback chunk granularity in words (Params.ChunkWords)
	chunkShift uint // log2(chunk)

	mshrs      map[memdata.PAddr]*readMSHR
	pendingReg map[memdata.PAddr]*regPend
	wbuf       *coh.WBBuffer

	outstanding int
	drainWait   []func()
	chk         *check.Checker
	// Pool conservation counters: objects acquired but not yet released.
	// They must all read zero at a quiescent boundary; a nonzero count
	// after a drain is a leaked pooled object.
	waitersOut int
	plansOut   int
	valsOut    int
	// purgeCand lists MSHRs whose requested mask has dropped to zero;
	// only these can be left holding fired waiters (fired through a
	// sibling line's MSHR), so drain checks scan this list instead of
	// the whole MSHR map.
	purgeCand []*readMSHR
	// waiterFired is set when a waiter fires and cleared after a purge
	// sweep. A candidate's waiter list can only lose entries when some
	// waiter fires, so while the flag is clear the sweep skips the
	// per-waiter scans entirely — without it, every ack re-walked every
	// candidate's unfired waiters, which is quadratic during bursts of
	// same-line loads.
	waiterFired bool

	// Free lists and scratch buffers for the access hot path. All are
	// bounded by the steady-state transaction concurrency and reuse
	// their capacity, so warmed-up accesses allocate nothing.
	mshrFree    []*readMSHR
	waiterFree  []*stashWaiter
	regPendFree []*regPend
	planFree    []*fillPlan
	resultFree  []*loadResult
	tableFree   [][]int
	wbScratch   wbPlan
	missScratch []int
	// banks counts bank-conflict rounds; between counts, the miss
	// planner borrows its per-word marks.
	banks    *memdata.BankCounter
	blkOwned []bool // per-map-entry flag scratch for EndThreadBlock

	hits        *stats.Counter
	misses      *stats.Counter
	missLines   *stats.Counter
	remote      *stats.Counter
	writebacks  *stats.Counter
	addmaps     *stats.Counter
	reuseHits   *stats.Counter
	replCopies  *stats.Counter
	lazyFlushes *stats.Counter

	tsnk         *trace.Sink
	trMisses     *trace.Series
	trWritebacks *trace.Series
	trMapOcc     *trace.Series
}

// New builds a stash for the CU at node, translating through as.
func New(eng *sim.Engine, net *noc.Network, node int, name string, p Params, as *vm.AddressSpace, acct *energy.Account, set *stats.Set) *Stash {
	nwords := p.SizeBytes / memdata.WordBytes
	chunk := p.ChunkWords
	if chunk == 0 {
		chunk = ChunkWords
	}
	if chunk < 1 || chunk > ChunkWords || chunk&(chunk-1) != 0 {
		panic(fmt.Sprintf("core: chunk granularity %d words must be a power of two in [1,%d]", chunk, ChunkWords))
	}
	s := &Stash{
		eng:        eng,
		net:        net,
		node:       node,
		p:          p,
		as:         as,
		acct:       acct,
		chunk:      chunk,
		chunkShift: uint(bits.TrailingZeros(uint(chunk))),
		words:      make([]uint32, nwords),
		state:      make([]coh.State, nwords),
		chunkMap:   make([]int, nwords/chunk),
		chunkDirty: make([]bool, nwords/chunk),
		chunkWB:    make([]bool, nwords/chunk),
		maps:       make([]mapEntry, p.MapEntries),
		vp:         newVPMap(p.VPEntries, as),
		tables:     make(map[int][]int),
		mshrs:      make(map[memdata.PAddr]*readMSHR),
		pendingReg: make(map[memdata.PAddr]*regPend),
		wbuf:       coh.NewWBBuffer(),
		banks:      memdata.NewBankCounter(nwords, p.Banks),
		blkOwned:   make([]bool, p.MapEntries),

		hits:        set.Counter(fmt.Sprintf("stash.%s.hits", name)),
		misses:      set.Counter(fmt.Sprintf("stash.%s.misses", name)),
		missLines:   set.Counter(fmt.Sprintf("stash.%s.miss_lines", name)),
		remote:      set.Counter(fmt.Sprintf("stash.%s.remote_hits", name)),
		writebacks:  set.Counter(fmt.Sprintf("stash.%s.writebacks", name)),
		addmaps:     set.Counter(fmt.Sprintf("stash.%s.addmaps", name)),
		reuseHits:   set.Counter(fmt.Sprintf("stash.%s.map_reuse", name)),
		replCopies:  set.Counter(fmt.Sprintf("stash.%s.replication_copies", name)),
		lazyFlushes: set.Counter(fmt.Sprintf("stash.%s.lazy_writeback_chunks", name)),
	}
	for i := range s.maps {
		s.maps[i].reuseOf = -1
	}
	for i := range s.chunkMap {
		s.chunkMap[i] = -1
	}
	return s
}

// Words returns the stash capacity in words.
func (s *Stash) Words() int { return len(s.words) }

// --- free lists ---

func (s *Stash) acquireMSHR() *readMSHR {
	if n := len(s.mshrFree); n > 0 {
		m := s.mshrFree[n-1]
		s.mshrFree = s.mshrFree[:n-1]
		return m
	}
	return &readMSHR{}
}

func (s *Stash) retireMSHR(m *readMSHR) {
	m.requested = 0
	for i := range m.fills {
		m.fills[i] = m.fills[i][:0]
	}
	m.waiters = m.waiters[:0]
	m.inPurge = false
	s.mshrFree = append(s.mshrFree, m)
}

func (s *Stash) acquireWaiter(offsets []int, done func([]uint32)) *stashWaiter {
	var w *stashWaiter
	if n := len(s.waiterFree); n > 0 {
		w = s.waiterFree[n-1]
		s.waiterFree = s.waiterFree[:n-1]
	} else {
		w = &stashWaiter{}
		w.issue = func() { s.issueMiss(w) }
	}
	w.offsets = append(w.offsets[:0], offsets...)
	w.done = done
	w.fired = false
	w.attached = 0
	s.waitersOut++
	return w
}

func (s *Stash) releaseWaiter(w *stashWaiter) {
	w.done = nil
	s.waitersOut--
	s.waiterFree = append(s.waiterFree, w)
}

func (s *Stash) acquirePlan() *fillPlan {
	s.plansOut++
	if n := len(s.planFree); n > 0 {
		p := s.planFree[n-1]
		s.planFree = s.planFree[:n-1]
		return p
	}
	return &fillPlan{}
}

func (s *Stash) releasePlan(p *fillPlan) {
	p.lines = p.lines[:0]
	s.plansOut--
	s.planFree = append(s.planFree, p)
}

func (s *Stash) acquireRegPend() *regPend {
	if n := len(s.regPendFree); n > 0 {
		p := s.regPendFree[n-1]
		s.regPendFree = s.regPendFree[:n-1]
		return p
	}
	return &regPend{}
}

// --- AddMap / ChgMap (Section 3.1, 4.2) ---

// AddMap installs a stash-to-global mapping for thread block tb in map
// index table slot, returning the stash-map index. Stash allocations
// must be chunk (by default 64 B) aligned so the per-chunk stash-map
// index is unambiguous (cf. the paper's chunk-alignment requirement,
// fn. 4).
func (s *Stash) AddMap(tb, slot int, m MapParams) int {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if m.StashBase%s.chunk != 0 {
		panic(fmt.Sprintf("core: stash base %d not chunk aligned", m.StashBase))
	}
	if m.StashBase+m.Words() > len(s.words) {
		panic(fmt.Sprintf("core: mapping of %d words at %d exceeds stash size %d",
			m.Words(), m.StashBase, len(s.words)))
	}
	if slot < 0 || slot >= s.p.SlotsPerTB {
		panic(fmt.Sprintf("core: map index table slot %d out of range (max %d per thread block)", slot, s.p.SlotsPerTB))
	}
	s.addmaps.Inc()

	table := s.tables[tb]
	if table == nil {
		if n := len(s.tableFree); n > 0 {
			table = s.tableFree[n-1]
			s.tableFree = s.tableFree[:n-1]
		} else {
			table = make([]int, s.p.SlotsPerTB)
		}
		for i := range table {
			table[i] = -1
		}
		s.tables[tb] = table
	}

	if s.p.EnableReplication {
		for i := range s.maps {
			e := &s.maps[i]
			if !e.valid || !e.MapParams.sameTile(m) {
				continue
			}
			if e.StashBase == m.StashBase && e.Coherent == m.Coherent {
				// Perfect match including the stash allocation: reuse the
				// entry; resident data and coherence state carry over, so
				// a later kernel hits where a scratchpad would reload.
				s.reuseHits.Inc()
				e.active = true
				table[slot] = i
				s.tsnk.Event(uint64(s.eng.Now()), trace.KAddMap, uint64(i), 0)
				s.traceMapOcc()
				return i
			}
		}
	}

	// The new allocation claims its stash range: any other valid entry
	// overlapping it is retired now (dirty chunks written back, data
	// invalidated), so stale entries can never serve replication copies
	// of someone else's data.
	for i := range s.maps {
		e := &s.maps[i]
		if !e.valid {
			continue
		}
		if e.StashBase < m.StashBase+m.Words() && m.StashBase < e.StashBase+e.Words() {
			if e.active {
				panic(fmt.Sprintf("core: AddMap range [%d,%d) overlaps active mapping %d",
					m.StashBase, m.StashBase+m.Words(), i))
			}
			s.retireEntry(i)
		}
	}

	// Data replication (Section 4.5): an older mapping of the same tile
	// at a different allocation lets load misses copy within the stash.
	reusePartial := -1
	if s.p.EnableReplication {
		for i := range s.maps {
			e := &s.maps[i]
			if e.valid && e.MapParams.sameTile(m) {
				reusePartial = i
				break
			}
		}
	}

	idx := s.allocEntry()
	e := &s.maps[idx]
	s.gen++
	*e = mapEntry{
		MapParams:  m,
		valid:      true,
		active:     true,
		fieldWords: m.FieldBytes / memdata.WordBytes,
		reuseOf:    reusePartial,
		generation: s.gen,
	}

	// Install the VP-map translations, reclaiming dead entries and, if
	// necessary, retiring further stash-map entries (Section 4.2). When
	// every entry belongs to an active mapping, the remaining pages are
	// acquired lazily at the subsequent misses (Section 4.1.4's
	// fallback) — the paper expects the programmer to size mappings so
	// this stays rare, and vp.refills counts it.
	s.installPages(e, idx)

	// Prepare the stash range: chunks with a pending writeback keep
	// their old data until first touch (lazy writeback); everything
	// else is invalidated for the new allocation.
	s.invalidateRangeExceptPendingWB(m.StashBase, m.Words())

	table[slot] = idx
	s.tsnk.Event(uint64(s.eng.Now()), trace.KAddMap, uint64(idx), 0)
	s.traceMapOcc()
	return idx
}

// ChgMap updates slot's existing mapping (Section 4.2). Dirty data of
// the old coherent mapping is written back when the global target or
// coherence mode changes; a non-coherent-to-coherent change issues
// registrations for locally dirty words.
func (s *Stash) ChgMap(tb, slot int, m MapParams) int {
	table := s.tables[tb]
	if table == nil || table[slot] < 0 {
		panic("core: ChgMap on empty map index table slot")
	}
	idx := table[slot]
	old := s.maps[idx]

	if old.Coherent && !old.MapParams.sameTile(m) {
		// New global addresses: write back old dirty data, invalidate.
		s.flushEntryChunks(idx)
	}
	switch {
	case old.Coherent && !m.Coherent:
		s.flushEntryChunks(idx)
	case !old.Coherent && m.Coherent && old.MapParams.sameTile(m):
		// Locally dirty words become globally visible: register them.
		s.registerLocalDirty(idx)
	}

	if err := m.Validate(); err != nil {
		panic(err)
	}
	e := &s.maps[idx]
	keep := e.generation
	s.gen++
	*e = mapEntry{MapParams: m, valid: true, active: true, fieldWords: m.FieldBytes / memdata.WordBytes, reuseOf: -1, generation: keep}
	s.installPages(e, idx)
	if !old.MapParams.sameTile(m) {
		s.invalidateRangeExceptPendingWB(m.StashBase, m.Words())
	}
	return idx
}

// MapIndex returns the stash-map index stored in tb's map index table.
func (s *Stash) MapIndex(tb, slot int) int {
	table := s.tables[tb]
	if table == nil || table[slot] < 0 {
		panic(fmt.Sprintf("core: no mapping in slot %d of thread block %d", slot, tb))
	}
	return table[slot]
}

func (s *Stash) allocEntry() int {
	for tries := 0; tries < len(s.maps); tries++ {
		idx := s.tail
		s.tail = (s.tail + 1) % len(s.maps)
		if old := &s.maps[idx]; old.valid {
			if old.active {
				continue // never replace a running thread block's mapping
			}
			// Replacing a valid entry with unwritten dirty data: initiate
			// its writebacks (the rare blocking case of Section 4.2).
			s.retireEntry(idx)
		}
		return idx
	}
	panic("core: stash-map full of active mappings; too many AddMaps per resident thread blocks")
}

// installPages fills the VP-map for entry idx, reclaiming dead entries
// and retiring inactive stash-map entries under pressure; pages that
// still do not fit are acquired lazily at the first miss needing them.
func (s *Stash) installPages(e *mapEntry, idx int) {
	for _, page := range e.pages() {
		for !s.vp.install(page, idx) {
			if s.vp.reclaim(func(i int) bool { return s.maps[i].valid }) > 0 {
				continue
			}
			victim := s.oldestValidEntry(idx)
			if victim < 0 {
				return // all entries active: fall back to lazy refills
			}
			s.retireEntry(victim)
		}
	}
}

func (s *Stash) oldestValidEntry(except int) int {
	best, bestGen := -1, uint64(0)
	for i := range s.maps {
		e := &s.maps[i]
		if !e.valid || e.active || i == except {
			continue
		}
		if best < 0 || e.generation < bestGen {
			best, bestGen = i, e.generation
		}
	}
	return best
}

// retireEntry writes back any dirty chunks of entry idx and invalidates
// it, releasing its VP-map translations.
func (s *Stash) retireEntry(idx int) {
	s.flushEntryChunks(idx)
	s.maps[idx].valid = false
	s.vp.dropUser(idx)
	s.traceMapOcc()
}

func (s *Stash) flushEntryChunks(idx int) {
	for c := range s.chunkMap {
		if s.chunkMap[c] == idx && (s.chunkDirty[c] || s.chunkWB[c]) {
			s.flushChunk(c)
		}
	}
}

func (s *Stash) invalidateRangeExceptPendingWB(base, nwords int) {
	for off := base; off < base+nwords; off++ {
		c := off >> s.chunkShift
		if s.chunkWB[c] || s.chunkDirty[c] {
			continue // lazy writeback pending; first touch flushes it
		}
		s.state[off] = coh.Invalid
	}
}

// registerLocalDirty sends registration requests for every locally
// owned word of entry idx (the non-coherent-to-coherent ChgMap case).
func (s *Stash) registerLocalDirty(idx int) {
	e := &s.maps[idx]
	plan := s.acquirePlan()
	for off := e.StashBase; off < e.StashBase+e.Words(); off++ {
		if s.state[off] != coh.Registered {
			continue
		}
		va := e.stashToVirt(off)
		pa := s.vp.translate(va)
		fl := plan.getOrInsert(memdata.LineOf(pa))
		fl.soff[memdata.WordIndex(pa)] = int32(off)
		s.state[off] = coh.PendingReg
	}
	for i := range plan.lines {
		s.sendRegReq(&plan.lines[i], idx)
	}
	s.releasePlan(plan)
}

// --- access path ---

func (s *Stash) checkOffsets(offsets []int) {
	for _, off := range offsets {
		if off < 0 || off >= len(s.words) {
			panic(fmt.Sprintf("core: stash offset %d out of range", off))
		}
	}
}

// touchChunk performs the per-access writeback-bit check (Section 4.2):
// an access by mapping idx to a chunk whose pending writeback belongs
// to an older mapping triggers the lazy writeback now.
func (s *Stash) touchChunk(off, idx int) {
	c := off >> s.chunkShift
	if s.chunkWB[c] && s.chunkMap[c] != idx {
		s.flushChunk(c)
	}
}

// Load performs a warp load of the given absolute stash word offsets
// under thread block tb's mapping in table slot. done receives the
// values once every word is resident; hits complete after HitLat times
// the bank-conflict rounds. Both slices are owned by the caller: vals
// is a pooled buffer valid only during the done callback, and offsets
// is not retained past the Load call.
func (s *Stash) Load(tb, slot int, offsets []int, done func(vals []uint32)) {
	s.checkOffsets(offsets)
	idx := s.MapIndex(tb, slot)
	e := &s.maps[idx]
	for _, off := range offsets {
		s.touchChunk(off, idx)
	}

	missing := s.missScratch[:0]
	for _, off := range offsets {
		if s.state[off].Readable() {
			continue
		}
		// Data replication (Section 4.5): on a load miss with the reuse
		// bit set, first try to copy from the replicated old mapping.
		if e.reuseOf >= 0 {
			oldE := &s.maps[e.reuseOf]
			if oldE.valid && oldE.StashBase != e.StashBase {
				oldOff := oldE.StashBase + (off - e.StashBase)
				if oldOff >= 0 && oldOff < len(s.words) && s.state[oldOff].Readable() {
					s.words[off] = s.words[oldOff]
					s.state[off] = coh.Shared
					s.replCopies.Inc()
					// The intra-stash copy reads the old allocation and
					// writes the new one.
					s.acct.Add(energy.StashRead, 1)
					s.acct.Add(energy.StashWrite, 1)
					continue
				}
			}
		}
		missing = append(missing, off)
	}

	rounds := s.banks.Rounds(offsets)
	if len(missing) == 0 {
		s.hits.Inc()
		s.acct.Add(energy.StashRead, uint64(rounds))
		s.deliver(s.p.HitLat*sim.Cycle(rounds)+s.p.ReadExtra, offsets, done)
		return
	}
	s.misses.Inc()
	s.tsnk.Event(uint64(s.eng.Now()), trace.KMiss, uint64(missing[0]), uint64(len(missing)))
	s.trMisses.Add(uint64(s.eng.Now()), 1)
	if len(missing) < len(offsets) {
		// The hit portion still activates the array.
		s.acct.Add(energy.StashRead, uint64(rounds))
	}

	// Miss: translate (six ALU ops through the stash-map plus a VP-map
	// TLB access), then request the missing global lines, compactly
	// filling every still-invalid stash word that maps to each line.
	// Planning a line marks the stash words it covers, so a sibling
	// miss in a planned line is skipped without translating it.
	plan := s.acquirePlan() // global line -> line word -> stash offset
	planned := &s.banks.Marks
	planned.Reset()
	for _, off := range missing {
		if planned.Has(off) {
			continue
		}
		va := e.stashToVirt(off)
		pa := s.vp.translate(va)
		line := memdata.LineOf(pa)
		if plan.lookup(line) != nil {
			continue // already planned by a sibling miss
		}
		fl := plan.insert(line)
		e.lineWords(memdata.VLineOf(va), &fl.soff)
		for w, soff := range fl.soff {
			if soff < 0 {
				continue
			}
			planned.Add(int(soff))
			if s.state[soff] != coh.Invalid {
				fl.soff[w] = -1
			}
		}
	}
	s.missScratch = missing[:0]
	waiter := s.acquireWaiter(offsets, done)
	waiter.plan = plan
	s.eng.Schedule(s.p.TranslateLat, waiter.issue)
}

// issueMiss requests the lines of a load miss's plan once its
// translation delay has passed.
func (s *Stash) issueMiss(w *stashWaiter) {
	plan := w.plan
	w.plan = nil
	attached := false
	// The plan is address-sorted, which keeps line-request issue
	// deterministic (map order would perturb downstream timing run to
	// run).
	for i := range plan.lines {
		if s.requestLine(&plan.lines[i], w) {
			attached = true
		}
	}
	s.releasePlan(plan)
	if !attached {
		// Everything arrived (or was filled by a racing request) between
		// planning and issue; answer from the array.
		s.completeIfReady(w)
		if w.fired && w.attached == 0 {
			s.releaseWaiter(w)
		}
	}
}

// requestLine asks the LLC for the still-missing words of a global
// line, attaching the waiter to the line's MSHR. It reports whether the
// waiter was attached (i.e. the line has outstanding fills).
func (s *Stash) requestLine(fl *fillLine, w *stashWaiter) bool {
	line := fl.line
	need := memdata.WordMask(0)
	m := s.mshrs[line]
	for wi, soff := range fl.soff {
		if soff >= 0 && s.state[soff] == coh.Invalid {
			need |= memdata.Bit(wi)
		}
	}
	if m == nil && need == 0 {
		return false
	}
	if m == nil {
		m = s.acquireMSHR()
		m.line = line
		m.born = s.eng.Now()
		s.mshrs[line] = m
	}
	for wi, soff := range fl.soff {
		if soff >= 0 {
			m.fills[wi] = append(m.fills[wi], soff)
		}
	}
	if newNeed := need &^ m.requested; newNeed != 0 {
		m.requested |= newNeed
		s.missLines.Inc()
		s.acct.Add(energy.StashMiss, 1)
		s.acct.Add(energy.TLBAccess, 1)
		coh.Send(s.net, &coh.Packet{
			Type: coh.ReadReq, Line: line, Mask: newNeed,
			SrcNode: s.node, SrcComp: coh.ToStash,
			DstNode: llc.BankOf(line, s.p.NumLLCBanks), DstComp: coh.ToLLC,
			MapIdx: -1,
		})
	}
	if m.requested == 0 {
		// Nothing is in flight for this line (its fills landed between
		// this access's translation and issue): no future response will
		// recheck a waiter parked here, so do not attach one.
		return false
	}
	m.waiters = append(m.waiters, w)
	w.attached++
	return true
}

// deliver reads the offsets' values now and hands them to done lat
// cycles later, through a pooled loadResult. The values stay valid only
// during the callback.
func (s *Stash) deliver(lat sim.Cycle, offsets []int, done func(vals []uint32)) {
	s.valsOut++
	var r *loadResult
	if n := len(s.resultFree); n > 0 {
		r = s.resultFree[n-1]
		s.resultFree = s.resultFree[:n-1]
	} else {
		r = &loadResult{s: s}
		r.run = r.fire
	}
	vals := r.vals[:0]
	for _, off := range offsets {
		vals = append(vals, s.words[off])
	}
	r.vals, r.done = vals, done
	s.eng.Schedule(lat, r.run)
}

// fire runs the callback, then returns the result to the pool; the
// callback may start another load, which must not reuse these values.
func (r *loadResult) fire() {
	s := r.s
	r.done(r.vals)
	r.done = nil
	s.valsOut--
	s.resultFree = append(s.resultFree, r)
}

// Store performs a warp store. Data is accepted immediately (the warp
// does not block); registration of newly owned words and the chunked
// dirty bookkeeping of Section 4.2 happen in the background.
func (s *Stash) Store(tb, slot int, offsets []int, vals []uint32, done func()) {
	if len(vals) != len(offsets) {
		panic("core: offsets/vals length mismatch")
	}
	s.checkOffsets(offsets)
	idx := s.MapIndex(tb, slot)
	e := &s.maps[idx]
	for _, off := range offsets {
		s.touchChunk(off, idx)
	}

	plan := s.acquirePlan()
	anyMiss := false
	for i, off := range offsets {
		s.words[off] = vals[i]
		if e.Coherent {
			s.noteStore(off, idx)
		}
		if s.state[off].Owned() {
			continue
		}
		if !e.Coherent {
			// Mapped Non-coherent: locally owned, never made visible.
			s.state[off] = coh.Registered
			continue
		}
		s.state[off] = coh.PendingReg
		anyMiss = true
		va := e.stashToVirt(off)
		pa := s.vp.translate(va)
		fl := plan.getOrInsert(memdata.LineOf(pa))
		fl.soff[memdata.WordIndex(pa)] = int32(off)
	}

	rounds := s.banks.Rounds(offsets)
	lat := s.p.HitLat*sim.Cycle(rounds) + s.p.WriteExtra
	if !anyMiss {
		s.hits.Inc()
		s.acct.Add(energy.StashWrite, uint64(rounds))
	} else {
		s.misses.Inc()
		s.acct.Add(energy.StashWrite, uint64(rounds)) // array write itself
		// Registration requests are injected in program order, before
		// any later writeback of the same words can be sent: a WBReq
		// reaching the LLC ahead of its own RegReq would be dropped as
		// stale and strand the registration. The translation occupies
		// the store for TranslateLat instead.
		for i := range plan.lines {
			s.sendRegReq(&plan.lines[i], idx)
		}
		lat += s.p.TranslateLat
	}
	s.releasePlan(plan)
	s.eng.Schedule(lat, done)
}

// noteStore maintains the per-chunk dirty bit, stash-map index and the
// entry's #DirtyData counter (Section 4.2).
func (s *Stash) noteStore(off, idx int) {
	c := off >> s.chunkShift
	if s.chunkDirty[c] && s.chunkMap[c] == idx {
		return
	}
	accounted := (s.chunkDirty[c] || s.chunkWB[c]) && s.chunkMap[c] == idx
	s.chunkDirty[c] = true
	s.chunkMap[c] = idx
	if !accounted {
		s.maps[idx].dirtyData++
	}
}

func (s *Stash) sendRegReq(fl *fillLine, idx int) {
	line := fl.line
	pend := s.pendingReg[line]
	if pend == nil {
		pend = s.acquireRegPend()
		s.pendingReg[line] = pend
	}
	mask := memdata.WordMask(0)
	for wi, soff := range fl.soff {
		if soff < 0 {
			continue
		}
		if len(pend.lists[wi]) == 0 {
			mask |= memdata.Bit(wi)
		}
		pend.lists[wi] = append(pend.lists[wi], soff)
		pend.present |= memdata.Bit(wi)
	}
	if mask == 0 {
		return
	}
	s.outstanding++
	s.acct.Add(energy.StashMiss, 1)
	s.acct.Add(energy.TLBAccess, 1)
	coh.Send(s.net, &coh.Packet{
		Type: coh.RegReq, Line: line, Mask: mask,
		SrcNode: s.node, SrcComp: coh.ToStash,
		DstNode: llc.BankOf(line, s.p.NumLLCBanks), DstComp: coh.ToLLC,
		MapIdx: idx,
	})
}

func (s *Stash) completeIfReady(w *stashWaiter) {
	if w.fired {
		return
	}
	for _, off := range w.offsets {
		if !s.state[off].Readable() {
			return
		}
	}
	w.fired = true
	s.waiterFired = true
	s.deliver(s.p.HitLat+s.p.ReadExtra, w.offsets, w.done)
}

// --- chunked lazy writeback (Section 4.2) ---

// flushChunk writes back the owned words of a chunk through its
// recorded stash-map entry and invalidates the chunk.
func (s *Stash) flushChunk(c int) {
	idx := s.chunkMap[c]
	if idx < 0 {
		return
	}
	e := &s.maps[idx]
	s.lazyFlushes.Inc()
	wb := &s.wbScratch
	wb.lines = wb.lines[:0]
	base := c * s.chunk
	for off := base; off < base+s.chunk; off++ {
		if !s.state[off].Owned() {
			if s.state[off] == coh.Shared {
				s.state[off] = coh.Invalid
			}
			continue
		}
		if off < e.StashBase || off >= e.StashBase+e.Words() {
			s.state[off] = coh.Invalid
			continue
		}
		va := e.stashToVirt(off)
		pa := s.vp.translate(va)
		wl := wb.getOrInsert(memdata.LineOf(pa))
		wl.vals[memdata.WordIndex(pa)] = s.words[off]
		wl.mask |= memdata.Bit(memdata.WordIndex(pa))
		s.state[off] = coh.Invalid
	}
	for i := range wb.lines {
		wl := &wb.lines[i]
		s.writebacks.Inc()
		s.tsnk.Event(uint64(s.eng.Now()), trace.KWriteback, uint64(wl.line), 0)
		s.trWritebacks.Add(uint64(s.eng.Now()), 1)
		s.wbuf.Put(wl.line, wl.mask, wl.vals)
		s.outstanding++
		// Reading the words out of the array for the writeback.
		s.acct.Add(energy.StashRead, 1)
		coh.Send(s.net, &coh.Packet{
			Type: coh.WBReq, Line: wl.line, Mask: wl.mask, Vals: wl.vals,
			SrcNode: s.node, SrcComp: coh.ToStash,
			DstNode: llc.BankOf(wl.line, s.p.NumLLCBanks), DstComp: coh.ToLLC,
			MapIdx: idx,
		})
	}
	wasAccounted := s.chunkDirty[c] || s.chunkWB[c]
	s.chunkDirty[c] = false
	s.chunkWB[c] = false
	s.chunkMap[c] = -1
	if wasAccounted {
		e.dirtyData--
		if e.dirtyData == 0 && e.retired() {
			s.maps[idx].valid = false
		}
	}
}

func (e *mapEntry) retired() bool { return !e.active }

// --- kernel and thread-block boundaries ---

// EndThreadBlock implements the paper's thread-block completion action:
// per-chunk dirty bits of the block's mappings are cleared and their
// writeback bits set, arming lazy writeback; the block's map index
// table is released.
func (s *Stash) EndThreadBlock(tb int) {
	table := s.tables[tb]
	if table == nil {
		return
	}
	for _, idx := range table {
		if idx >= 0 {
			s.blkOwned[idx] = true
			s.maps[idx].active = false
		}
	}
	for c := range s.chunkDirty {
		if s.chunkDirty[c] && s.chunkMap[c] >= 0 && s.blkOwned[s.chunkMap[c]] {
			s.chunkDirty[c] = false
			s.chunkWB[c] = true
		}
	}
	for _, idx := range table {
		if idx >= 0 {
			s.blkOwned[idx] = false
		}
	}
	delete(s.tables, tb)
	s.tableFree = append(s.tableFree, table)
}

// SelfInvalidate implements the kernel-end action of Section 4.3: data
// registered by this stash is kept; everything else is invalidated.
// With EagerWriteback set (ablation), all dirty data is written back
// scratchpad-style instead.
func (s *Stash) SelfInvalidate() {
	if s.p.EagerWriteback {
		s.WritebackAll()
		return
	}
	for off := range s.state {
		if s.state[off] == coh.Shared {
			s.state[off] = coh.Invalid
		}
	}
}

// WritebackAll flushes every dirty or writeback-armed chunk.
func (s *Stash) WritebackAll() {
	for c := range s.chunkMap {
		if s.chunkDirty[c] || s.chunkWB[c] {
			s.flushChunk(c)
		}
	}
}

// Drain calls done once all outstanding fills, registrations, and
// writebacks have been acknowledged.
func (s *Stash) Drain(done func()) {
	s.drainWait = append(s.drainWait, done)
	s.checkDrained()
}

func (s *Stash) checkDrained() {
	// Purge MSHRs whose fills all arrived and whose waiters have fired
	// through a sibling line's MSHR. Only the purge candidates
	// (requested mask zero) can be in that state; scanning the whole
	// MSHR map here made every ack O(outstanding lines).
	if s.waiterFired {
		// A candidate's waiter list only shrinks when a waiter fires,
		// so with the flag clear no candidate can have become
		// collectible since the last sweep and the whole walk is
		// skipped. (A candidate resurrected by a later miss stays
		// listed until the next real sweep unlists it; it is still
		// inPurge, so fill will not double-list it.)
		s.waiterFired = false
		cand := s.purgeCand[:0]
		for _, m := range s.purgeCand {
			if m.requested != 0 {
				m.inPurge = false
				continue
			}
			live := m.waiters[:0]
			for _, w := range m.waiters {
				if !w.fired {
					live = append(live, w)
					continue
				}
				w.attached--
				if w.attached == 0 {
					s.releaseWaiter(w)
				}
			}
			m.waiters = live
			if len(m.waiters) == 0 {
				delete(s.mshrs, m.line)
				s.retireMSHR(m)
			} else {
				cand = append(cand, m)
			}
		}
		s.purgeCand = cand
	}
	if s.outstanding != 0 || len(s.mshrs) != 0 || len(s.drainWait) == 0 {
		return
	}
	w := s.drainWait
	s.drainWait = nil
	for _, fn := range w {
		s.eng.Schedule(0, fn)
	}
}

// --- protocol handling ---

// HandlePacket implements coh.Handler.
func (s *Stash) HandlePacket(p *coh.Packet) {
	switch p.Type {
	case coh.DataResp:
		s.fill(p)
	case coh.RegAck:
		s.regAck(p)
	case coh.WBAck:
		s.wbuf.Release(p.Line, p.Mask)
		s.outstanding--
		s.chk.Progress()
		s.checkDrained()
	case coh.FwdReadReq:
		s.serveRemote(p)
	case coh.OwnerInv:
		s.ownerInv(p)
	default:
		panic("core: unexpected packet " + p.Type.String())
	}
}

func (s *Stash) fill(p *coh.Packet) {
	s.chk.Progress()
	s.tsnk.Event(uint64(s.eng.Now()), trace.KFill, uint64(p.Line), 0)
	m := s.mshrs[p.Line]
	if m == nil {
		return
	}
	for wi := 0; wi < memdata.WordsPerLine; wi++ {
		if !p.Mask.Has(wi) {
			continue
		}
		for _, soff := range m.fills[wi] {
			if s.state[soff] == coh.Invalid {
				s.words[soff] = p.Vals[wi]
				s.state[soff] = coh.Shared
			}
		}
	}
	// The fill installs words into the array: one write access.
	s.acct.Add(energy.StashWrite, 1)
	m.requested &^= p.Mask
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		s.completeIfReady(w)
		if !w.fired {
			remaining = append(remaining, w)
			continue
		}
		w.attached--
		if w.attached == 0 {
			s.releaseWaiter(w)
		}
	}
	m.waiters = remaining
	if m.requested == 0 {
		// The purge in checkDrained retires the MSHR (now, if its
		// waiters are all done, or later once siblings fire them).
		if !m.inPurge {
			m.inPurge = true
			s.purgeCand = append(s.purgeCand, m)
		}
		if len(m.waiters) == 0 {
			s.checkDrained()
		}
	}
}

func (s *Stash) regAck(p *coh.Packet) {
	s.chk.Progress()
	if pend := s.pendingReg[p.Line]; pend != nil {
		for wi := 0; wi < memdata.WordsPerLine; wi++ {
			if !p.Mask.Has(wi) {
				continue
			}
			for _, soff := range pend.lists[wi] {
				if s.state[soff] == coh.PendingReg {
					s.state[soff] = coh.Registered
				}
			}
			pend.lists[wi] = pend.lists[wi][:0]
			pend.present &^= memdata.Bit(wi)
		}
		if pend.present == 0 {
			delete(s.pendingReg, p.Line)
			s.regPendFree = append(s.regPendFree, pend)
		}
	}
	s.outstanding--
	s.checkDrained()
}

// serveRemote answers a forwarded read: the physical address is
// reverse-translated through the VP-map RTLB and located in the stash
// through the stash-map entry recorded at the directory (Section 4.3).
func (s *Stash) serveRemote(p *coh.Packet) {
	s.remote.Inc()
	var vals [memdata.WordsPerLine]uint32
	served := memdata.WordMask(0)

	// In-flight writebacks first (the data may have just left the array).
	bufMask, bufVals := s.wbuf.Lookup(p.Line, p.Mask)
	for wi := 0; wi < memdata.WordsPerLine; wi++ {
		if bufMask.Has(wi) {
			vals[wi] = bufVals[wi]
			served |= memdata.Bit(wi)
		}
	}
	if rem := p.Mask &^ served; rem != 0 {
		e := &s.maps[p.MapIdx]
		for wi := 0; wi < memdata.WordsPerLine; wi++ {
			if !rem.Has(wi) {
				continue
			}
			pa := p.Line + memdata.PAddr(wi*memdata.WordBytes)
			va := s.vp.reverse(pa)
			soff, ok := e.virtToStash(va)
			if !ok || !s.state[soff].Owned() {
				continue
			}
			vals[wi] = s.words[soff]
			served |= memdata.Bit(wi)
		}
	}
	if served != p.Mask {
		panic(fmt.Sprintf("core: stash %d cannot serve forwarded read (line %#x mask %v served %v)",
			s.node, uint64(p.Line), p.Mask, served))
	}
	s.acct.Add(energy.StashRead, 1)
	if s.p.ReadExtra > 0 {
		// Delay the response by the technology's read latency, copying
		// the pooled packet's addressing fields into the closure. All
		// traffic from this stash to the requester is DataResps delayed
		// by the same constant, so per-flow FIFO order is preserved.
		line, mask := p.Line, p.Mask
		reqNode, reqComp := p.ReqNode, p.ReqComp
		s.eng.Schedule(s.p.ReadExtra, func() {
			coh.Send(s.net, &coh.Packet{
				Type: coh.DataResp, Line: line, Mask: mask, Vals: vals,
				SrcNode: s.node, SrcComp: coh.ToStash,
				DstNode: reqNode, DstComp: reqComp,
			})
		})
		return
	}
	coh.Send(s.net, &coh.Packet{
		Type: coh.DataResp, Line: p.Line, Mask: p.Mask, Vals: vals,
		SrcNode: s.node, SrcComp: coh.ToStash,
		DstNode: p.ReqNode, DstComp: p.ReqComp,
	})
}

func (s *Stash) ownerInv(p *coh.Packet) {
	e := &s.maps[p.MapIdx]
	for wi := 0; wi < memdata.WordsPerLine; wi++ {
		if !p.Mask.Has(wi) {
			continue
		}
		pa := p.Line + memdata.PAddr(wi*memdata.WordBytes)
		va := s.vp.reverse(pa)
		if soff, ok := e.virtToStash(va); ok && s.state[soff] == coh.Registered {
			s.state[soff] = coh.Invalid
		}
	}
}

// Peek returns the value and state of a stash word, for tests.
func (s *Stash) Peek(off int) (uint32, coh.State) { return s.words[off], s.state[off] }

// DebugString reports outstanding transaction state, for diagnosing
// hangs. Map iterations are sorted so the dump is deterministic.
func (s *Stash) DebugString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "outstanding=%d mshrs=%d pendingReg=%d wbuf=%d pools(waiters=%d plans=%d vals=%d)",
		s.outstanding, len(s.mshrs), len(s.pendingReg), s.wbuf.Len(),
		s.waitersOut, s.plansOut, s.valsOut)
	lines := make([]memdata.PAddr, 0, len(s.mshrs))
	for line := range s.mshrs {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		m := s.mshrs[line]
		fmt.Fprintf(&sb, "\nmshr %#x req=%04x waiters=%d born=%d", uint64(line), uint16(m.requested), len(m.waiters), m.born)
		for _, w := range m.waiters {
			sb.WriteString(" unmet(")
			for _, off := range w.offsets {
				if !s.state[off].Readable() {
					fmt.Fprintf(&sb, " %d:%v", off, s.state[off])
				}
			}
			sb.WriteString(")")
		}
	}
	lines = lines[:0]
	for line := range s.pendingReg {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		fmt.Fprintf(&sb, "\npending-reg %#x present=%016b", uint64(line), s.pendingReg[line].present)
	}
	return sb.String()
}

// SetChecker attaches the self-check layer; a nil checker (the
// default) costs one nil comparison on each completion.
func (s *Stash) SetChecker(chk *check.Checker) { s.chk = chk }

// SetTrace attaches an event sink. A nil sink (the default) leaves
// every instrumented site a nil-check no-op.
func (s *Stash) SetTrace(snk *trace.Sink) {
	s.tsnk = snk
	s.trMisses = snk.Series("misses")
	s.trWritebacks = snk.Series("writebacks")
	s.trMapOcc = snk.Gauge("map_occupancy")
}

// traceMapOcc samples the stash-map occupancy gauge. The valid-entry
// scan only runs with tracing enabled.
func (s *Stash) traceMapOcc() {
	if s.tsnk == nil {
		return
	}
	n := uint64(0)
	for i := range s.maps {
		if s.maps[i].valid {
			n++
		}
	}
	s.trMapOcc.Set(uint64(s.eng.Now()), n)
}

// Outstanding reports in-flight transactions the stash is waiting on,
// for the watchdog's work-pending gate.
func (s *Stash) Outstanding() int { return s.outstanding + len(s.mshrs) }

// CheckInvariants verifies the stash's structural invariants without
// mutating anything (no LRU, no VP-map refills):
//
//   - a dirty or writeback-armed chunk records a valid stash-map entry;
//   - each entry's #DirtyData equals the number of chunks accounted to
//     it (the Section 4.2 counter that gates entry invalidation);
//   - pendingReg lists agree with their present mask and every listed
//     stash word is in PendingReg state;
//   - every MSHR holds work (requested fills or waiters), is on the
//     purge list once its requests drained, and is no older than
//     ageBound (0 disables the age check);
//   - the writeback buffer conserves its entries.
func (s *Stash) CheckInvariants(now, ageBound sim.Cycle) error {
	counted := make(map[int]int)
	for c := range s.chunkMap {
		if !s.chunkDirty[c] && !s.chunkWB[c] {
			continue
		}
		idx := s.chunkMap[c]
		if idx < 0 {
			return fmt.Errorf("chunk %d dirty/wb with no stash-map entry", c)
		}
		if !s.maps[idx].valid {
			return fmt.Errorf("chunk %d accounted to invalid stash-map entry %d", c, idx)
		}
		counted[idx]++
	}
	for idx := range s.maps {
		if !s.maps[idx].valid {
			continue
		}
		if got, want := s.maps[idx].dirtyData, counted[idx]; got != want {
			return fmt.Errorf("stash-map entry %d: #DirtyData=%d but %d chunks accounted", idx, got, want)
		}
	}
	for line, pend := range s.pendingReg {
		for wi := 0; wi < memdata.WordsPerLine; wi++ {
			if (len(pend.lists[wi]) > 0) != pend.present.Has(wi) {
				return fmt.Errorf("pendingReg %#x word %d: list/present-bit mismatch", uint64(line), wi)
			}
			for _, soff := range pend.lists[wi] {
				if s.state[soff] != coh.PendingReg {
					return fmt.Errorf("pendingReg %#x: stash word %d in state %v, want PendingReg", uint64(line), soff, s.state[soff])
				}
			}
		}
	}
	for line, m := range s.mshrs {
		hasWork := m.requested != 0 || len(m.waiters) > 0
		for wi := range m.fills {
			hasWork = hasWork || len(m.fills[wi]) > 0
		}
		if !hasWork {
			return fmt.Errorf("mshr %#x: no fills, requests, or waiters", uint64(line))
		}
		if m.requested == 0 && !m.inPurge {
			return fmt.Errorf("mshr %#x: requests drained but not on the purge list", uint64(line))
		}
		if ageBound > 0 && m.requested != 0 && now-m.born > ageBound {
			return fmt.Errorf("mshr %#x: age %d exceeds bound %d (requested %016b, %d waiters)",
				uint64(line), now-m.born, ageBound, m.requested, len(m.waiters))
		}
	}
	if s.wbuf.Len() > 0 && s.outstanding == 0 {
		return fmt.Errorf("writeback buffer holds %d lines with nothing outstanding", s.wbuf.Len())
	}
	return s.wbuf.CheckInvariants()
}

// CheckQuiescent verifies the stash has fully drained and conserved
// its pooled objects. It runs at kernel/phase boundaries.
func (s *Stash) CheckQuiescent() error {
	if s.outstanding != 0 {
		return fmt.Errorf("%d transactions still outstanding", s.outstanding)
	}
	if n := len(s.mshrs); n != 0 {
		return fmt.Errorf("%d mshrs still live", n)
	}
	if n := len(s.pendingReg); n != 0 {
		return fmt.Errorf("%d registrations still pending", n)
	}
	if n := s.wbuf.Len(); n != 0 {
		return fmt.Errorf("writeback buffer still holds %d lines", n)
	}
	if s.waitersOut != 0 || s.plansOut != 0 || s.valsOut != 0 {
		return fmt.Errorf("pooled objects leaked: waiters=%d plans=%d vals=%d",
			s.waitersOut, s.plansOut, s.valsOut)
	}
	return nil
}

// PoolCounters reports the pooled objects currently checked out
// (waiters, fill plans, value buffers), for conservation tests.
func (s *Stash) PoolCounters() (waiters, plans, vals int) {
	return s.waitersOut, s.plansOut, s.valsOut
}

// OwnsPA locates the stash word backing physical address pa through
// stash-map entry mapIdx without mutating any translation state.
// found is false when the address cannot be located (invalid entry,
// RTLB reverse-translation not resident, or address outside the
// mapping) — callers performing cross-structure audits must treat
// that as inconclusive, not as a violation; owned reports whether the
// located word is held in an owned state.
func (s *Stash) OwnsPA(pa memdata.PAddr, mapIdx int) (found, owned bool) {
	if mapIdx < 0 || mapIdx >= len(s.maps) || !s.maps[mapIdx].valid {
		return false, false
	}
	va, ok := s.vp.reversePeek(pa)
	if !ok {
		return false, false
	}
	soff, ok := s.maps[mapIdx].virtToStash(va)
	if !ok {
		return false, false
	}
	return true, s.state[soff].Owned()
}

// MapEntryInfo reports a stash-map entry's liveness and #DirtyData, for
// tests and introspection.
func (s *Stash) MapEntryInfo(idx int) (valid bool, dirtyData int) {
	return s.maps[idx].valid, s.maps[idx].dirtyData
}
