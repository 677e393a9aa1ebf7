// Package gpu models a GPU compute unit (CU, analogous to an NVIDIA
// SM): resident thread blocks, 32-lane warps in lockstep, a round-robin
// single-issue warp scheduler, a memory coalescer that groups lane
// accesses into line transactions, block-wide barriers, and the
// AddMap/ChgMap/DMA intrinsics wired to the node's stash, scratchpad
// and DMA engine.
package gpu

import (
	"fmt"
	"math/bits"

	"stash/internal/cache"
	"stash/internal/core"
	"stash/internal/dma"
	"stash/internal/energy"
	"stash/internal/isa"
	"stash/internal/memdata"
	"stash/internal/scratch"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/trace"
	"stash/internal/vm"
)

// Params configures a CU.
type Params struct {
	WarpSize  int // lanes per warp
	MaxBlocks int // resident thread blocks (Table 2 discussion: up to 8)
}

// DefaultParams returns the paper's CU configuration.
func DefaultParams() Params { return Params{WarpSize: 32, MaxBlocks: 8} }

// Kernel is a launched grid: every thread block runs Prog.
//
// LocalWordsPerBlock is the scratchpad/stash allocation of one thread
// block in words. As on real GPUs, the runtime assigns each resident
// block a slot in the local SRAM and rebases the program's block-
// relative local addresses (and AddMap/DMA stash bases) onto it; the
// number of concurrently resident blocks is limited by the allocation
// (occupancy), exactly like CUDA shared-memory pressure.
type Kernel struct {
	Prog               *isa.Program
	BlockDim           int // threads per block
	GridDim            int // total blocks in the grid (across all CUs)
	LocalWordsPerBlock int
}

type warpState int

const (
	wReady warpState = iota
	wBlocked
	wBarrier
	wDone
)

type warpCtx struct {
	warp  *isa.Warp
	state warpState // written through CU.setState once in the warp list
	idx   int       // position in CU.warpList, the warp's bit in CU.ready
	block *blockCtx
	pend  *isa.Pending // in-flight access awaiting a bound callback

	// tid is a deterministic warp identity (block id and warp index)
	// pairing stall/resume trace spans; stalled marks an open span.
	tid     uint64
	stalled bool

	// Bound once when the warpCtx is created (contexts are pooled with
	// their block), so blocking and local-memory completions never
	// allocate closures.
	unblockFn     func()
	stashLoadDone func(vals []uint32)
}

type blockCtx struct {
	id        int // global block id (CTAID)
	slot      int // resident slot: selects the block's local SRAM region
	localBase int // first local word of the block's allocation
	warps     []*warpCtx
	alive     int // warps not yet done
	waiting   int // warps at the current barrier
}

// CU is one GPU compute unit.
type CU struct {
	eng  *sim.Engine
	node int
	p    Params
	as   *vm.AddressSpace
	acct *energy.Account

	l1     *cache.Cache
	sp     *scratch.Scratchpad
	stash  *core.Stash
	dmaEng *dma.Engine

	kernel      *Kernel
	pending     []int // block ids still to dispatch
	resident    []*blockCtx
	warpList    []*warpCtx // flattened resident warps (scheduler view)
	ready       []uint64   // bit i set while warpList[i] is wReady
	maxResident int        // MaxBlocks clamped by local-memory occupancy
	freeSlots   []int      // available local SRAM slots
	rrCursor    int
	dmaBlocked  bool
	scheduled   bool
	kernelDone  func()

	accessFree []*gmemAccess // pooled in-flight coalesced accesses
	lineOpFree []*lineOp     // pooled per-line L1 completion callbacks
	blockFree  []*blockCtx   // retired block contexts, warps included
	offScratch []int         // reused local-offset buffer
	tickFn     func()        // c.tick, bound once
	dmaResume  func()        // DMA-unblock callback, bound once

	instrs     *stats.Counter
	cycles     *stats.Counter
	coalesced  *stats.Counter
	blocksDone *stats.Counter

	tsnk       *trace.Sink
	trInstrs   *trace.Series
	trResident *trace.Series
}

// New builds a CU. sp, stash and dmaEng may each be nil when the
// simulated configuration lacks that structure; executing an
// instruction that needs a missing structure panics, which is always a
// workload/configuration mismatch.
func New(eng *sim.Engine, node int, name string, p Params, as *vm.AddressSpace,
	l1 *cache.Cache, sp *scratch.Scratchpad, st *core.Stash, dmaEng *dma.Engine,
	acct *energy.Account, set *stats.Set) *CU {
	c := &CU{
		eng:        eng,
		node:       node,
		p:          p,
		as:         as,
		acct:       acct,
		l1:         l1,
		sp:         sp,
		stash:      st,
		dmaEng:     dmaEng,
		instrs:     set.Counter(fmt.Sprintf("cu.%s.instructions", name)),
		cycles:     set.Counter(fmt.Sprintf("cu.%s.issue_cycles", name)),
		coalesced:  set.Counter(fmt.Sprintf("cu.%s.global_transactions", name)),
		blocksDone: set.Counter(fmt.Sprintf("cu.%s.blocks", name)),
	}
	c.tickFn = c.tick
	c.dmaResume = func() {
		c.dmaBlocked = false
		c.wake()
	}
	return c
}

// Stash returns the CU's stash (nil if the configuration has none).
func (c *CU) Stash() *core.Stash { return c.stash }

// Scratchpad returns the CU's scratchpad (nil if none).
func (c *CU) Scratchpad() *scratch.Scratchpad { return c.sp }

// L1 returns the CU's L1 cache.
func (c *CU) L1() *cache.Cache { return c.l1 }

// DMA returns the CU's DMA engine (nil if none).
func (c *CU) DMA() *dma.Engine { return c.dmaEng }

// Launch runs blocks [firstBlock, firstBlock+numBlocks) of kernel k on
// this CU and calls done when every block has finished and the L1 and
// stash have drained their outstanding protocol transactions.
func (c *CU) Launch(k *Kernel, firstBlock, numBlocks int, done func()) {
	if c.kernel != nil {
		panic("gpu: CU already running a kernel")
	}
	c.kernel = k
	c.kernelDone = done
	c.maxResident = c.p.MaxBlocks
	if k.LocalWordsPerBlock > 0 {
		localWords := 0
		if c.stash != nil {
			localWords = c.stash.Words()
		} else if c.sp != nil {
			localWords = c.sp.Words()
		}
		if localWords > 0 {
			if k.LocalWordsPerBlock > localWords {
				panic(fmt.Sprintf("gpu: block needs %d local words, SRAM has %d", k.LocalWordsPerBlock, localWords))
			}
			if byOcc := localWords / k.LocalWordsPerBlock; byOcc < c.maxResident {
				c.maxResident = byOcc
			}
		}
	}
	c.freeSlots = c.freeSlots[:0]
	for s := c.maxResident - 1; s >= 0; s-- {
		c.freeSlots = append(c.freeSlots, s) // pop order: slot 0 first
	}
	c.pending = c.pending[:0]
	for b := 0; b < numBlocks; b++ {
		c.pending = append(c.pending, firstBlock+b)
	}
	c.fillResident()
	if len(c.resident) == 0 {
		// Empty launch.
		c.finishKernel()
		return
	}
	c.wake()
}

func (c *CU) fillResident() {
	changed := false
	for len(c.resident) < c.maxResident && len(c.pending) > 0 {
		id := c.pending[0]
		c.pending = c.pending[1:]
		c.resident = append(c.resident, c.newBlock(id))
		changed = true
	}
	if changed {
		c.rebuildWarpList()
		c.trResident.Set(uint64(c.eng.Now()), uint64(len(c.resident)))
	}
}

// newBlock builds (or reuses, from the block pool) a resident block
// context: block launches in steady state reuse prior blocks' warp
// contexts, warps and register files in place.
func (c *CU) newBlock(id int) *blockCtx {
	k := c.kernel
	slot := c.freeSlots[len(c.freeSlots)-1]
	c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
	numWarps := (k.BlockDim + c.p.WarpSize - 1) / c.p.WarpSize
	var b *blockCtx
	if n := len(c.blockFree); n > 0 {
		b = c.blockFree[n-1]
		c.blockFree = c.blockFree[:n-1]
	} else {
		b = &blockCtx{}
	}
	b.id, b.slot, b.localBase = id, slot, slot*k.LocalWordsPerBlock
	b.alive, b.waiting = numWarps, 0
	b.warps = b.warps[:0]
	for wi := 0; wi < numWarps; wi++ {
		cfg := isa.WarpConfig{
			Width:       c.p.WarpSize,
			BlockDim:    k.BlockDim,
			BlockID:     id,
			GridDim:     k.GridDim,
			WarpID:      wi,
			FirstThread: wi * c.p.WarpSize,
		}
		var wc *warpCtx
		if len(b.warps) < cap(b.warps) {
			b.warps = b.warps[:len(b.warps)+1]
			wc = b.warps[wi]
		}
		if wc == nil {
			wc = &warpCtx{block: b}
			wc.unblockFn = func() { c.unblock(wc) }
			wc.stashLoadDone = func(vals []uint32) {
				wc.warp.CompleteLoad(wc.pend, vals)
				c.unblock(wc)
			}
			if wi < len(b.warps) {
				b.warps[wi] = wc
			} else {
				b.warps = append(b.warps, wc)
			}
		}
		wc.block = b
		wc.state = wReady
		wc.pend = nil
		wc.tid = uint64(id)<<8 | uint64(wi)
		wc.stalled = false
		if wc.warp == nil {
			wc.warp = isa.NewWarp(k.Prog, cfg)
		} else {
			wc.warp.Reset(k.Prog, cfg)
		}
	}
	return b
}

// SetTrace attaches an event sink; a nil sink (the default) keeps the
// issue path a nil-check no-op.
func (c *CU) SetTrace(snk *trace.Sink) {
	c.tsnk = snk
	c.trInstrs = snk.Series("instructions")
	c.trResident = snk.Gauge("resident_blocks")
}

// wake schedules an issue slot if one is not already scheduled.
func (c *CU) wake() {
	if c.scheduled || c.kernel == nil {
		return
	}
	c.scheduled = true
	c.eng.Schedule(1, c.tickFn)
}

func (c *CU) rebuildWarpList() {
	c.warpList = c.warpList[:0]
	for _, b := range c.resident {
		c.warpList = append(c.warpList, b.warps...)
	}
	c.ready = append(c.ready[:0], make([]uint64, (len(c.warpList)+63)/64)...)
	for i, w := range c.warpList {
		w.idx = i
		c.setState(w, w.state)
	}
	c.rrCursor = 0
}

// setState moves a warp in the warp list to state st, keeping its
// ready bit in step.
func (c *CU) setState(wc *warpCtx, st warpState) {
	wc.state = st
	bit := uint64(1) << (wc.idx & 63)
	if st == wReady {
		c.ready[wc.idx>>6] |= bit
	} else {
		c.ready[wc.idx>>6] &^= bit
	}
}

// nextReady returns the first ready warp at or after the round-robin
// cursor, wrapping once around the warp list, and moves the cursor past
// it.
func (c *CU) nextReady() *warpCtx {
	r := c.ready
	if len(r) == 0 {
		return nil
	}
	k := c.rrCursor >> 6
	if w := r[k] >> (c.rrCursor & 63); w != 0 {
		return c.pick(c.rrCursor + bits.TrailingZeros64(w))
	}
	for j := k + 1; j < len(r); j++ {
		if r[j] != 0 {
			return c.pick(j<<6 + bits.TrailingZeros64(r[j]))
		}
	}
	for j := 0; j <= k; j++ { // word k again: only bits below the cursor are left
		if r[j] != 0 {
			return c.pick(j<<6 + bits.TrailingZeros64(r[j]))
		}
	}
	return nil
}

func (c *CU) pick(i int) *warpCtx {
	c.rrCursor = i + 1
	if c.rrCursor == len(c.warpList) {
		c.rrCursor = 0
	}
	return c.warpList[i]
}

// tick issues at most one instruction from one ready warp.
func (c *CU) tick() {
	c.scheduled = false
	if c.kernel == nil || c.dmaBlocked {
		return
	}
	wc := c.nextReady()
	if wc == nil {
		return // a completion callback will wake us
	}
	c.cycles.Inc()
	p := wc.warp.Step()
	if p.Kind != isa.PendDone {
		// GPU warps run with FuseALU off (per-cycle warp interleaving
		// makes fusion timing-visible), so Fused is 1; counting it keeps
		// the instruction accounting exact if that ever changes.
		c.instrs.Add(uint64(p.Fused))
		c.trInstrs.Add(uint64(c.eng.Now()), uint64(p.Fused))
		c.acct.Add(energy.GPUInst, uint64(p.Fused))
	}
	switch p.Kind {
	case isa.PendALU:
		if p.Cycles > 1 {
			c.setState(wc, wBlocked)
			c.eng.Schedule(sim.Cycle(p.Cycles), wc.unblockFn)
		}
	case isa.PendLoad:
		c.issueLoad(wc, p)
	case isa.PendStore:
		c.issueStore(wc, p)
	case isa.PendBarrier:
		c.barrier(wc)
	case isa.PendAddMap, isa.PendChgMap:
		c.mapIntrinsic(wc, p)
	case isa.PendDMALoad, isa.PendDMAStore:
		c.dmaIntrinsic(wc, p)
	case isa.PendDone:
		c.warpDone(wc)
	}
	c.wake()
}

func (c *CU) unblock(wc *warpCtx) {
	if wc.state == wBlocked {
		c.setState(wc, wReady)
		if wc.stalled {
			wc.stalled = false
			c.tsnk.Event(uint64(c.eng.Now()), trace.KWarpResume, wc.tid, 0)
		}
	}
	c.wake()
}

// traceStall opens a stall span for a warp blocking on memory. The
// span closes in unblock; the stalled flag is only ever set with
// tracing enabled, so pairs always match.
func (c *CU) traceStall(wc *warpCtx) {
	if c.tsnk == nil {
		return
	}
	wc.stalled = true
	c.tsnk.Event(uint64(c.eng.Now()), trace.KWarpStall, wc.tid, 0)
}

// --- memory ---

type laneTarget struct {
	lane int
	line memdata.PAddr
	word int
}

// gmemAccess is the in-flight state of one coalesced global warp
// access: line transactions sorted by address, per-line data, and the
// per-lane targets. Accesses are pooled on the CU — several warps'
// accesses are typically outstanding at once — and every slice keeps
// its capacity across reuses, so coalescing allocates nothing in steady
// state.
type gmemAccess struct {
	lines     []memdata.PAddr
	masks     []memdata.WordMask
	vals      [][memdata.WordsPerLine]uint32 // load results / store data per line
	targets   []laneTarget
	out       []uint32 // load completion buffer
	remaining int
	wc        *warpCtx     // issuing warp, unblocked on completion
	pend      *isa.Pending // warp access completed when remaining hits 0
}

// lineOp is the pooled completion callback for one line transaction of
// a coalesced access: load and store callbacks are bound once when the
// op is created, so issuing a line to the L1 allocates nothing.
type lineOp struct {
	a     *gmemAccess
	li    int
	load  func(vals [memdata.WordsPerLine]uint32)
	store func()
}

func (c *CU) newLineOp(a *gmemAccess, li int) *lineOp {
	var op *lineOp
	if n := len(c.lineOpFree); n > 0 {
		op = c.lineOpFree[n-1]
		c.lineOpFree = c.lineOpFree[:n-1]
	} else {
		op = &lineOp{}
		op.load = func(vals [memdata.WordsPerLine]uint32) { c.lineLoaded(op, vals) }
		op.store = func() { c.lineStored(op) }
	}
	op.a, op.li = a, li
	return op
}

func (c *CU) lineLoaded(op *lineOp, vals [memdata.WordsPerLine]uint32) {
	a, li := op.a, op.li
	op.a = nil
	c.lineOpFree = append(c.lineOpFree, op)
	a.vals[li] = vals
	a.remaining--
	if a.remaining > 0 {
		return
	}
	out := a.out[:0]
	for _, tg := range a.targets {
		out = append(out, a.vals[a.findLine(tg.line)][tg.word])
	}
	a.out = out
	wc, p := a.wc, a.pend
	wc.warp.CompleteLoad(p, out)
	c.releaseAccess(a)
	c.unblock(wc)
}

func (c *CU) lineStored(op *lineOp) {
	a := op.a
	op.a = nil
	c.lineOpFree = append(c.lineOpFree, op)
	a.remaining--
	if a.remaining == 0 {
		wc := a.wc
		c.releaseAccess(a)
		c.unblock(wc)
	}
}

// lineIndex returns line's index, inserting it in sorted position if
// new. Sorted issue order replaces the old sorted-map-keys pass.
func (a *gmemAccess) lineIndex(line memdata.PAddr) int {
	pos := len(a.lines)
	for i, l := range a.lines {
		if l == line {
			return i
		}
		if line < l {
			pos = i
			break
		}
	}
	a.lines = append(a.lines, 0)
	a.masks = append(a.masks, 0)
	a.vals = append(a.vals, [memdata.WordsPerLine]uint32{})
	copy(a.lines[pos+1:], a.lines[pos:len(a.lines)-1])
	copy(a.masks[pos+1:], a.masks[pos:len(a.masks)-1])
	copy(a.vals[pos+1:], a.vals[pos:len(a.vals)-1])
	a.lines[pos] = line
	a.masks[pos] = 0
	a.vals[pos] = [memdata.WordsPerLine]uint32{}
	return pos
}

func (a *gmemAccess) findLine(line memdata.PAddr) int {
	for i, l := range a.lines {
		if l == line {
			return i
		}
	}
	panic("gpu: lane target line missing from coalesced access")
}

func (c *CU) acquireAccess() *gmemAccess {
	if n := len(c.accessFree); n > 0 {
		a := c.accessFree[n-1]
		c.accessFree = c.accessFree[:n-1]
		return a
	}
	return &gmemAccess{}
}

func (c *CU) releaseAccess(a *gmemAccess) {
	a.lines = a.lines[:0]
	a.masks = a.masks[:0]
	a.vals = a.vals[:0]
	a.targets = a.targets[:0]
	a.wc, a.pend = nil, nil
	c.accessFree = append(c.accessFree, a)
}

// coalesceGlobal translates and groups the lanes' byte addresses into
// line transactions, keeping the lines sorted by address.
func (c *CU) coalesceGlobal(p *isa.Pending) *gmemAccess {
	a := c.acquireAccess()
	for i, addr := range p.Addrs {
		pa := c.as.Translate(memdata.VAddr(addr))
		line := memdata.LineOf(pa)
		w := memdata.WordIndex(pa)
		a.masks[a.lineIndex(line)] |= memdata.Bit(w)
		a.targets = append(a.targets, laneTarget{lane: p.Lanes[i], line: line, word: w})
	}
	return a
}

func (c *CU) issueLoad(wc *warpCtx, p *isa.Pending) {
	switch p.Space {
	case isa.Global:
		a := c.coalesceGlobal(p)
		a.wc, a.pend = wc, p
		c.setState(wc, wBlocked)
		c.traceStall(wc)
		a.remaining = len(a.lines)
		// Transactions issue in address order (the access keeps its
		// lines sorted): any other order would leak into MSHR allocation
		// and bank timing, making cycle counts vary across runs of the
		// same deterministic simulation.
		for li := range a.lines {
			c.coalesced.Inc()
			op := c.newLineOp(a, li)
			c.l1.Load(a.lines[li], a.masks[li], op.load)
		}
	case isa.Shared:
		offsets := c.intOffsets(p.Addrs, wc.block.localBase)
		vals, lat := c.sp.Load(offsets)
		wc.warp.CompleteLoad(p, vals)
		if lat > 1 {
			c.setState(wc, wBlocked)
			c.eng.Schedule(lat, wc.unblockFn)
		}
	case isa.Stash:
		c.setState(wc, wBlocked)
		c.traceStall(wc)
		wc.pend = p
		c.stash.Load(wc.block.id, p.Slot, c.intOffsets(p.Addrs, wc.block.localBase), wc.stashLoadDone)
	}
}

func (c *CU) issueStore(wc *warpCtx, p *isa.Pending) {
	switch p.Space {
	case isa.Global:
		a := c.coalesceGlobal(p)
		a.wc = wc
		for i, tg := range a.targets {
			a.vals[a.findLine(tg.line)][tg.word] = p.Vals[i]
		}
		// The warp blocks until the L1 accepts every transaction (it
		// may replay under MSHR/store-buffer pressure); acceptance
		// order preserves the warp's same-address store ordering.
		c.setState(wc, wBlocked)
		c.traceStall(wc)
		a.remaining = len(a.lines)
		for li := range a.lines {
			c.coalesced.Inc()
			op := c.newLineOp(a, li)
			c.l1.Store(a.lines[li], a.masks[li], a.vals[li], op.store)
		}
	case isa.Shared:
		lat := c.sp.Store(c.intOffsets(p.Addrs, wc.block.localBase), p.Vals)
		if lat > 1 {
			c.setState(wc, wBlocked)
			c.eng.Schedule(lat, wc.unblockFn)
		}
	case isa.Stash:
		c.stash.Store(wc.block.id, p.Slot, c.intOffsets(p.Addrs, wc.block.localBase), p.Vals, noopDone)
	}
}

// noopDone is the shared no-op completion for stash stores: the warp
// does not block on them.
var noopDone = func() {}

// intOffsets rebases block-relative local word offsets onto the block's
// SRAM slot (the runtime address mapping of paper Section 4). The
// result is the CU's reused scratch buffer: neither the scratchpad nor
// the stash retains it past the call it is passed to.
func (c *CU) intOffsets(addrs []uint64, localBase int) []int {
	out := c.offScratch[:0]
	for _, a := range addrs {
		out = append(out, int(a)+localBase)
	}
	c.offScratch = out
	return out
}

// --- control ---

func (c *CU) barrier(wc *warpCtx) {
	b := wc.block
	c.setState(wc, wBarrier)
	b.waiting++
	if b.waiting < b.alive {
		return
	}
	b.waiting = 0
	for _, w := range b.warps {
		if w.state == wBarrier {
			c.setState(w, wReady)
		}
	}
}

func (c *CU) mapIntrinsic(wc *warpCtx, p *isa.Pending) {
	// Executed once per thread block, by warp 0 (other warps treat the
	// instruction as a NOP so every warp sees the same program).
	if wc.warp != wc.block.warps[0].warp {
		return
	}
	if c.stash == nil {
		panic("gpu: AddMap/ChgMap without a stash in this configuration")
	}
	m := p.Map
	m.StashBase += wc.block.localBase
	if p.Kind == isa.PendAddMap {
		c.stash.AddMap(wc.block.id, p.Slot, m)
	} else {
		c.stash.ChgMap(wc.block.id, p.Slot, m)
	}
}

func (c *CU) dmaIntrinsic(wc *warpCtx, p *isa.Pending) {
	if wc.warp != wc.block.warps[0].warp {
		return
	}
	if c.dmaEng == nil {
		panic("gpu: DMA instruction without a DMA engine in this configuration")
	}
	// D2MA-style: the transfer blocks the CU at core granularity.
	c.dmaBlocked = true
	resume := c.dmaResume
	m := p.Map
	m.StashBase += wc.block.localBase
	if p.Kind == isa.PendDMALoad {
		c.dmaEng.Load(m, resume)
	} else {
		c.dmaEng.Store(m, resume)
	}
}

func (c *CU) warpDone(wc *warpCtx) {
	if wc.state == wDone {
		return
	}
	c.setState(wc, wDone)
	b := wc.block
	b.alive--
	// A barrier may now be satisfiable.
	if b.alive > 0 && b.waiting == b.alive {
		b.waiting = 0
		for _, w := range b.warps {
			if w.state == wBarrier {
				c.setState(w, wReady)
			}
		}
	}
	if b.alive > 0 {
		return
	}
	// Block complete: arm lazy writebacks and release its stash table.
	if c.stash != nil {
		c.stash.EndThreadBlock(b.id)
	}
	c.blocksDone.Inc()
	c.freeSlots = append(c.freeSlots, b.slot)
	for i, rb := range c.resident {
		if rb == b {
			c.resident = append(c.resident[:i], c.resident[i+1:]...)
			break
		}
	}
	c.blockFree = append(c.blockFree, b)
	c.rebuildWarpList()
	c.trResident.Set(uint64(c.eng.Now()), uint64(len(c.resident)))
	c.fillResident()
	if len(c.resident) == 0 && len(c.pending) == 0 {
		c.finishKernel()
	}
}

func (c *CU) finishKernel() {
	done := c.kernelDone
	c.kernel = nil
	c.kernelDone = nil
	// Drain outstanding registrations and writebacks before reporting
	// kernel completion (the kernel's stores must be globally ordered
	// before the next phase begins).
	remaining := 1 // guard released below, after all drains registered
	finish := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	if c.stash != nil {
		remaining++
		c.stash.Drain(finish)
	}
	remaining++
	c.l1.Drain(finish)
	finish()
}

// DebugString reports the CU's scheduling state, for diagnosing hangs.
func (c *CU) DebugString() string {
	if c.kernel == nil {
		return "idle"
	}
	s := fmt.Sprintf("dmaBlocked=%v scheduled=%v pending=%d resident=%d [", c.dmaBlocked, c.scheduled, len(c.pending), len(c.resident))
	for _, b := range c.resident {
		s += fmt.Sprintf("blk%d(slot%d alive%d wait%d:", b.id, b.slot, b.alive, b.waiting)
		for _, w := range b.warps {
			s += fmt.Sprintf(" %d@pc%d", w.state, w.warp.PC())
		}
		s += ") "
	}
	return s + "]"
}

// SelfInvalidate applies the kernel-boundary self-invalidation to the
// CU's L1 and stash (DeNovo synchronization; Section 4.3).
func (c *CU) SelfInvalidate() {
	c.l1.SelfInvalidate()
	if c.stash != nil {
		c.stash.SelfInvalidate()
	}
}
