package isa

import (
	"fmt"

	"stash/internal/core"
	"stash/internal/memdata"
)

// WarpConfig positions a warp within its grid and selects execution
// options.
type WarpConfig struct {
	Width       int // lanes per warp (32 on the GPU, 1 on a CPU core)
	BlockDim    int // threads per block
	BlockID     int
	GridDim     int
	WarpID      int // warp index within the block
	FirstThread int // block-relative thread index of lane 0

	// FuseALU lets Step execute a maximal straight-line run of
	// single-cycle ALU instructions as one fused superinstruction: a
	// single PendALU with Cycles and Fused equal to the run length.
	// This is timing-exact only for cores that retire ALU work
	// in-order with nothing else contending for the issue slot (the
	// CPU cores); a GPU CU interleaves warps per-cycle, so fusing
	// there would change the issue schedule.
	FuseALU bool
}

// PendKind classifies what a Step produced.
type PendKind int

// Step results.
const (
	PendALU      PendKind = iota // executed inline; costs Cycles (>=1)
	PendLoad                     // memory load awaiting data
	PendStore                    // memory store to issue
	PendBarrier                  // block-wide synchronization point
	PendAddMap                   // stash AddMap intrinsic
	PendChgMap                   // stash ChgMap intrinsic
	PendDMALoad                  // blocking DMA preload
	PendDMAStore                 // blocking DMA writeout
	PendDone                     // program finished
)

// Pending describes the work a Step handed to the core model.
//
// Aliasing contract: the Pending returned by Step is the warp's own
// reused buffer. It — including the Lanes/Addrs/Vals slices — is valid
// only until the next Step (or Reset) on the same warp; callers that
// need the data longer must copy it out. CompleteLoad may be called
// with the same aliased Pending before the next Step.
//
// A PendALU result sets only Kind, Cycles and Fused; its other fields
// keep whatever an earlier Step left there and mean nothing. Every
// other kind sets all fields.
type Pending struct {
	Kind   PendKind
	Space  Space
	Slot   int
	Lanes  []int    // active lane indices
	Addrs  []uint64 // per active lane: global byte address, or space word offset
	Vals   []uint32 // per active lane: store values
	DstReg int      // load destination register
	Map    core.MapParams
	Cycles int // ALU occupancy (1 for simple ops, Imm for Flops, run length when fused)
	Fused  int // instructions retired by this Step (1, or run length when fused)
}

type ifFrame struct {
	saved      []bool
	cond       []bool
	savedCount int // activeCount to restore at EndIf
}

type forFrame struct {
	start int // index of the OpFor
	iter  int64
	count int64
}

// Warp interprets a program over Width lanes in lockstep with
// structured divergence. Arithmetic is 32-bit; comparisons are signed.
// It dispatches through the program's compiled execution plan (see
// compile.go).
type Warp struct {
	prog        *Program
	plan        *plan
	cfg         WarpConfig
	pc          int
	regs        []uint32 // lane l's register r is regs[l*stride+r]
	stride      int
	active      []bool
	activeCount int // number of true entries in active, maintained O(1)
	fuse        bool
	ifs         []ifFrame
	fors        []forFrame
	done        bool
	pend        Pending // reused Step result; valid until the next Step
}

// NewWarp creates a warp at the start of prog. Lanes whose thread index
// falls outside the block are permanently inactive.
func NewWarp(prog *Program, cfg WarpConfig) *Warp {
	w := &Warp{}
	w.Reset(prog, cfg)
	return w
}

// Reset reinitializes the warp in place for a new program position,
// reusing its register file and frame stacks; cores pool warps across
// block launches through it.
func (w *Warp) Reset(prog *Program, cfg WarpConfig) {
	w.prog = prog
	w.plan = prog.mustPlan()
	w.cfg = cfg
	w.fuse = cfg.FuseALU
	w.pc = 0
	w.done = false
	w.stride = prog.Regs
	need := cfg.Width * prog.Regs
	if cap(w.regs) < need {
		w.regs = make([]uint32, need)
	} else {
		w.regs = w.regs[:need]
		clear(w.regs)
	}
	if cap(w.active) < cfg.Width {
		w.active = make([]bool, cfg.Width)
	} else {
		w.active = w.active[:cfg.Width]
	}
	n := 0
	for l := 0; l < cfg.Width; l++ {
		a := cfg.FirstThread+l < cfg.BlockDim
		w.active[l] = a
		if a {
			n++
		}
	}
	w.activeCount = n
	w.ifs = w.ifs[:0]
	w.fors = w.fors[:0]
}

func (w *Warp) lane(l int) []uint32 {
	return w.regs[l*w.stride : (l+1)*w.stride]
}

// fullyActive reports whether every lane is active, in O(1).
func (w *Warp) fullyActive() bool { return w.activeCount == len(w.active) }

// pushIf grows the if-frame stack by one, reusing the frame's lane
// slices from an earlier push when the capacity is already there.
func (w *Warp) pushIf() *ifFrame {
	if len(w.ifs) < cap(w.ifs) {
		w.ifs = w.ifs[:len(w.ifs)+1]
	} else {
		w.ifs = append(w.ifs, ifFrame{})
	}
	fr := &w.ifs[len(w.ifs)-1]
	if cap(fr.saved) < w.cfg.Width {
		fr.saved = make([]bool, w.cfg.Width)
		fr.cond = make([]bool, w.cfg.Width)
	} else {
		fr.saved = fr.saved[:w.cfg.Width]
		fr.cond = fr.cond[:w.cfg.Width]
	}
	return fr
}

// newPend resets and returns the warp's reusable Pending.
func (w *Warp) newPend(kind PendKind) *Pending {
	p := &w.pend
	*p = Pending{Kind: kind, Lanes: p.Lanes[:0], Addrs: p.Addrs[:0], Vals: p.Vals[:0], Fused: 1}
	return p
}

// aluPend is the common inline-ALU Step result. It writes only the
// fields a PendALU defines (see Pending).
func (w *Warp) aluPend(cycles int) *Pending {
	p := &w.pend
	p.Kind, p.Cycles, p.Fused = PendALU, cycles, 1
	return p
}

// Done reports whether the warp has finished its program.
func (w *Warp) Done() bool { return w.done }

// PC returns the current program counter, for debugging.
func (w *Warp) PC() int { return w.pc }

func (w *Warp) special(s Spec, lane int) uint32 {
	switch s {
	case SpecTid:
		return uint32(w.cfg.FirstThread + lane)
	case SpecNtid:
		return uint32(w.cfg.BlockDim)
	case SpecCtaid:
		return uint32(w.cfg.BlockID)
	case SpecNctaid:
		return uint32(w.cfg.GridDim)
	case SpecLane:
		return uint32(lane)
	case SpecWarpID:
		return uint32(w.cfg.WarpID)
	}
	panic("isa: unknown special register")
}

func (w *Warp) firstActive() int {
	if w.activeCount == 0 {
		return -1
	}
	if w.fullyActive() {
		return 0
	}
	for l, a := range w.active {
		if a {
			return l
		}
	}
	return -1
}

// Step executes one instruction (or, with FuseALU, one fused run of
// ALU instructions) and reports what happened. For memory and
// intrinsic operations the caller performs the work; loads must be
// completed with CompleteLoad before the warp steps again.
//
// The returned Pending is the warp's own reused buffer — see the
// aliasing contract on Pending. It is valid only until the next Step.
func (w *Warp) Step() *Pending {
	if w.done {
		return w.newPend(PendDone)
	}
	u := &w.plan.ops[w.pc]
	switch u.kind {
	case opALU:
		if w.fuse && u.fuseLen > 1 {
			run := w.plan.ops[w.pc : w.pc+u.fuseLen]
			for i := range run {
				v := &run[i]
				v.apply(w, v)
			}
			w.pc += len(run)
			p := w.aluPend(len(run))
			p.Fused = len(run)
			return p
		}
		u.apply(w, u)
		w.pc++
		return w.aluPend(1)

	case opFlops:
		w.pc++
		return w.aluPend(u.cycles)

	case opLoad:
		p := w.planMem(u, false)
		w.pc++
		return p

	case opStore:
		p := w.planMem(u, true)
		w.pc++
		return p

	case opIf:
		fr := w.pushIf()
		copy(fr.saved, w.active)
		fr.savedCount = w.activeCount
		n := 0
		if w.fullyActive() {
			for l := range w.active {
				c := w.lane(l)[u.ra] != 0
				fr.cond[l] = c
				if c {
					n++
				}
			}
		} else {
			for l := range w.active {
				c := w.active[l] && w.lane(l)[u.ra] != 0
				fr.cond[l] = c
				if c {
					n++
				}
			}
		}
		copy(w.active, fr.cond)
		w.activeCount = n
		if n > 0 {
			w.pc++
		} else {
			w.pc = u.target // skip straight to Else/EndIf
		}
		return w.aluPend(1)

	case opElse:
		fr := &w.ifs[len(w.ifs)-1]
		n := 0
		for l := range w.active {
			a := fr.saved[l] && !fr.cond[l]
			w.active[l] = a
			if a {
				n++
			}
		}
		w.activeCount = n
		if n > 0 {
			w.pc++
		} else {
			w.pc = u.target // skip to EndIf
		}
		return w.aluPend(1)

	case opEndIf:
		fr := &w.ifs[len(w.ifs)-1]
		copy(w.active, fr.saved)
		w.activeCount = fr.savedCount
		w.ifs = w.ifs[:len(w.ifs)-1]
		w.pc++
		return w.aluPend(1)

	case opFor:
		count := u.imm
		if u.ra >= 0 {
			l := w.firstActive()
			if l < 0 {
				count = 0
			} else {
				count = int64(int32(w.lane(l)[u.ra]))
			}
		}
		if count <= 0 || w.activeCount == 0 {
			w.pc = u.target + 1 // skip the loop entirely
			return w.aluPend(1)
		}
		if w.fullyActive() {
			for b, s := 0, w.stride; b < len(w.regs); b += s {
				w.regs[b+u.rd] = 0
			}
		} else {
			for l, a := range w.active {
				if a {
					w.lane(l)[u.rd] = 0
				}
			}
		}
		w.fors = append(w.fors, forFrame{start: w.pc, count: count})
		w.pc++
		return w.aluPend(1)

	case opEndFor:
		fr := &w.fors[len(w.fors)-1]
		fr.iter++
		if fr.iter < fr.count {
			rd := w.plan.ops[fr.start].rd
			iter := uint32(fr.iter)
			if w.fullyActive() {
				for b, s := 0, w.stride; b < len(w.regs); b += s {
					w.regs[b+rd] = iter
				}
			} else {
				for l, a := range w.active {
					if a {
						w.lane(l)[rd] = iter
					}
				}
			}
			w.pc = fr.start + 1
		} else {
			w.fors = w.fors[:len(w.fors)-1]
			w.pc++
		}
		return w.aluPend(1)

	case opBarrier:
		w.pc++
		p := w.newPend(PendBarrier)
		p.Cycles = 1
		return p

	case opIntrin:
		m := w.prog.Code[w.pc].Map
		if u.useRegBase {
			if l := w.firstActive(); l >= 0 {
				r := w.lane(l)
				m.StashBase = int(r[u.ra])
				m.GlobalBase = memdata.VAddr(r[u.rb])
			}
		}
		w.pc++
		p := w.newPend(u.pend)
		p.Slot = u.slot
		p.Map = m
		p.Cycles = 1
		return p

	default: // opExit
		w.done = true
		return w.newPend(PendDone)
	}
}

// planMem builds the memory-op Pending from a pre-decoded plan op. The
// fully-active fast path walks the register file by stride with no
// per-lane mask test; compile-time register validation makes the lane
// slicing safe without re-checks.
func (w *Warp) planMem(u *planOp, store bool) *Pending {
	var p *Pending
	if store {
		p = w.newPend(PendStore)
	} else {
		p = w.newPend(PendLoad)
	}
	p.Slot = u.slot
	p.DstReg = u.rd
	p.Space = u.space
	p.Cycles = 1
	imm := uint64(u.imm)
	if w.fullyActive() {
		lanes, addrs := p.Lanes, p.Addrs
		l := 0
		for b, s := 0, w.stride; b < len(w.regs); b += s {
			lanes = append(lanes, l)
			addrs = append(addrs, uint64(w.regs[b+u.ra])+imm)
			l++
		}
		p.Lanes, p.Addrs = lanes, addrs
		if store {
			vals := p.Vals
			for b, s := 0, w.stride; b < len(w.regs); b += s {
				vals = append(vals, w.regs[b+u.rb])
			}
			p.Vals = vals
		}
		return p
	}
	for l, a := range w.active {
		if !a {
			continue
		}
		r := w.lane(l)
		p.Lanes = append(p.Lanes, l)
		p.Addrs = append(p.Addrs, uint64(r[u.ra])+imm)
		if store {
			p.Vals = append(p.Vals, r[u.rb])
		}
	}
	return p
}

// CompleteLoad writes loaded values (one per active lane of p, in lane
// order) into the destination register. A load with every lane active
// walks the register file by stride.
func (w *Warp) CompleteLoad(p *Pending, vals []uint32) {
	if len(vals) != len(p.Lanes) {
		panic(fmt.Sprintf("isa: CompleteLoad got %d values for %d lanes", len(vals), len(p.Lanes)))
	}
	if len(vals) == len(w.active) {
		for i, b := 0, p.DstReg; i < len(vals); i, b = i+1, b+w.stride {
			w.regs[b] = vals[i]
		}
		return
	}
	for i, l := range p.Lanes {
		w.lane(l)[p.DstReg] = vals[i]
	}
}

func nonzero(v uint32) uint32 {
	if v == 0 {
		panic("isa: division by zero")
	}
	return v
}

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Reg returns a lane's register value, for tests.
func (w *Warp) Reg(lane, reg int) uint32 { return w.lane(lane)[reg] }
