package isa

import (
	"fmt"

	"stash/internal/memdata"
)

// This file holds the reference interpreter, the oracle of diff_test.go
// and of BenchmarkWarpStep/reference. Simulations step warps only
// through the compiled plan (Warp.Step).

// stepReference is the original switch-based interpreter: it re-decodes
// the Instr on every step. It is the behavioral reference for the
// compiled dispatch path: the differential tests and the fuzz target run
// both and compare. It shares all warp state with Step, so one warp
// could switch between the two between steps.
func (w *Warp) stepReference() *Pending {
	if w.done {
		return w.newPend(PendDone)
	}
	ins := &w.prog.Code[w.pc]
	switch ins.Op {
	case OpExit:
		w.done = true
		return w.newPend(PendDone)

	case OpIf:
		fr := w.pushIf()
		copy(fr.saved, w.active)
		fr.savedCount = w.activeCount
		any := false
		for l := range w.active {
			fr.cond[l] = w.active[l] && w.lane(l)[ins.Ra] != 0
			any = any || fr.cond[l]
		}
		copy(w.active, fr.cond)
		w.activeCount = w.countActive()
		if any {
			w.pc++
		} else {
			w.pc = ins.Target // skip straight to Else/EndIf
		}
		return w.aluPend(1)

	case OpElse:
		fr := &w.ifs[len(w.ifs)-1]
		any := false
		for l := range w.active {
			w.active[l] = fr.saved[l] && !fr.cond[l]
			any = any || w.active[l]
		}
		w.activeCount = w.countActive()
		if any {
			w.pc++
		} else {
			w.pc = ins.Target // skip to EndIf
		}
		return w.aluPend(1)

	case OpEndIf:
		fr := &w.ifs[len(w.ifs)-1]
		copy(w.active, fr.saved)
		w.activeCount = fr.savedCount
		w.ifs = w.ifs[:len(w.ifs)-1]
		w.pc++
		return w.aluPend(1)

	case OpFor:
		count := ins.Imm
		if ins.Ra >= 0 {
			l := w.firstActive()
			if l < 0 {
				count = 0
			} else {
				count = int64(int32(w.lane(l)[ins.Ra]))
			}
		}
		if count <= 0 || w.activeCount == 0 {
			w.pc = ins.Target + 1 // skip the loop entirely
			return w.aluPend(1)
		}
		for l := range w.active {
			if w.active[l] {
				w.lane(l)[ins.Rd] = 0
			}
		}
		w.fors = append(w.fors, forFrame{start: w.pc, count: count})
		w.pc++
		return w.aluPend(1)

	case OpEndFor:
		fr := &w.fors[len(w.fors)-1]
		fr.iter++
		forIns := &w.prog.Code[fr.start]
		if fr.iter < fr.count {
			for l := range w.active {
				if w.active[l] {
					w.lane(l)[forIns.Rd] = uint32(fr.iter)
				}
			}
			w.pc = fr.start + 1
		} else {
			w.fors = w.fors[:len(w.fors)-1]
			w.pc++
		}
		return w.aluPend(1)

	case OpBarrier:
		w.pc++
		p := w.newPend(PendBarrier)
		p.Cycles = 1
		return p

	case OpFlops:
		w.pc++
		c := int(ins.Imm)
		if c < 1 {
			c = 1
		}
		return w.aluPend(c)

	case OpLdGlobal, OpLdShared, OpLdStash:
		p := w.memPending(ins, false)
		w.pc++
		return p

	case OpStGlobal, OpStShared, OpStStash:
		p := w.memPending(ins, true)
		w.pc++
		return p

	case OpAddMap, OpChgMap, OpDMALoad, OpDMAStore:
		m := ins.Map
		if ins.UseRegBase {
			if l := w.firstActive(); l >= 0 {
				m.StashBase = int(w.lane(l)[ins.Ra])
				m.GlobalBase = memdata.VAddr(w.lane(l)[ins.Rb])
			}
		}
		var kind PendKind
		switch ins.Op {
		case OpAddMap:
			kind = PendAddMap
		case OpChgMap:
			kind = PendChgMap
		case OpDMALoad:
			kind = PendDMALoad
		default:
			kind = PendDMAStore
		}
		w.pc++
		p := w.newPend(kind)
		p.Slot = ins.Slot
		p.Map = m
		p.Cycles = 1
		return p

	default:
		w.alu(ins)
		w.pc++
		return w.aluPend(1)
	}
}

func (w *Warp) memPending(ins *Instr, store bool) *Pending {
	var p *Pending
	if store {
		p = w.newPend(PendStore)
	} else {
		p = w.newPend(PendLoad)
	}
	p.Slot = ins.Slot
	p.DstReg = ins.Rd
	p.Cycles = 1
	switch ins.Op {
	case OpLdGlobal, OpStGlobal:
		p.Space = Global
	case OpLdShared, OpStShared:
		p.Space = Shared
	case OpLdStash, OpStStash:
		p.Space = Stash
	}
	for l := range w.active {
		if !w.active[l] {
			continue
		}
		r := w.lane(l)
		p.Lanes = append(p.Lanes, l)
		addr := uint64(r[ins.Ra]) + uint64(ins.Imm)
		p.Addrs = append(p.Addrs, addr)
		if store {
			p.Vals = append(p.Vals, r[ins.Rb])
		}
	}
	return p
}

func (w *Warp) alu(ins *Instr) {
	for l := range w.active {
		if !w.active[l] {
			continue
		}
		r := w.lane(l)
		a := r[ins.Ra]
		var bv uint32
		if ins.Op != OpMovImm && ins.Op != OpMovSpec {
			bv = r[ins.Rb]
		}
		switch ins.Op {
		case OpNop:
		case OpMovImm:
			r[ins.Rd] = uint32(ins.Imm)
		case OpMovSpec:
			r[ins.Rd] = w.special(ins.Spec, l)
		case OpMov:
			r[ins.Rd] = a
		case OpAdd:
			r[ins.Rd] = a + bv
		case OpSub:
			r[ins.Rd] = a - bv
		case OpMul:
			r[ins.Rd] = a * bv
		case OpDiv:
			r[ins.Rd] = a / nonzero(bv)
		case OpMod:
			r[ins.Rd] = a % nonzero(bv)
		case OpAnd:
			r[ins.Rd] = a & bv
		case OpOr:
			r[ins.Rd] = a | bv
		case OpXor:
			r[ins.Rd] = a ^ bv
		case OpShl:
			r[ins.Rd] = a << (bv & 31)
		case OpShr:
			r[ins.Rd] = a >> (bv & 31)
		case OpAddImm:
			r[ins.Rd] = a + uint32(ins.Imm)
		case OpMulImm:
			r[ins.Rd] = a * uint32(ins.Imm)
		case OpDivImm:
			r[ins.Rd] = a / nonzero(uint32(ins.Imm))
		case OpModImm:
			r[ins.Rd] = a % nonzero(uint32(ins.Imm))
		case OpAndImm:
			r[ins.Rd] = a & uint32(ins.Imm)
		case OpShlImm:
			r[ins.Rd] = a << (uint32(ins.Imm) & 31)
		case OpShrImm:
			r[ins.Rd] = a >> (uint32(ins.Imm) & 31)
		case OpSetLt:
			r[ins.Rd] = boolToU32(int32(a) < int32(bv))
		case OpSetGe:
			r[ins.Rd] = boolToU32(int32(a) >= int32(bv))
		case OpSetEq:
			r[ins.Rd] = boolToU32(a == bv)
		case OpSetNe:
			r[ins.Rd] = boolToU32(a != bv)
		case OpSetLtImm:
			r[ins.Rd] = boolToU32(int32(a) < int32(ins.Imm))
		case OpSetEqImm:
			r[ins.Rd] = boolToU32(a == uint32(ins.Imm))
		case OpSelect:
			if a != 0 {
				r[ins.Rd] = r[ins.Rb]
			} else {
				r[ins.Rd] = r[ins.Rc]
			}
		case OpMadImm:
			r[ins.Rd] = a*uint32(ins.Imm) + bv
		default:
			panic(fmt.Sprintf("isa: unhandled opcode %d", ins.Op))
		}
	}
}

// countActive recounts the active mask; the reference interpreter uses
// it to keep activeCount exact without fast-path bookkeeping.
func (w *Warp) countActive() int {
	n := 0
	for _, a := range w.active {
		if a {
			n++
		}
	}
	return n
}
