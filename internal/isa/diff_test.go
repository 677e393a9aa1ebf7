package isa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stash/internal/core"
)

// This file differentially tests the compiled dispatch path against the
// switch-based reference interpreter: seeded random-but-valid builder
// programs run on both, and the Pending streams and final register
// files must be identical. With FuseALU on, the compiled warp retires
// straight-line ALU runs as one superinstruction, so ALU pendings are
// compared as accumulated cycle/instruction totals between non-ALU
// boundary pendings instead of step by step.

// synthVal is the deterministic value a differential load returns for
// an address: both warps see the same data without a memory model.
func synthVal(space Space, addr uint64) uint32 {
	return uint32(addr*2654435761) ^ uint32(space)*0x9e3779b9
}

// progGen emits random valid kernels. Every program it builds must pass
// Build; loops are bounded so every program terminates.
type progGen struct {
	rng   *rand.Rand
	b     *Builder
	regs  []int
	depth int
	left  int // statement budget
}

func (g *progGen) reg() int { return g.regs[g.rng.Intn(len(g.regs))] }

// boundedAddr masks a register into a small address range so load and
// store offsets stay well-defined in both interpreters.
func (g *progGen) boundedAddr() int {
	a := g.reg()
	t := g.reg()
	g.b.AndImm(t, a, 0xff)
	return t
}

func (g *progGen) stmt() {
	g.left--
	b, rng := g.b, g.rng
	switch rng.Intn(20) {
	case 0:
		b.MovImm(g.reg(), int64(int32(rng.Uint32())))
	case 1:
		b.Special(g.reg(), Spec(rng.Intn(int(SpecWarpID)+1)))
	case 2:
		b.Add(g.reg(), g.reg(), g.reg())
	case 3:
		b.Sub(g.reg(), g.reg(), g.reg())
	case 4:
		b.Mul(g.reg(), g.reg(), g.reg())
	case 5:
		// Division with a divisor forced nonzero.
		d := g.reg()
		b.AndImm(d, g.reg(), 7)
		b.AddImm(d, d, 1)
		if rng.Intn(2) == 0 {
			b.Div(g.reg(), g.reg(), d)
		} else {
			b.Mod(g.reg(), g.reg(), d)
		}
	case 6:
		b.Xor(g.reg(), g.reg(), g.reg())
	case 7:
		b.ShlImm(g.reg(), g.reg(), int64(rng.Intn(32)))
	case 8:
		b.SetLt(g.reg(), g.reg(), g.reg())
	case 9:
		b.Select(g.reg(), g.reg(), g.reg(), g.reg())
	case 10:
		b.MadImm(g.reg(), g.reg(), int64(rng.Intn(64)), g.reg())
	case 11:
		b.Flops(1 + rng.Intn(5))
	case 12:
		b.Barrier()
	case 13:
		off := int64(rng.Intn(16))
		switch rng.Intn(3) {
		case 0:
			b.LdGlobal(g.reg(), g.boundedAddr(), off)
		case 1:
			b.LdShared(g.reg(), g.boundedAddr(), off)
		default:
			b.LdStash(g.reg(), g.boundedAddr(), off, rng.Intn(4))
		}
	case 14:
		off := int64(rng.Intn(16))
		switch rng.Intn(3) {
		case 0:
			b.StGlobal(g.boundedAddr(), off, g.reg())
		case 1:
			b.StShared(g.boundedAddr(), off, g.reg())
		default:
			b.StStash(g.boundedAddr(), off, g.reg(), rng.Intn(4))
		}
	case 15:
		m := core.MapParams{
			StashBase: rng.Intn(256), GlobalBase: 0x1000,
			FieldBytes: 4, ObjectBytes: 4, RowElems: 4, StrideBytes: 16, NumRows: 2,
		}
		switch rng.Intn(4) {
		case 0:
			b.AddMap(rng.Intn(4), m)
		case 1:
			b.AddMapReg(rng.Intn(4), m, g.reg(), g.reg())
		case 2:
			b.ChgMap(rng.Intn(4), m)
		default:
			b.DMALoadReg(m, g.reg(), g.reg())
		}
	case 16, 17:
		if g.depth >= 3 {
			b.Mov(g.reg(), g.reg())
			return
		}
		g.depth++
		b.If(g.reg())
		g.block(rng.Intn(4))
		if rng.Intn(2) == 0 {
			b.Else()
			g.block(rng.Intn(4))
		}
		b.EndIf()
		g.depth--
	case 18, 19:
		if g.depth >= 3 {
			b.AddImm(g.reg(), g.reg(), 1)
			return
		}
		g.depth++
		i := g.reg()
		if rng.Intn(3) == 0 {
			n := g.reg()
			b.AndImm(n, g.reg(), 3)
			b.ForReg(i, n)
		} else {
			b.For(i, int64(1+rng.Intn(3)))
		}
		g.block(1 + rng.Intn(3))
		b.EndFor()
		g.depth--
	}
}

func (g *progGen) block(n int) {
	for i := 0; i < n && g.left > 0; i++ {
		g.stmt()
	}
}

// genProgram builds a random valid program from rng.
func genProgram(rng *rand.Rand) *Program {
	g := &progGen{rng: rng, b: NewBuilder(), left: 30 + rng.Intn(30)}
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		g.regs = append(g.regs, g.b.Reg())
	}
	for i, r := range g.regs {
		switch i % 3 {
		case 0:
			g.b.Special(r, SpecTid)
		case 1:
			g.b.Special(r, SpecLane)
		default:
			g.b.MovImm(r, int64(rng.Intn(1<<16)))
		}
	}
	for g.left > 0 {
		g.stmt()
	}
	return g.b.MustBuild()
}

// pendSnapshot is a comparable copy of a Pending (the live one is the
// warp's reused buffer).
type pendSnapshot struct {
	Kind   PendKind
	Space  Space
	Slot   int
	Lanes  []int
	Addrs  []uint64
	Vals   []uint32
	DstReg int
	Map    core.MapParams
	Cycles int
	Fused  int
}

func snapshot(p *Pending) pendSnapshot {
	return pendSnapshot{
		Kind: p.Kind, Space: p.Space, Slot: p.Slot,
		Lanes:  append([]int(nil), p.Lanes...),
		Addrs:  append([]uint64(nil), p.Addrs...),
		Vals:   append([]uint32(nil), p.Vals...),
		DstReg: p.DstReg, Map: p.Map, Cycles: p.Cycles, Fused: p.Fused,
	}
}

// nextBoundary calls step until it produces a non-ALU pending,
// returning that pending plus the ALU cycles and instructions retired
// on the way.
func nextBoundary(t testing.TB, step func() *Pending) (*Pending, int, int) {
	cycles, instrs := 0, 0
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatal("program did not terminate")
		}
		p := step()
		if p.Kind == PendALU {
			cycles += p.Cycles
			instrs += p.Fused
			continue
		}
		return p, cycles, instrs
	}
}

// runDiff executes prog on a compiled warp (cfg as given) and a
// reference warp, comparing the Pending streams between ALU boundaries
// and the final register files. Loads are completed with synthVal on
// both sides so the register files stay in lockstep.
func runDiff(t testing.TB, prog *Program, cfg WarpConfig) {
	wc := NewWarp(prog, cfg)
	refCfg := cfg
	refCfg.FuseALU = false
	wr := NewWarp(prog, refCfg)

	for round := 0; ; round++ {
		pc, cycC, insC := nextBoundary(t, wc.Step)
		pr, cycR, insR := nextBoundary(t, wr.stepReference)
		if cycC != cycR || insC != insR {
			t.Fatalf("round %d: ALU run mismatch: compiled %d cycles/%d instrs, reference %d cycles/%d instrs",
				round, cycC, insC, cycR, insR)
		}
		sc, sr := snapshot(pc), snapshot(pr)
		if !reflect.DeepEqual(sc, sr) {
			t.Fatalf("round %d: pending mismatch\ncompiled:  %+v\nreference: %+v", round, sc, sr)
		}
		switch pc.Kind {
		case PendDone:
			for l := 0; l < cfg.Width; l++ {
				for r := 0; r < prog.Regs; r++ {
					if a, b := wc.Reg(l, r), wr.Reg(l, r); a != b {
						t.Fatalf("final lane %d reg %d: compiled %d, reference %d", l, r, a, b)
					}
				}
			}
			return
		case PendLoad:
			vals := make([]uint32, len(sc.Lanes))
			for i, a := range sc.Addrs {
				vals[i] = synthVal(sc.Space, a)
			}
			wc.CompleteLoad(pc, vals)
			wr.CompleteLoad(pr, vals)
		}
	}
}

// diffConfigs are the warp shapes every differential program runs
// under: full warps, a single-lane CPU-style warp, and a partial last
// warp with inactive lanes, each with fusion on and off.
func diffConfigs() []WarpConfig {
	var cfgs []WarpConfig
	for _, fuse := range []bool{false, true} {
		cfgs = append(cfgs,
			WarpConfig{Width: 32, BlockDim: 32, GridDim: 2, BlockID: 1, FuseALU: fuse},
			WarpConfig{Width: 1, BlockDim: 1, GridDim: 1, FuseALU: fuse},
			WarpConfig{Width: 32, BlockDim: 52, GridDim: 1, WarpID: 1, FirstThread: 32, FuseALU: fuse},
		)
	}
	return cfgs
}

// TestCompiledVsReference runs seeded random programs through the
// compiled and reference interpreters and requires identical behavior.
func TestCompiledVsReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		prog := genProgram(rand.New(rand.NewSource(seed)))
		for _, cfg := range diffConfigs() {
			cfg := cfg
			t.Run(fmt.Sprintf("seed%d/w%d.b%d.fuse%v", seed, cfg.Width, cfg.BlockDim, cfg.FuseALU), func(t *testing.T) {
				runDiff(t, prog, cfg)
			})
		}
	}
}

// FuzzCompiledVsReference explores the program and warp-shape space:
// any divergence between the compiled dispatch path and the reference
// interpreter is a bug in the compiler or the fast paths.
func FuzzCompiledVsReference(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(32), false)
	f.Add(int64(2), uint8(32), uint8(20), true)
	f.Add(int64(3), uint8(1), uint8(1), true)
	f.Add(int64(4), uint8(8), uint8(13), false)
	f.Fuzz(func(t *testing.T, seed int64, width, blockDim uint8, fuse bool) {
		w := 1 + int(width)%32
		bd := 1 + int(blockDim)%(2*w)
		prog := genProgram(rand.New(rand.NewSource(seed)))
		runDiff(t, prog, WarpConfig{
			Width: w, BlockDim: bd, GridDim: 2, BlockID: 1, FuseALU: fuse,
		})
	})
}

// TestCompileRejectsInvalid checks that hand-assembled programs with
// out-of-range registers or broken control-flow targets fail at
// Compile time rather than panicking mid-simulation.
func TestCompileRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
	}{
		{"reg out of range", []Instr{{Op: OpAdd, Rd: 0, Ra: 1, Rb: 9}, {Op: OpExit}}},
		{"negative reg", []Instr{{Op: OpMov, Rd: -1, Ra: 0}, {Op: OpExit}}},
		{"bad special", []Instr{{Op: OpMovSpec, Rd: 0, Spec: Spec(99)}, {Op: OpExit}}},
		{"if target not else/endif", []Instr{{Op: OpIf, Ra: 0, Target: 1}, {Op: OpNop}, {Op: OpEndIf}, {Op: OpExit}}},
		{"endfor target not for", []Instr{{Op: OpNop}, {Op: OpEndFor, Target: 0}, {Op: OpExit}}},
		{"load reg out of range", []Instr{{Op: OpLdShared, Rd: 3, Ra: 0}, {Op: OpExit}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Code: tc.code, Regs: 3}
			if err := p.Compile(); err == nil {
				t.Fatalf("Compile accepted invalid program %q", tc.name)
			} else {
				t.Logf("rejected: %v", err)
			}
		})
	}
}
