package isa

import "testing"

// dispatchKernel is the interpreter micro-benchmark workload: a counted
// loop whose body mixes a fusable straight-line ALU run, divergent
// control flow, and a scratchpad load, so every dispatch path (fused
// run, divergence masks, planMem) is on the hot loop — with no memory
// system behind it, the benchmark isolates dispatch from the memory
// model.
func dispatchKernel() *Program {
	b := NewBuilder()
	lane, x, y, z, c, i := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Special(lane, SpecLane)
	b.MovImm(x, 1)
	b.MovImm(y, 2)
	b.For(i, 64)
	{
		// Straight-line ALU run (fusable as one superinstruction).
		b.Add(x, x, y)
		b.Xor(y, x, lane)
		b.MulImm(z, x, 3)
		b.MadImm(x, z, 5, y)
		b.SetLt(c, x, y)
		b.Select(z, c, x, y)
		// Divergent branch.
		b.AndImm(c, lane, 1)
		b.If(c)
		b.AddImm(x, x, 7)
		b.Else()
		b.AddImm(y, y, 9)
		b.EndIf()
		// Scratchpad load through planMem.
		b.AndImm(z, z, 0xff)
		b.LdShared(z, z, 4)
	}
	b.EndFor()
	return b.MustBuild()
}

// runDispatch executes prog once on w, completing loads from a
// synthetic flat memory, and returns the instructions retired. ref
// steps the warp through the reference interpreter.
func runDispatch(w *Warp, prog *Program, cfg WarpConfig, vals []uint32, ref bool) int {
	w.Reset(prog, cfg)
	step := w.Step
	if ref {
		step = w.stepReference
	}
	instrs := 0
	for {
		p := step()
		switch p.Kind {
		case PendDone:
			return instrs
		case PendLoad:
			v := vals[:len(p.Lanes)]
			for i, a := range p.Addrs {
				v[i] = uint32(a) * 2654435761
			}
			w.CompleteLoad(p, v)
		}
		instrs += p.Fused
	}
}

// BenchmarkWarpStep compares the three dispatch paths on one kernel
// execution per op: the switch-based reference interpreter, the
// compiled plan, and the compiled plan with ALU fusion.
func BenchmarkWarpStep(b *testing.B) {
	prog := dispatchKernel()
	for _, bc := range []struct {
		name string
		ref  bool
		fuse bool
	}{
		{"reference", true, false},
		{"compiled", false, false},
		{"compiled-fused", false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := WarpConfig{Width: 32, BlockDim: 32, GridDim: 1, FuseALU: bc.fuse}
			w := NewWarp(prog, cfg)
			vals := make([]uint32, cfg.Width)
			instrs := runDispatch(w, prog, cfg, vals, bc.ref) // warm the warp's buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runDispatch(w, prog, cfg, vals, bc.ref)
			}
			b.ReportMetric(float64(instrs), "instrs")
			b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// BenchmarkCompiledDispatch is the headline dispatch number: the
// compiled fused path, full warp, steady state. It must run at zero
// allocations per op (see TestCompiledDispatchZeroAlloc for the hard
// assertion).
func BenchmarkCompiledDispatch(b *testing.B) {
	prog := dispatchKernel()
	cfg := WarpConfig{Width: 32, BlockDim: 32, GridDim: 1, FuseALU: true}
	w := NewWarp(prog, cfg)
	vals := make([]uint32, cfg.Width)
	instrs := runDispatch(w, prog, cfg, vals, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDispatch(w, prog, cfg, vals, false)
	}
	b.ReportMetric(float64(instrs), "instrs")
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// TestCompiledDispatchZeroAlloc pins the steady-state allocation rate
// of the compiled dispatch loop at zero: after the first execution has
// sized the warp's reused buffers, stepping a program end to end —
// fused and unfused — must not allocate.
func TestCompiledDispatchZeroAlloc(t *testing.T) {
	prog := dispatchKernel()
	for _, fuse := range []bool{false, true} {
		cfg := WarpConfig{Width: 32, BlockDim: 32, GridDim: 1, FuseALU: fuse}
		w := NewWarp(prog, cfg)
		vals := make([]uint32, cfg.Width)
		runDispatch(w, prog, cfg, vals, false) // size every reused buffer
		if n := testing.AllocsPerRun(10, func() {
			runDispatch(w, prog, cfg, vals, false)
		}); n != 0 {
			t.Errorf("FuseALU=%v: steady-state dispatch allocates %.0f allocs/op, want 0", fuse, n)
		}
	}
}
