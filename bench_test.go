package stash

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index). Simulated
// metrics are reported through testing.B's ReportMetric: sim_cycles is
// the paper's execution-time axis, nJ the dynamic-energy axis,
// instructions Figure 5c, and flit_hops Figure 5d. Run with
//
//	go test -bench=. -benchmem
//
// and compare configurations per workload; EXPERIMENTS.md records the
// paper-vs-measured comparison.

func reportRun(b *testing.B, name string, org MemOrg) {
	b.Helper()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunWorkload(name, org)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles), "sim_cycles")
	b.ReportMetric(res.EnergyPJ/1e3, "nJ")
	b.ReportMetric(float64(res.GPUInstructions), "instructions")
	b.ReportMetric(float64(res.TotalFlitHops()), "flit_hops")
}

// BenchmarkTable1FeatureMatrix renders the qualitative Table 1.
func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(FeatureMatrix()) != 9 {
			b.Fatal("feature matrix incomplete")
		}
	}
}

// BenchmarkTable3AccessEnergy checks the energy model against Table 3.
func BenchmarkTable3AccessEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := AccessEnergies()
		if e[0].HitPJ != 55.3 || e[1].HitPJ != 55.4 || e[1].MissPJ != 86.8 {
			b.Fatal("Table 3 energies drifted")
		}
	}
}

// BenchmarkTable4RelatedWork renders the qualitative Table 4.
func BenchmarkTable4RelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(RelatedWorkMatrix()) != 10 {
			b.Fatal("related-work matrix incomplete")
		}
	}
}

// BenchmarkFig5Microbenchmarks regenerates Figure 5 (a)-(d): the four
// microbenchmarks on the four plotted configurations. All four panel
// metrics are reported per run.
func BenchmarkFig5Microbenchmarks(b *testing.B) {
	for _, name := range Microbenchmarks() {
		for _, org := range []MemOrg{Scratch, ScratchGD, Cache, Stash} {
			b.Run(name+"/"+org.String(), func(b *testing.B) {
				reportRun(b, name, org)
			})
		}
	}
}

// BenchmarkFig5TraceOverhead pins the host cost of the tracing
// subsystem on one Figure 5 cell. trace-off is the shipping
// configuration (every emit site a nil-check no-op); trace-on pays for
// encoding each event at its emit site into the spill, and for series
// bucketing. Both variants produce bit-identical simulated metrics —
// only ns/op and allocs/op move.
func BenchmarkFig5TraceOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		label := "trace-off"
		if traced {
			label = "trace-on"
		}
		b.Run("implicit/Stash/"+label, func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := MicroConfig(Stash)
				if traced {
					cfg.Trace = &TraceConfig{}
				}
				var err error
				res, err = RunWorkloadCfg("implicit", cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "sim_cycles")
			if res.Timeline != nil {
				b.ReportMetric(float64(res.Timeline.NumEvents()), "trace_events")
			}
		})
	}
}

// BenchmarkFig6Applications regenerates Figure 6 (a)-(b): the seven
// applications on the five plotted configurations.
func BenchmarkFig6Applications(b *testing.B) {
	for _, name := range Applications() {
		for _, org := range []MemOrg{Scratch, ScratchG, Cache, Stash, StashG} {
			b.Run(name+"/"+org.String(), func(b *testing.B) {
				reportRun(b, name, org)
			})
		}
	}
}

// BenchmarkAblationReplication quantifies the Section 4.5 data
// replication optimization on the Reuse microbenchmark: disabling it
// forces cross-kernel refetches.
func BenchmarkAblationReplication(b *testing.B) {
	for _, on := range []bool{true, false} {
		label := "replication-on"
		if !on {
			label = "replication-off"
		}
		b.Run(label, func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := MicroConfig(Stash)
				cfg.DisableReplication = !on
				var err error
				res, err = RunWorkloadCfg("reuse", cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "sim_cycles")
			b.ReportMetric(res.EnergyPJ/1e3, "nJ")
			b.ReportMetric(float64(res.TotalFlitHops()), "flit_hops")
		})
	}
}

// BenchmarkAblationLazyWriteback quantifies lazy versus eager (kernel-
// boundary, scratchpad-style) writebacks on the Reuse microbenchmark.
func BenchmarkAblationLazyWriteback(b *testing.B) {
	for _, eager := range []bool{false, true} {
		label := "lazy"
		if eager {
			label = "eager"
		}
		b.Run(label, func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := MicroConfig(Stash)
				cfg.EagerWriteback = eager
				var err error
				res, err = RunWorkloadCfg("reuse", cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "sim_cycles")
			b.ReportMetric(res.EnergyPJ/1e3, "nJ")
			b.ReportMetric(float64(res.TotalFlitHops()), "flit_hops")
		})
	}
}

// BenchmarkAblationChunkGranularity sweeps the lazy-writeback chunk
// size (Section 4.2) on the Implicit microbenchmark: finer chunks mean
// more, smaller flush operations for the same dirty footprint.
func BenchmarkAblationChunkGranularity(b *testing.B) {
	for _, chunk := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("chunk-%dw", chunk), func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				cfg := MicroConfig(Stash)
				cfg.ChunkWords = chunk
				var err error
				res, err = RunWorkloadCfg("implicit", cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "sim_cycles")
			b.ReportMetric(res.EnergyPJ/1e3, "nJ")
			b.ReportMetric(float64(res.TotalFlitHops()), "flit_hops")
			var flushes uint64
			for name, v := range res.Counters {
				if strings.HasSuffix(name, ".lazy_writeback_chunks") {
					flushes += v
				}
			}
			b.ReportMetric(float64(flushes), "chunk_flushes")
		})
	}
}

// BenchmarkSweepFig5 runs the whole Figure 5 grid through the parallel
// sweep engine at different worker counts; ns/op is the wall time of
// the full 16-cell sweep (compare -cpu runs on a multi-core host).
func BenchmarkSweepFig5(b *testing.B) {
	specs := Grid(Microbenchmarks(), []MemOrg{Scratch, ScratchGD, Cache, Stash})
	for _, workers := range []int{1, 0} {
		label := "serial"
		if workers == 0 {
			label = "gomaxprocs"
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(context.Background(), specs, SweepOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (host time
// per simulated implicit run), the only benchmark here where host
// ns/op is the interesting number.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunWorkload("implicit", Stash); err != nil {
			b.Fatal(err)
		}
	}
}
