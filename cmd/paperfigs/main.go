// Paperfigs regenerates every table and figure of the paper's
// evaluation (ISCA 2015, Sections 5-6) from the simulator:
//
//	paperfigs -exp table1   # cache/scratchpad/stash feature matrix
//	paperfigs -exp table2   # simulated system parameters
//	paperfigs -exp table3   # per-access energies
//	paperfigs -exp table4   # related-work comparison
//	paperfigs -exp fig5     # microbenchmarks: time/energy/instr/traffic
//	paperfigs -exp fig6     # applications: time/energy
//	paperfigs -exp frontier # memory-technology design space + Pareto frontier
//	paperfigs -exp all
//
// Figures are printed as normalized tables (Scratch = 100), matching
// the paper's bar charts.
//
// The figure grids are embarrassingly parallel (every cell is one
// independent simulation), so they run on a worker pool:
//
//	paperfigs -exp fig6 -j 8          # 8 concurrent simulations
//	paperfigs -exp fig6 -j 1          # serial: identical output, slower
//	paperfigs -exp all -json out.json # raw sweep results as JSON
//	paperfigs -exp fig5 -json -       # JSON on stdout, tables on stderr
//
// Each simulation is deterministic and results are assembled in grid
// order, so the tables printed to stdout are byte-identical for every
// -j value; per-sweep wall times go to stderr.
//
// With -server the figure grids are submitted to a running stashd
// daemon instead of simulated locally; cells the daemon has seen
// before are served from its content-addressed cache, so regenerating
// a figure twice simulates nothing the second time:
//
//	paperfigs -exp all -server http://localhost:8341
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"stash"
	"stash/internal/cliutil"
)

var (
	sweepFlags   cliutil.SweepFlags
	quiet        = flag.Bool("q", false, "suppress per-sweep wall-time reports on stderr")
	traceDir     = flag.String("trace-dir", "", "write a Perfetto-loadable trace per figure cell into this directory (kernel and CPU phases annotated)")
	traceBuckets = flag.Uint64("trace-buckets", 0, "trace time-series window width in cycles (0 = default 1024)")
)

// sweptResults accumulates every figure cell simulated in this
// invocation for the optional -json dump; failedCells counts the ones
// that did not produce a result.
var (
	sweptResults []stash.SweepResult
	failedCells  int
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1|table2|table3|table4|fig5|fig6|frontier|all")
	sweepFlags.Register()
	version := cliutil.VersionFlag()
	flag.Parse()
	version()
	sweepFlags.TextToStderr()
	if sweepFlags.Server != "" && *traceDir != "" {
		fmt.Fprintln(os.Stderr, "-trace-dir requires local simulation; drop -server or -trace-dir")
		os.Exit(2)
	}
	switch *exp {
	case "table1":
		table1()
	case "table2":
		table2()
	case "table3":
		table3()
	case "table4":
		table4()
	case "fig5":
		fig5()
	case "fig6":
		fig6()
	case "frontier":
		figFrontier()
	case "all":
		table1()
		table2()
		table3()
		table4()
		fig5()
		fig6()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	writeJSON()
	if failedCells > 0 {
		fmt.Fprintf(os.Stderr, "%d cells failed; figures above are partial\n", failedCells)
		os.Exit(1)
	}
}

// writeJSON writes the -json dump. An experiment that simulates
// nothing (a table) still writes one document, the empty array.
func writeJSON() {
	if sweepFlags.JSONOut == "" {
		return
	}
	if sweptResults == nil {
		sweptResults = []stash.SweepResult{}
	}
	cliutil.WriteJSON(sweepFlags.JSONOut, sweptResults)
}

func header(s string) {
	fmt.Println()
	fmt.Println(s)
	fmt.Println(strings.Repeat("=", len(s)))
}

func table1() {
	header("Table 1: Comparison of cache, scratchpad, and stash")
	fmt.Print(stash.RenderFeatures(stash.FeatureMatrix(), []string{"Cache", "Scratchpad", "Stash"}))
}

func table2() {
	header("Table 2: Parameters of the simulated heterogeneous system")
	rows := [][2]string{
		{"GPU frequency (simulation clock)", "700 MHz"},
		{"CUs (microbenchmarks, apps)", "1, 15"},
		{"CPU cores (microbenchmarks, apps)", "15, 1"},
		{"Scratchpad/Stash size", "16 KB, 32 banks"},
		{"L1 size", "32 KB, 8-way"},
		{"L2 size", "4 MB, 16 banks (NUCA)"},
		{"Stash-map", "64 entries"},
		{"TLB & RTLB (VP-map)", "64 entries each"},
		{"Stash address translation", "10 cycles"},
		{"L1 and stash hit latency", "1 cycle"},
		{"Interconnect", "4x4 mesh, 3 cycles/hop, 16 B flits"},
		{"Coherence", "DeNovo (word granularity states)"},
	}
	for _, r := range rows {
		fmt.Printf("  %-38s %s\n", r[0], r[1])
	}
}

func table3() {
	header("Table 3: Per-access energy for various hardware units")
	fmt.Printf("  %-14s %12s %12s\n", "Hardware Unit", "Hit Energy", "Miss Energy")
	for _, e := range stash.AccessEnergies() {
		miss := "-"
		if e.HasMissEntry {
			miss = fmt.Sprintf("%.1f pJ", e.MissPJ)
		}
		fmt.Printf("  %-14s %9.1f pJ %12s\n", e.Unit, e.HitPJ, miss)
	}
}

func table4() {
	header("Table 4: Comparison of stash and prior work")
	fmt.Print(stash.RenderFeatures(stash.RelatedWorkMatrix(),
		[]string{"Bypass L1", "Change Data Layout", "Elide Tag", "Virtual Private Memories", "DMAs", "Stash"}))
}

// collect sweeps the workloads across every org on the worker pool and
// returns results[workload][org] for the cells that succeeded. A
// failing cell does not abort the figure: it is reported on stderr,
// kept (with status and diagnostic) in the -json dump, rendered as "-"
// in the tables, and makes the process exit nonzero at the end.
func collect(figure string, names []string, orgs []stash.MemOrg) map[string]map[stash.MemOrg]stash.Result {
	specs := stash.Grid(names, orgs)
	if *traceDir != "" {
		for i := range specs {
			specs[i].Config.Trace = &stash.TraceConfig{BucketCycles: *traceBuckets}
		}
	}
	start := time.Now()
	results, err := sweepFlags.Run(context.Background(), specs, stash.SweepOptions{})
	if results == nil {
		// The daemon refused the sweep outright (nothing ran).
		log.Fatal(err)
	}
	if !*quiet {
		sweepFlags.ReportWall(figure+": ", len(specs), time.Since(start))
	}
	sweptResults = append(sweptResults, results...)
	if *traceDir != "" {
		writeTraces(figure, results)
	}

	out := make(map[string]map[stash.MemOrg]stash.Result)
	for _, r := range results {
		if r.Err != nil {
			failedCells++
			fmt.Fprintf(os.Stderr, "%s: %s failed (status %s): %v\n",
				figure, r.Spec, r.Status(), r.Err)
			continue
		}
		if out[r.Spec.Workload] == nil {
			out[r.Spec.Workload] = make(map[stash.MemOrg]stash.Result)
		}
		out[r.Spec.Workload][r.Spec.Config.Org] = r.Result
	}
	return out
}

// writeTraces writes each cell's Perfetto-loadable trace (phase
// annotations included) into -trace-dir. Failed cells keep the partial
// trace up to the failure; never-started cells have none and are
// skipped.
func writeTraces(figure string, results []stash.SweepResult) {
	if err := os.MkdirAll(*traceDir, 0o777); err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		tl := r.Result.Timeline
		if tl == nil {
			continue
		}
		p := filepath.Join(*traceDir, fmt.Sprintf("%s-%s-%s.json", figure, r.Spec.Workload, r.Spec.Config.Org))
		if err := cliutil.WriteTimeline(p, tl); err != nil {
			log.Fatal(err)
		}
	}
}

// printNormalized prints one metric across workloads and orgs,
// normalized to the Scratch configuration (x100, like the paper's
// percentage axes), with a geometric-mean-free simple average row.
func printNormalized(title string, names []string, orgs []stash.MemOrg,
	res map[string]map[stash.MemOrg]stash.Result, metric func(stash.Result) float64) {
	fmt.Println()
	fmt.Println(title + " (normalized to Scratch = 100; lower is better)")
	fmt.Printf("  %-12s", "")
	for _, org := range orgs {
		fmt.Printf(" %10s", org)
	}
	fmt.Println()
	avg := make([]float64, len(orgs))
	cnt := make([]int, len(orgs))
	for _, name := range names {
		baseCell, haveBase := res[name][stash.Scratch]
		base := metric(baseCell)
		fmt.Printf("  %-12s", name)
		for i, org := range orgs {
			cell, ok := res[name][org]
			if !ok || !haveBase || base == 0 {
				fmt.Printf(" %10s", "-") // cell (or its baseline) failed
				continue
			}
			v := 100 * metric(cell) / base
			avg[i] += v
			cnt[i]++
			fmt.Printf(" %10.0f", v)
		}
		fmt.Println()
	}
	fmt.Printf("  %-12s", "AVERAGE")
	for i := range orgs {
		if cnt[i] == 0 {
			fmt.Printf(" %10s", "-")
			continue
		}
		fmt.Printf(" %10.0f", avg[i]/float64(cnt[i]))
	}
	fmt.Println()
}

func printEnergyBreakdown(names []string, orgs []stash.MemOrg,
	res map[string]map[stash.MemOrg]stash.Result) {
	comps := []string{"GPU core+", "L1 D$", "Scratch/Stash", "L2 $", "N/W"}
	fmt.Println()
	fmt.Println("Dynamic energy breakdown (% of the workload's Scratch total)")
	for _, name := range names {
		base := res[name][stash.Scratch].EnergyPJ
		fmt.Printf("  %s\n", name)
		fmt.Printf("    %-10s", "")
		for _, c := range comps {
			fmt.Printf(" %14s", c)
		}
		fmt.Printf(" %10s\n", "total")
		for _, org := range orgs {
			r, ok := res[name][org]
			if !ok || base == 0 {
				fmt.Printf("    %-10s %s\n", org, "-")
				continue
			}
			fmt.Printf("    %-10s", org)
			for _, c := range comps {
				fmt.Printf(" %14.1f", 100*r.EnergyByComponent[c]/base)
			}
			fmt.Printf(" %10.1f\n", 100*r.EnergyPJ/base)
		}
	}
}

func fig5() {
	header("Figure 5: Microbenchmarks (1 CU + 15 CPU cores)")
	names := stash.Microbenchmarks()
	orgs := []stash.MemOrg{stash.Scratch, stash.ScratchGD, stash.Cache, stash.Stash}
	res := collect("fig5", names, orgs)
	printNormalized("(a) Execution time", names, orgs, res,
		func(r stash.Result) float64 { return float64(r.Cycles) })
	printNormalized("(b) Dynamic energy", names, orgs, res,
		func(r stash.Result) float64 { return r.EnergyPJ })
	printEnergyBreakdown(names, orgs, res)
	printNormalized("(c) GPU instruction count", names, orgs, res,
		func(r stash.Result) float64 { return float64(r.GPUInstructions) })
	printNormalized("(d) Network traffic (flit-crossings)", names, orgs, res,
		func(r stash.Result) float64 { return float64(r.TotalFlitHops()) })
	fmt.Println()
	fmt.Println("Traffic by class (flit-hops):")
	for _, name := range names {
		fmt.Printf("  %-12s", name)
		for _, org := range orgs {
			r := res[name][org]
			fmt.Printf("  %s[r=%d w=%d wb=%d]", org,
				r.FlitHops["read"], r.FlitHops["write"], r.FlitHops["writeback"])
		}
		fmt.Println()
	}
}

func fig6() {
	header("Figure 6: Applications (15 CUs + 1 CPU core)")
	names := stash.Applications()
	orgs := []stash.MemOrg{stash.Scratch, stash.ScratchG, stash.Cache, stash.Stash, stash.StashG}
	res := collect("fig6", names, orgs)
	printNormalized("(a) Execution time", names, orgs, res,
		func(r stash.Result) float64 { return float64(r.Cycles) })
	printNormalized("(b) Dynamic energy", names, orgs, res,
		func(r stash.Result) float64 { return r.EnergyPJ })
	printEnergyBreakdown(names, orgs, res)
}
