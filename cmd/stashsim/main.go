// Stashsim runs workloads on memory organizations and prints the
// measured metrics (and, with -v, the full counter dump):
//
//	stashsim -workload reuse -org Stash
//	stashsim -workload lud -org Cache -v
//	stashsim -list
//
// Both -workload and -org accept comma-separated lists or the keyword
// "all" ("micro" and "apps" also work for -workload); the cross
// product runs as one parallel sweep and reports are printed in grid
// order, so output is identical for every -j value:
//
//	stashsim -workload all -org Scratch,Stash -j 8
//	stashsim -workload micro -org all -json results.json
//	stashsim -workload micro -org all -json -   # JSON on stdout, report on stderr
//
// With -server the sweep is submitted to a running stashd daemon
// instead of simulated locally; cells the daemon has seen before are
// served from its content-addressed cache without re-simulating:
//
//	stashsim -workload all -org all -server http://localhost:8341
//
// Ablation flags map to the paper's design options:
//
//	-no-replication    disable the Section 4.5 data replication optimization
//	-eager-writeback   write dirty stash data back at every kernel boundary
//	-chunk-words N     lazy-writeback chunk granularity (power of two, <=16)
//
// Memory-technology flags explore non-SRAM structures (DESIGN.md §16);
// each takes a profile name (sram, stt-mram, edram) and each structure
// can be resized independently:
//
//	-stash-tech P      stash data-array technology
//	-l1-tech P         GPU L1 technology
//	-llc-tech P        LLC bank technology
//	-stash-cap N       stash capacity in KB     (0 = default 16)
//	-l1-cap N          L1 capacity in KB        (0 = default 32)
//	-llc-cap N         LLC per-bank capacity KB (0 = default 256)
//
// Hardening flags (see DESIGN.md §10) make long sweeps robust: a cell
// that hangs, deadlocks, breaks an invariant, or panics is reported as
// a structured per-cell failure — with its machine-state diagnostic in
// the JSON output — while the remaining cells still run and print:
//
//	-check             enable coherence invariant checking
//	-watchdog N        fail a cell after N cycles without protocol progress,
//	                   checked once per 4096 executed events (so up to one
//	                   such period late; a shorter stall goes unreported)
//	-cell-timeout D    wall-clock budget per cell attempt (e.g. 2m)
//	-retries N         re-run failed cells up to N extra times
//	-fail-fast         stop scheduling new cells after the first failure
//
// The exit status is nonzero if any cell failed.
//
// Tracing flags record a cycle-accurate event timeline per cell
// (timing-neutral: metrics are bit-identical with tracing on or off):
//
//	-trace PATH        write a Chrome/Perfetto trace; with multiple cells
//	                   PATH is a directory of <workload>-<org> files
//	-trace-buckets N   time-series window width in cycles (default 1024)
//
// Failed and timed-out cells still write their partial trace — a
// truncated-but-valid file covering the run up to the failure. Traces
// require local simulation (they do not cross the -server wire).
//
// For performance work, -cpuprofile and -memprofile write pprof
// profiles of the simulation itself:
//
//	stashsim -workload reuse -org Stash -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"stash"
	"stash/internal/cliutil"
)

func main() {
	workload := flag.String("workload", "implicit", "comma-separated workload names, or all|micro|apps (see -list)")
	orgName := flag.String("org", "Stash", "comma-separated memory organizations, or all: Scratch|ScratchG|ScratchGD|Cache|Stash|StashG")
	list := flag.Bool("list", false, "list workloads and exit")
	verbose := flag.Bool("v", false, "dump all raw counters")
	noRepl := flag.Bool("no-replication", false, "disable the data replication optimization")
	eager := flag.Bool("eager-writeback", false, "eager (kernel-boundary) stash writebacks")
	chunkWords := flag.Int("chunk-words", 0, "lazy-writeback chunk granularity in words (0 = default 16)")
	stashTech := flag.String("stash-tech", "", "stash memory technology profile (sram|stt-mram|edram; empty = baseline)")
	l1Tech := flag.String("l1-tech", "", "GPU L1 memory technology profile (empty = baseline)")
	llcTech := flag.String("llc-tech", "", "LLC memory technology profile (empty = baseline)")
	stashCap := flag.Int("stash-cap", 0, "stash capacity in KB (0 = default)")
	l1Cap := flag.Int("l1-cap", 0, "L1 capacity in KB (0 = default)")
	llcCap := flag.Int("llc-cap", 0, "LLC per-bank capacity in KB (0 = default)")
	check := flag.Bool("check", false, "enable coherence invariant checking")
	watchdog := flag.Uint64("watchdog", 0, "fail a cell after this many cycles without protocol progress, checked once per 4096 executed events (0 = off)")
	cellTimeout := flag.Duration("cell-timeout", 0, "wall-clock budget per cell attempt (0 = unbounded)")
	retries := flag.Int("retries", 0, "extra attempts for failed cells")
	failFast := flag.Bool("fail-fast", false, "stop scheduling new cells after the first failure")
	tracePath := flag.String("trace", "", "write per-cell event traces to this file (one cell) or directory")
	traceBuckets := flag.Uint64("trace-buckets", 0, "trace time-series window width in cycles (0 = default 1024)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	var sweepFlags cliutil.SweepFlags
	sweepFlags.Register()
	version := cliutil.VersionFlag()
	flag.Parse()
	version()
	sweepFlags.TextToStderr()

	if sweepFlags.Server != "" && *tracePath != "" {
		fmt.Fprintln(os.Stderr, "-trace requires local simulation; drop -server or -trace")
		os.Exit(2)
	}
	if sweepFlags.Server != "" && (*failFast || *cellTimeout != 0 || *retries != 0) {
		fmt.Fprintln(os.Stderr, "note: -fail-fast/-cell-timeout/-retries are local policies; the daemon applies its own")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile shows live heap accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *list {
		fmt.Println("microbenchmarks:", stash.Microbenchmarks())
		fmt.Println("applications:   ", stash.Applications())
		return
	}

	workloads := cliutil.ExpandWorkloads(*workload)
	orgs, err := cliutil.ExpandOrgs(*orgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	specs := make([]stash.RunSpec, 0, len(workloads)*len(orgs))
	for _, w := range workloads {
		for _, org := range orgs {
			cfg := stash.MicroConfig(org)
			if !stash.IsMicrobenchmark(w) {
				cfg = stash.AppConfig(org)
			}
			cfg.DisableReplication = *noRepl
			cfg.EagerWriteback = *eager
			cfg.ChunkWords = *chunkWords
			cfg.CheckInvariants = *check
			cfg.WatchdogBudget = *watchdog
			if *stashTech != "" || *stashCap != 0 {
				cfg.StashTech = &stash.TechSpec{Profile: *stashTech, CapacityKB: *stashCap}
			}
			if *l1Tech != "" || *l1Cap != 0 {
				cfg.L1Tech = &stash.TechSpec{Profile: *l1Tech, CapacityKB: *l1Cap}
			}
			if *llcTech != "" || *llcCap != 0 {
				cfg.LLCTech = &stash.TechSpec{Profile: *llcTech, CapacityKB: *llcCap}
			}
			if *tracePath != "" {
				cfg.Trace = &stash.TraceConfig{BucketCycles: *traceBuckets}
			}
			specs = append(specs, stash.RunSpec{Workload: w, Config: cfg})
		}
	}

	start := time.Now()
	results, err := sweepFlags.Run(context.Background(), specs, stash.SweepOptions{
		FailFast:    *failFast,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
	})
	if len(specs) > 1 {
		sweepFlags.ReportWall("", len(specs), time.Since(start))
	}
	if results == nil {
		// The daemon refused the sweep outright (nothing ran).
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Failures never suppress the cells that did complete: every cell is
	// reported, the JSON (if requested) carries the full partial results
	// with per-cell status and diagnostics, and only then does a failing
	// sweep exit nonzero.
	failed := 0
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		if r.Err != nil {
			failed++
		}
		report(r, *verbose)
	}
	if sweepFlags.JSONOut != "" {
		cliutil.WriteJSON(sweepFlags.JSONOut, results)
	}
	if *tracePath != "" {
		writeTraces(*tracePath, results)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%d of %d cells failed\n", failed, len(results))
		os.Exit(1)
	}
}

func report(r stash.SweepResult, verbose bool) {
	cfg := r.Spec.Config
	fmt.Printf("%s on %s (%d CUs, %d CPU cores)\n", r.Spec.Workload, cfg.Org, cfg.GPUs, cfg.CPUs)
	if r.Err != nil {
		fmt.Printf("  status: %s", r.Status())
		if r.Attempts > 1 {
			fmt.Printf(" (after %d attempts)", r.Attempts)
		}
		fmt.Printf("\n  error: %v\n", r.Err)
		var ce *stash.CellError
		if errors.As(r.Err, &ce) && ce.Diagnostic != "" {
			if verbose {
				fmt.Printf("  diagnostic:\n%s", indent(ce.Diagnostic, "    "))
			} else {
				fmt.Println("  (run with -v or -json for the machine-state diagnostic)")
			}
		}
		return
	}
	res := r.Result
	fmt.Print(res)
	if res.StaticEnergyPJ != 0 {
		fmt.Printf("  static energy: %.1f nJ (leakage; not in the dynamic total)\n", res.StaticEnergyPJ/1e3)
	}
	fmt.Printf("  traffic: read=%d write=%d writeback=%d flit-hops\n",
		res.FlitHops["read"], res.FlitHops["write"], res.FlitHops["writeback"])
	if verbose {
		names := make([]string, 0, len(res.Counters))
		for n := range res.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if res.Counters[n] != 0 {
				fmt.Printf("  %-44s %12d\n", n, res.Counters[n])
			}
		}
	}
}

func indent(s, prefix string) string {
	var sb strings.Builder
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		sb.WriteString(prefix)
		sb.WriteString(ln)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// writeTraces writes each cell's timeline. Cells that failed or timed
// out keep whatever they traced before stopping, so their files are
// truncated but still valid; only never-started cells (no timeline)
// are skipped.
func writeTraces(path string, results []stash.SweepResult) {
	dir := len(results) > 1
	if dir {
		if err := os.MkdirAll(path, 0o777); err != nil {
			log.Fatal(err)
		}
	}
	for _, r := range results {
		tl := r.Result.Timeline
		if tl == nil {
			continue
		}
		p := path
		if dir {
			p = filepath.Join(path, fmt.Sprintf("%s-%s.json", r.Spec.Workload, r.Spec.Config.Org))
		}
		if err := cliutil.WriteTimeline(p, tl); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (%d events)\n", p, tl.NumEvents())
	}
}
