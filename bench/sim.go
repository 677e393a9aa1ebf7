package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"stash"
	"stash/internal/energy"
	"stash/internal/system"
	"stash/internal/workloads"
)

// fig5Specs is the Fig. 5 grid: four microbenchmarks on Scratch,
// ScratchGD, Cache and Stash, each on the 1 CU + 15 CPU machine.
func fig5Specs() []stash.RunSpec {
	return stash.Grid(stash.Microbenchmarks(), []stash.MemOrg{stash.Scratch, stash.ScratchGD, stash.Cache, stash.Stash})
}

// fig6Specs is the Fig. 6 Stash column: the seven applications on the
// 15 CU + 1 CPU machine.
func fig6Specs() []stash.RunSpec {
	return stash.Grid(stash.Applications(), []stash.MemOrg{stash.Stash})
}

// simGrid is a simulator workload's cells with their golden entries.
type simGrid struct {
	specs  []stash.RunSpec
	golden []goldenEntry
}

// minPasses is the fewest passes a run makes, so every per-cell median
// has at least three samples.
const minPasses = 3

// setupSim loads the grid and its golden entries and runs the warm-up
// cell (the grid cell named warm) once, checking it like any other.
func setupSim(specs []stash.RunSpec, warm string, rep *report) (*simGrid, error) {
	golden, err := loadGolden(specs)
	if err != nil {
		return nil, err
	}
	g := &simGrid{specs: specs, golden: golden}
	for i, s := range specs {
		if s.String() == warm {
			g.runPublic(i, rep)
			return g, nil
		}
	}
	return nil, fmt.Errorf("warm-up cell %s is not in the grid", warm)
}

// runPublic runs cell i through stash.RunWorkloadContext, checks it
// against its golden entry, and returns the result and host time.
func (g *simGrid) runPublic(i int, rep *report) (stash.Result, time.Duration) {
	s := g.specs[i]
	// Start every cell from an empty heap, so that no cell pays for the
	// garbage of whichever cell ran before it in the seeded order.
	runtime.GC()
	start := time.Now()
	res, err := stash.RunWorkloadContext(context.Background(), s.Workload, s.Config)
	wall := time.Since(start)
	if err == nil {
		err = g.golden[i].check(res)
	}
	rep.cell(s.String(), err)
	return res, wall
}

// setupSimRepeated runs the set-up setupReps times and reports the
// median as setup_s; the first repetition is timed from process start.
func setupSimRepeated(specs func() []stash.RunSpec, warm string, rep *report) (*simGrid, error) {
	var g *simGrid
	var times []float64
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		var err error
		if g, err = setupSim(specs(), warm, rep); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(times))
	return g, nil
}

// runSimTimed runs whole passes over the grid, each in a seeded order,
// until the next pass would end after cfg.seconds (at least minPasses).
// A pass is one regeneration of the figure; its time is the sum of its
// cells' host times.
func runSimTimed(g *simGrid, cfg runConfig, rep *report) {
	n := len(g.specs)
	perCell := make([][]float64, n)
	var passTimes []float64
	var hostTime float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cells := 0
	for pass := 0; pass < minPasses || time.Since(start)+time.Since(start)/time.Duration(pass) <= cfg.seconds; pass++ {
		var passTime float64
		for _, i := range passOrder(cfg.seed, pass, n) {
			_, wall := g.runPublic(i, rep)
			perCell[i] = append(perCell[i], wall.Seconds())
			passTime += wall.Seconds()
			cells++
		}
		passTimes = append(passTimes, passTime)
		hostTime += passTime
	}
	runtime.ReadMemStats(&after)

	var cycles, medianTime float64
	rates := make([]float64, n)
	cellMedians := make([]float64, n)
	for i := range g.specs {
		cellMedians[i] = median(perCell[i])
		c := float64(g.golden[i].Cycles)
		cycles += c
		medianTime += cellMedians[i]
		rates[i] = c / cellMedians[i]
	}
	p50, _ := percentile(passTimes, 50)
	p90, beyond := percentile(passTimes, 90)
	rep.set("sim_cycles_per_s", cycles/medianTime)
	rep.set("sim_cycles_per_s_geomean", geomean(rates))
	rep.set("alloc_mb_per_cell", float64(after.TotalAlloc-before.TotalAlloc)/float64(cells)/1e6)
	rep.set("sweep_ms_p50", p50*1e3)
	rep.set("sweep_ms_p90", p90*1e3)
	rep.set("first_line_ms_p50", median(cellMedians)*1e3)
	rep.set("cells_per_s", float64(cells)/hostTime)
	log.Printf("%d passes of %d cells in %.1fs; sweep p90 over %d passes has %d beyond it",
		len(passTimes), n, time.Since(start).Seconds(), len(passTimes), beyond)
}

// runSimTraced alternates an untraced pass through the public API with
// a traced, profiled pass that splits every cell into its layer calls,
// until the next pair would end after cfg.seconds (at least one pair).
// The split's Result must equal the public API's for every cell.
func runSimTraced(g *simGrid, cfg runConfig, rep *report) error {
	n := len(g.specs)
	tr := newTracer()
	public := make([]stash.Result, n)
	untraced := make([][]float64, n)
	splits := make([][]splitTimes, n)
	var profiles [][]byte
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start)+time.Since(start)/time.Duration(pair) <= cfg.seconds; pair++ {
		order := passOrder(cfg.seed, pair, n)
		for _, i := range order {
			res, wall := g.runPublic(i, rep)
			public[i] = res
			untraced[i] = append(untraced[i], wall.Seconds())
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		for _, i := range order {
			runtime.GC() // as runPublic does
			res, st, err := splitRun(tr, g.specs[i])
			if err == nil {
				err = g.golden[i].check(res)
			}
			if err == nil && !reflect.DeepEqual(res, public[i]) {
				err = fmt.Errorf("the lowering copy's Result differs from stash.RunWorkloadContext's")
			}
			rep.cell(g.specs[i].String()+" (split)", err)
			splits[i] = append(splits[i], st)
		}
		pprof.StopCPUProfile()
		profiles = append(profiles, prof.Bytes())
	}

	// Per-cell medians over the traced passes, then sums over cells.
	var events, cycles uint64
	var build, run, verify, traced, plain float64
	var l1 l1Churn
	for i := range g.specs {
		med := func(part func(splitTimes) time.Duration) float64 {
			var xs []float64
			for _, st := range splits[i] {
				xs = append(xs, part(st).Seconds())
			}
			return median(xs)
		}
		events += splits[i][0].events
		cycles += public[i].Cycles
		build += med(func(st splitTimes) time.Duration { return st.build })
		run += med(func(st splitTimes) time.Duration { return st.run })
		verify += med(func(st splitTimes) time.Duration { return st.verify })
		traced += med(func(st splitTimes) time.Duration { return st.total })
		plain += median(untraced[i])
		l1.add(public[i].Counters)
	}
	rep.set("sim.events", float64(events))
	rep.set("sim.events_per_cycle", float64(events)/float64(cycles))
	rep.set("sim.ns_per_event", run*1e9/float64(events))
	rep.set("cell.build_ms", build*1e3/float64(n))
	rep.set("cell.run_ms", run*1e3/float64(n))
	rep.set("cell.verify_ms", verify*1e3/float64(n))
	rep.set("l1.evictions_per_miss", l1.perMiss())
	rep.set("trace.overhead_share", traced/plain-1)
	if err := rep.setHostShares(profiles); err != nil {
		return err
	}

	lines := make([][]byte, n)
	for i, s := range g.specs {
		line, err := json.Marshal(stash.SweepResult{Spec: s, Result: public[i], Wall: time.Duration(untraced[i][0] * 1e9), Attempts: 1})
		if err != nil {
			return fmt.Errorf("encoding %s: %w", s, err)
		}
		lines[i] = line
	}
	if err := rep.codecTimes(g.specs, lines); err != nil {
		return err
	}
	return rep.writeTrace(cfg, tr, profiles)
}

// splitTimes holds the host time of one split cell's layer calls and
// its engine event count.
type splitTimes struct {
	build, run, verify, total time.Duration
	events                    uint64
}

// l1Churn sums L1 evictions and misses over cells' counters.
type l1Churn struct{ evictions, misses uint64 }

func (c *l1Churn) add(counters map[string]uint64) {
	for name, v := range counters {
		switch {
		case strings.HasPrefix(name, "l1.") && strings.HasSuffix(name, ".evictions"):
			c.evictions += v
		case strings.HasPrefix(name, "l1.") && strings.HasSuffix(name, ".misses"):
			c.misses += v
		}
	}
}

func (c l1Churn) perMiss() float64 { return float64(c.evictions) / float64(c.misses) }

// splitRun runs one cell the way stash.RunWorkloadContext does, but as
// separate calls into the workload and system layers, recording a span
// around each: system.New on a copy of the default-config lowering,
// Workload.Run, the measurement snapshot, then Workload.Verify.
func splitRun(tr *tracer, spec stash.RunSpec) (res stash.Result, st splitTimes, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("split run panicked: %v", p)
		}
	}()
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return stash.Result{}, st, err
	}
	org := lowerOrg[spec.Config.Org]
	t0 := time.Now()
	s := system.New(lowerDefault(spec.Config))
	t1 := time.Now()
	w.Run(s, org)
	t2 := time.Now()
	st.events = s.Eng.Steps()
	res = measureDefault(s)
	t3 := time.Now()
	verr := w.Verify(s)
	t4 := time.Now()
	st.build, st.run, st.verify, st.total = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3), t4.Sub(t0)
	req := spec.String()
	root := tr.record(0, req, "cell", t0, t4)
	tr.record(root, req, "system.New", t0, t1)
	tr.record(root, req, "Workload.Run", t1, t2)
	tr.record(root, req, "measure", t2, t3)
	tr.record(root, req, "Workload.Verify", t3, t4)
	if verr != nil {
		return res, st, fmt.Errorf("verification: %w", verr)
	}
	return res, st, nil
}

var lowerOrg = map[stash.MemOrg]system.MemOrg{
	stash.Scratch:   system.Scratch,
	stash.ScratchG:  system.ScratchG,
	stash.ScratchGD: system.ScratchGD,
	stash.Cache:     system.CacheOnly,
	stash.StashG:    system.StashG,
	stash.Stash:     system.StashOrg,
}

// lowerDefault copies what stash.Config's lowering does for a default
// configuration (no ablations, checks, faults, tracing or technology
// axes): the microbenchmark machine's parameters, node placement, and
// data replication on.
func lowerDefault(c stash.Config) system.Config {
	cfg := system.MicrobenchConfig(lowerOrg[c.Org])
	cfg.GPUNodes, cfg.CPUNodes = nil, nil
	for n := 0; n < c.GPUs; n++ {
		cfg.GPUNodes = append(cfg.GPUNodes, n)
	}
	for n := c.GPUs; n < c.GPUs+c.CPUs; n++ {
		cfg.CPUNodes = append(cfg.CPUNodes, n)
	}
	cfg.Stash.EnableReplication = true
	return cfg
}

// measureDefault copies stash's measurement snapshot for a
// configuration without static energy or tracing.
func measureDefault(s *system.System) stash.Result {
	r := stash.Result{
		Cycles:            uint64(s.Cycles()),
		EnergyPJ:          s.Acct.TotalPJ(),
		EnergyByComponent: make(map[string]float64),
		FlitHops:          make(map[string]uint64),
		Counters:          s.Stats.Snapshot(),
		EnergyEvents:      s.Acct.NonzeroCounts(),
	}
	for c := energy.Component(0); c < energy.NumComponents; c++ {
		if pj := s.Acct.ComponentPJ(c); pj != 0 || c < energy.DRAM {
			r.EnergyByComponent[c.String()] = pj
		}
	}
	for name, v := range r.Counters {
		if strings.HasPrefix(name, "cu.") && strings.HasSuffix(name, ".instructions") {
			r.GPUInstructions += v
		}
	}
	for _, class := range []string{"read", "write", "writeback"} {
		r.FlitHops[class] = s.Stats.Sum("noc.flit_hops." + class)
	}
	return r
}
