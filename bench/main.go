// Command stashbench is the repository's benchmark. It runs one
// workload against the code as it stands, measuring from outside: it
// calls the public stash API and the public functions of the internal
// packages and times those calls. It checks every output, and prints
// one JSON result line last on standard output.
//
//	stashbench --workload fig5-micro --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the
// separate traced run and reports the per-layer metrics, writing its
// spans and CPU profiles under .bench_build/traces. README.md beside
// this file defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stash"
)

var processStart = time.Now()

// setupReps is how many times every run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// workDir holds everything a run writes, inside the checkout.
const workDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, every one on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"sim_cycles_per_s_geomean", "cycles/s"},
	{"alloc_mb_per_cell", "MB"},
	{"sweep_ms_p50", "ms"},
	{"sweep_ms_p90", "ms"},
	{"first_line_ms_p50", "ms"},
	{"cells_per_s", "cells/s"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer the
// workload does not run reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_cycle", "events/cycle"},
		{"sim.ns_per_event", "ns"},
		{"cell.build_ms", "ms"},
		{"cell.run_ms", "ms"},
		{"cell.verify_ms", "ms"},
		{"l1.evictions_per_miss", "ratio"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l, "share"})
	}
	defs = append(defs,
		metricDef{"serve.cells_simulated", "count"},
		metricDef{"serve.sim_busy_share", "share"},
		metricDef{"serve.shed_requests", "count"},
		metricDef{"cellcache.hit_ratio", "ratio"},
		metricDef{"cellcache.mem_hits", "count"},
		metricDef{"cellcache.store_hits", "count"},
		metricDef{"cellcache.misses", "count"},
		metricDef{"cellcache.stored_bytes_per_cell", "B"},
		metricDef{"cellcache.compression_ratio", "ratio"},
		metricDef{"serve.handler_us_per_cell", "us"},
		metricDef{"net.transport_us_per_cell", "us"},
		metricDef{"stash.fingerprint_us", "us"},
		metricDef{"stash.encode_us", "us"},
		metricDef{"stash.decode_us", "us"},
	)
	for _, e := range engines {
		defs = append(defs,
			metricDef{"cellcache." + e.name + ".get_us", "us"},
			metricDef{"cellcache." + e.name + ".put_us", "us"},
			metricDef{"cellcache." + e.name + ".open_ms", "ms"},
		)
	}
	return append(defs, metricDef{"trace.overhead_share", "share"})
}()

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

type runner func(cfg runConfig, rep *report) error

// workloadRunners maps each workload to its run; cfg.trace selects the
// timed or the traced run. A simulator workload's set-up runs one
// warm-up cell of a few hundred milliseconds, so set-up time is
// dominated by work rather than by millisecond jitter.
var workloadRunners = map[string]runner{
	"fig5-micro":    simRunner(fig5Specs, "pollution/Scratch"),
	"fig6-stash":    simRunner(fig6Specs, "surf/Stash"),
	"stashd-cold":   runCold,
	"stashd-replay": runReplay,
}

func simRunner(specs func() []stash.RunSpec, warm string) runner {
	return func(cfg runConfig, rep *report) error {
		g, err := setupSimRepeated(specs, warm, rep)
		if err != nil {
			return err
		}
		if cfg.trace {
			return runSimTraced(g, cfg, rep)
		}
		runSimTimed(g, cfg, rep)
		return nil
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig5-micro, fig6-stash, stashd-cold or stashd-replay")
	seed := flag.Int64("seed", 1, "seed for the workload's cell order, cells and request stream")
	seconds := flag.Float64("seconds", 30, "how long the timed phase measures")
	traceFlag := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("stashbench: ")

	run, ok := workloadRunners[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloadRunners))
		for name := range workloadRunners {
			names = append(names, name)
		}
		sort.Strings(names)
		log.Fatalf("usage: --workload {%s} --seed N --seconds S --trace 0|1", strings.Join(names, ","))
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		log.Fatal(err)
	}
	rep := &report{values: make(map[string]float64)}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := run(cfg, rep); err != nil {
		log.Fatalf("%s: %v", cfg.workload, err)
	}
	out, err := rep.result(defs, !cfg.trace)
	if err != nil {
		log.Fatalf("%s: %v", cfg.workload, err)
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// report collects a run's cell outcomes and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// cell records one checked cell; a non-nil err counts it as failed.
func (r *report) cell(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			log.Printf("FAILED %s: %v", what, err)
		}
	}
}

// cells records the outcome of each of specs' checks.
func (r *report) cells(specs []stash.RunSpec, errs []error) {
	for i, spec := range specs {
		r.cell(spec.String(), errs[i])
	}
}

// check records a failed check on something other than a cell's
// output, such as a codec round trip or a cache engine read.
func (r *report) check(what string, err error) {
	if err != nil {
		r.fail(1, fmt.Errorf("%s: %w", what, err))
	}
}

// fail records n cells found wrong by a check over a whole phase.
func (r *report) fail(n int, err error) {
	r.failed += n
	log.Printf("FAILED %d cells: %v", n, err)
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setHostShares merges the CPU profiles' self time by layer into the
// host.* metrics.
func (r *report) setHostShares(profiles [][]byte) error {
	weights := make(map[string]float64)
	for _, p := range profiles {
		shares, err := layerShares(p)
		if err != nil {
			return err
		}
		for layer, s := range shares {
			weights[layer] += s / float64(len(profiles))
		}
	}
	for _, l := range hostLayers {
		r.set("host."+l, weights[l])
	}
	return nil
}

// writeTrace saves the traced run's spans and CPU profiles.
func (r *report) writeTrace(cfg runConfig, tr *tracer, profiles [][]byte) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	log.Printf("trace written to %s.*", base)
	return nil
}

// result renders the JSON result line. Every metric in defs must have
// a finite value; with e2e set, every one must have been measured
// and be positive.
func (r *report) result(defs []metricDef, e2e bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if e2e && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("metric %s = %v, want a measured positive value", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no cells attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}
