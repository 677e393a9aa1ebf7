package stash

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The golden-metrics regression test pins every simulated metric of
// every (workload, organization) pair to exact values captured before
// the zero-allocation hot-path work. Performance optimizations must
// never change simulated results: cycles, energy, instruction counts
// and network traffic are bit-identical across refactors, and any
// intentional model change must regenerate the table with
//
//	go test -run TestGoldenMetrics -update-golden
//
// and justify the diff in review.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current simulator")

const goldenPath = "testdata/golden.json"

// goldenEntry is one (workload, org) cell of the golden table. EnergyPJ
// round-trips exactly through JSON: encoding/json emits the shortest
// float representation that parses back to the identical float64.
// ResultSHA256 pins the rest of the Result (every counter, energy event
// and component) that the named columns leave out.
type goldenEntry struct {
	Workload     string            `json:"workload"`
	Org          string            `json:"org"`
	Cycles       uint64            `json:"cycles"`
	EnergyPJ     float64           `json:"energy_pj"`
	Instructions uint64            `json:"instructions"`
	FlitHops     map[string]uint64 `json:"flit_hops"`
	ResultSHA256 string            `json:"result_sha256"`
}

// resultDigest is the hex SHA-256 of r's JSON encoding. encoding/json
// sorts map keys and prints floats in their shortest exact form, so the
// digest moves exactly when some field of r does.
func resultDigest(t *testing.T, r Result) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func goldenGrid() []RunSpec {
	return Grid(Workloads(), Orgs())
}

func readGolden(t *testing.T) []goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden table (regenerate with -update-golden): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return entries
}

func writeGolden(t *testing.T) {
	t.Helper()
	specs := goldenGrid()
	results, err := Sweep(context.Background(), specs, SweepOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]goldenEntry, 0, len(results))
	for _, r := range results {
		entries = append(entries, goldenEntry{
			Workload:     r.Spec.Workload,
			Org:          r.Spec.Config.Org.String(),
			Cycles:       r.Result.Cycles,
			EnergyPJ:     r.Result.EnergyPJ,
			Instructions: r.Result.GPUInstructions,
			FlitHops:     r.Result.FlitHops,
			ResultSHA256: resultDigest(t, r.Result),
		})
	}
	data, err := json.MarshalIndent(entries, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden entries to %s", len(entries), goldenPath)
}

// checkGolden requires res to match golden entry e: the named columns
// first, for a readable diff, then the digest of the whole Result.
func checkGolden(t *testing.T, e goldenEntry, res Result) {
	t.Helper()
	if res.Cycles != e.Cycles {
		t.Errorf("Cycles = %d, golden %d", res.Cycles, e.Cycles)
	}
	if res.EnergyPJ != e.EnergyPJ {
		t.Errorf("EnergyPJ = %v, golden %v", res.EnergyPJ, e.EnergyPJ)
	}
	if res.GPUInstructions != e.Instructions {
		t.Errorf("Instructions = %d, golden %d", res.GPUInstructions, e.Instructions)
	}
	for class, want := range e.FlitHops {
		if got := res.FlitHops[class]; got != want {
			t.Errorf("FlitHops[%s] = %d, golden %d", class, got, want)
		}
	}
	if got := resultDigest(t, res); got != e.ResultSHA256 {
		t.Errorf("Result SHA-256 = %s, golden %s", got, e.ResultSHA256)
	}
}

// forGoldenMicro runs fn as a subtest on each microbenchmark cell of the
// golden table (the 24 Figure 5 cells), with that cell's configuration.
func forGoldenMicro(t *testing.T, fn func(t *testing.T, e goldenEntry, cfg Config)) {
	cells := 0
	for _, e := range readGolden(t) {
		if !IsMicrobenchmark(e.Workload) {
			continue
		}
		cells++
		t.Run(e.Workload+"/"+e.Org, func(t *testing.T) {
			org, err := ParseMemOrg(e.Org)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, e, MicroConfig(org))
		})
	}
	if want := len(Microbenchmarks()) * len(Orgs()); cells != want {
		t.Fatalf("golden table has %d microbenchmark cells, want %d", cells, want)
	}
}

// TestGoldenChecksNeutral replays every Figure 5 cell with the full
// hardening instrumentation armed — invariant sweeps plus the watchdog
// — and requires a Result identical to the golden table's. The checker
// is a host-side probe that never schedules events or advances the
// clock, so "checks on" must be invisible to every simulated number.
func TestGoldenChecksNeutral(t *testing.T) {
	forGoldenMicro(t, func(t *testing.T, e goldenEntry, cfg Config) {
		cfg.CheckInvariants = true
		cfg.WatchdogBudget = 1 << 24
		res, err := RunWorkloadCfg(e.Workload, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, e, res)
	})
}

// TestGoldenTraceNeutral replays every Figure 5 cell with event tracing
// armed and requires a Result identical to the golden table's once its
// Timeline is set aside: trace sinks are host-side observers that never
// schedule events, advance the clock, charge energy, or count, so
// "tracing on" must be invisible to every simulated number — while
// still producing a populated timeline (component tracks, phases, and
// the headline time-series).
func TestGoldenTraceNeutral(t *testing.T) {
	forGoldenMicro(t, func(t *testing.T, e goldenEntry, cfg Config) {
		cfg.Trace = &TraceConfig{}
		res, err := RunWorkloadCfg(e.Workload, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tl := res.Timeline
		if tl == nil {
			t.Fatal("traced run returned no Timeline")
		}
		res.Timeline = nil
		checkGolden(t, e, res)

		if tl.NumEvents() == 0 {
			t.Error("timeline holds no events")
		}
		if n := len(tl.Tracks()); n < 6 {
			t.Errorf("timeline has %d component tracks, want at least 6: %v", n, tl.Tracks())
		}
		if len(tl.Phases()) == 0 {
			t.Error("timeline has no phase annotations")
		}
		if e.Workload != "implicit" || e.Org != "Stash" {
			return
		}
		sum := func(vals []uint64) uint64 {
			var s uint64
			for _, v := range vals {
				s += v
			}
			return s
		}
		if vals, ok := tl.Series("stash.gpu0.writebacks"); !ok {
			t.Errorf("timeline is missing series stash.gpu0.writebacks (have %v)", tl.SeriesNames())
		} else if sum(vals) == 0 {
			t.Error("series stash.gpu0.writebacks is all zero")
		}
		if _, ok := tl.Series("l1.gpu0.misses"); !ok {
			t.Errorf("timeline is missing series l1.gpu0.misses (have %v)", tl.SeriesNames())
		}
		// On this cell the stash absorbs the GPU's misses; the workload's
		// L1 miss traffic is on the producing CPU cores' L1s.
		var l1Misses, linkFlits uint64
		for _, name := range tl.SeriesNames() {
			vals, _ := tl.Series(name)
			switch {
			case strings.HasPrefix(name, "l1.") && strings.HasSuffix(name, ".misses"):
				l1Misses += sum(vals)
			case strings.HasPrefix(name, "noc.link."):
				linkFlits += sum(vals)
			}
		}
		if l1Misses == 0 {
			t.Error("L1 miss series recorded no misses on any L1")
		}
		if linkFlits == 0 {
			t.Error("per-link NoC flit series recorded no traffic")
		}
	})
}

// TestGoldenMetrics replays the full grid and requires exact equality
// with the committed table. In -short mode only the microbenchmark
// machine runs (the application cells are the long ones).
func TestGoldenMetrics(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
		return
	}
	entries := readGolden(t)
	if want := len(goldenGrid()); len(entries) != want {
		t.Fatalf("golden table has %d entries, grid has %d cells; regenerate with -update-golden", len(entries), want)
	}
	for _, e := range entries {
		e := e
		if testing.Short() && !IsMicrobenchmark(e.Workload) {
			continue
		}
		t.Run(e.Workload+"/"+e.Org, func(t *testing.T) {
			t.Parallel()
			org, err := ParseMemOrg(e.Org)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWorkload(e.Workload, org)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e, res)
		})
	}
}
