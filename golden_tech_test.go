package stash

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
)

// The technology golden table pins the versioned timing-model extension:
// cells running under non-default memory-technology profiles. The
// default (nil tech axes) path is pinned by testdata/golden.json and must
// never move; these cells pin what the extension itself computes, so a
// change to the technology lowering is as loud as a change to the core
// timing model. Regenerate deliberately with
//
//	go test -run TestGoldenTech -update-golden-tech
//
// and justify the diff in review.

var updateGoldenTech = flag.Bool("update-golden-tech", false, "rewrite testdata/golden_tech.json from the current simulator")

const goldenTechPath = "testdata/golden_tech.json"

type goldenTechEntry struct {
	Name           string  `json:"name"`
	Workload       string  `json:"workload"`
	Config         Config  `json:"config"`
	Cycles         uint64  `json:"cycles"`
	EnergyPJ       float64 `json:"energy_pj"`
	StaticEnergyPJ float64 `json:"static_energy_pj"`
	ResultSHA256   string  `json:"result_sha256"` // see goldenEntry
}

// goldenTechCells spans the extension's axes: both non-default profiles,
// stash and cache structures, both machine shapes, a capacity override,
// an LLC axis, and an inline-override custom spec.
func goldenTechCells() []struct {
	Name     string
	Workload string
	Config   Config
} {
	cell := func(name, w string, cfg Config) struct {
		Name     string
		Workload string
		Config   Config
	} {
		return struct {
			Name     string
			Workload string
			Config   Config
		}{name, w, cfg}
	}
	sttStash := MicroConfig(Stash)
	sttStash.StashTech = &TechSpec{Profile: "stt-mram"}
	edramStash := MicroConfig(Stash)
	edramStash.StashTech = &TechSpec{Profile: "edram"}
	sttCache := MicroConfig(Cache)
	sttCache.L1Tech = &TechSpec{Profile: "stt-mram"}
	edramLLC := MicroConfig(Cache)
	edramLLC.LLCTech = &TechSpec{Profile: "edram"}
	bigStt := MicroConfig(Stash)
	bigStt.StashTech = &TechSpec{Profile: "stt-mram", CapacityKB: 64}
	custom := MicroConfig(Stash)
	custom.StashTech = &TechSpec{WriteLatDelta: 4, WriteEnergyScale: 3, LeakageMWPerKB: 0.005}
	appStt := AppConfig(StashG)
	appStt.StashTech = &TechSpec{Profile: "stt-mram"}
	appStt.L1Tech = &TechSpec{Profile: "stt-mram"}
	return []struct {
		Name     string
		Workload string
		Config   Config
	}{
		cell("stt-mram stash", "implicit", sttStash),
		cell("edram stash", "implicit", edramStash),
		cell("stt-mram gpu L1", "reuse", sttCache),
		cell("edram llc", "reuse", edramLLC),
		cell("stt-mram stash 64KB", "reuse", bigStt),
		cell("custom write-penalty stash", "implicit", custom),
		cell("app stt-mram stash+l1", "lud", appStt),
	}
}

func writeGoldenTech(t *testing.T) {
	t.Helper()
	cells := goldenTechCells()
	specs := make([]RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = RunSpec{Workload: c.Workload, Config: c.Config}
	}
	results, err := Sweep(context.Background(), specs, SweepOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]goldenTechEntry, len(results))
	for i, r := range results {
		entries[i] = goldenTechEntry{
			Name:           cells[i].Name,
			Workload:       r.Spec.Workload,
			Config:         r.Spec.Config,
			Cycles:         r.Result.Cycles,
			EnergyPJ:       r.Result.EnergyPJ,
			StaticEnergyPJ: r.Result.StaticEnergyPJ,
			ResultSHA256:   resultDigest(t, r.Result),
		}
	}
	data, err := json.MarshalIndent(entries, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenTechPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d tech golden entries to %s", len(entries), goldenTechPath)
}

// TestGoldenTechMetrics replays every technology cell and requires exact
// equality with the committed table.
func TestGoldenTechMetrics(t *testing.T) {
	if *updateGoldenTech {
		writeGoldenTech(t)
		return
	}
	data, err := os.ReadFile(goldenTechPath)
	if err != nil {
		t.Fatalf("reading tech golden table (regenerate with -update-golden-tech): %v", err)
	}
	var entries []goldenTechEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("parsing %s: %v", goldenTechPath, err)
	}
	if want := len(goldenTechCells()); len(entries) != want {
		t.Fatalf("tech golden table has %d entries, want %d; regenerate with -update-golden-tech", len(entries), want)
	}
	for _, e := range entries {
		e := e
		if testing.Short() && !IsMicrobenchmark(e.Workload) {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunWorkloadCfg(e.Workload, e.Config)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != e.Cycles {
				t.Errorf("Cycles = %d, golden %d", res.Cycles, e.Cycles)
			}
			if res.EnergyPJ != e.EnergyPJ {
				t.Errorf("EnergyPJ = %v, golden %v", res.EnergyPJ, e.EnergyPJ)
			}
			if res.StaticEnergyPJ != e.StaticEnergyPJ {
				t.Errorf("StaticEnergyPJ = %v, golden %v", res.StaticEnergyPJ, e.StaticEnergyPJ)
			}
			if got := resultDigest(t, res); got != e.ResultSHA256 {
				t.Errorf("Result SHA-256 = %s, golden %s", got, e.ResultSHA256)
			}
		})
	}
}

// TestGoldenTechDiverges cross-checks the two golden tables: a
// write-penalized technology must cost cycles and move energy relative
// to the default-profile golden entry of the same cell, proving the
// extension actually changes the model rather than being silently
// ignored.
func TestGoldenTechDiverges(t *testing.T) {
	base := map[string]goldenEntry{}
	for _, e := range readGolden(t) {
		base[e.Workload+"/"+e.Org] = e
	}
	data, err := os.ReadFile(goldenTechPath)
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenTechEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name != "stt-mram stash" {
			continue
		}
		b, ok := base[e.Workload+"/"+e.Config.Org.String()]
		if !ok {
			t.Fatalf("no default golden entry for %s/%s", e.Workload, e.Config.Org)
		}
		if e.Cycles <= b.Cycles {
			t.Errorf("stt-mram stash cycles %d not above default %d", e.Cycles, b.Cycles)
		}
		if e.EnergyPJ == b.EnergyPJ {
			t.Error("stt-mram stash energy identical to default golden entry")
		}
		if e.StaticEnergyPJ <= 0 {
			t.Error("stt-mram stash reported no static energy")
		}
		return
	}
	t.Fatal("tech golden table has no 'stt-mram stash' entry")
}
