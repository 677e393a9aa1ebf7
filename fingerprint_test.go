package stash

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestFingerprintPinned pins the exact fingerprint of one well-known
// cell. Any change to the canonical encoding — however accidental —
// fails here and forces a deliberate fingerprintVersion bump, which is
// what keeps persisted cell caches from silently serving stale results.
func TestFingerprintPinned(t *testing.T) {
	fp, err := (RunSpec{Workload: "implicit", Config: MicroConfig(Stash)}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const want = "70423a9dcc0b7ba9a64cda600de87af0e68313288f20ffacc1d6470ab1d7077f"
	if fp != want {
		t.Errorf("fingerprint of implicit/MicroConfig(Stash) changed:\n got %s\nwant %s\nIf the encoding change is intentional, bump fingerprintVersion and repin.", fp, want)
	}
	// The retired pins for the same cell. A version bump retiring every
	// older cache entry is only true if the version string actually
	// moves the hash; guard against a refactor that stops folding it in.
	for version, old := range map[string]string{
		"stash-cell-v1": "33ceb7bd5ecc5aa7462f7c74c458b9dc975c51e5d7625da8f12a3a9a01a4cfbf",
		"stash-cell-v2": "7a21751cb410811a96c8981950098a196f1886904a3b813a5a7677e1d18d43d0",
		"stash-cell-v3": "54b33d65ae47b86da3eb3af90dddc4b7e0fb7a6094404cab8467d5f476c23c70",
		"stash-cell-v4": "6f34f56331fd590f588677faf8aee9e6513e19515942264b644638ffa2e6e8aa",
	} {
		if fp == old {
			t.Errorf("fingerprint collided with the retired %s pin; fingerprintVersion is no longer key material", version)
		}
	}
}

// TestFingerprintVersionIsKeyMaterial pins that the version constant
// participates in the hash: hand-hashing the same cell under a
// different version label must diverge from Fingerprint's output.
func TestFingerprintVersionIsKeyMaterial(t *testing.T) {
	spec := RunSpec{Workload: "implicit", Config: MicroConfig(Stash)}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := canonicalJSON(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	alt := sha256.New()
	io.WriteString(alt, "stash-cell-v1")
	alt.Write([]byte{0})
	io.WriteString(alt, spec.Workload)
	alt.Write([]byte{0})
	alt.Write(cfg)
	if fp == hex.EncodeToString(alt.Sum(nil)) {
		t.Error("fingerprint matches a v1-labelled hash of the same cell; version bump would not invalidate old caches")
	}
}

// TestFingerprintStable re-derives the same fingerprint many times
// (exercising Go's randomized map iteration inside the canonical
// encoder) and from separately constructed equal specs.
func TestFingerprintStable(t *testing.T) {
	mk := func() RunSpec {
		cfg := AppConfig(StashG)
		cfg.ChunkWords = 4
		cfg.Faults = &FaultConfig{Seed: 1<<63 + 12345, NoCJitterMax: 7}
		cfg.Trace = &TraceConfig{BucketCycles: 2048}
		return RunSpec{Workload: "lud", Config: cfg}
	}
	want, err := mk().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		got, err := mk().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: fingerprint not stable: %s vs %s", i, got, want)
		}
	}
}

// TestFingerprintFieldOrderIrrelevant encodes the same logical object
// through two struct types whose fields are declared in opposite
// orders; the canonical form must be identical. This pins the property
// that reordering Config's declaration can never invalidate a cache.
func TestFingerprintFieldOrderIrrelevant(t *testing.T) {
	type ab struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	type ba struct {
		B string `json:"b"`
		A int    `json:"a"`
	}
	x, err := canonicalJSON(ab{A: 3, B: "v"})
	if err != nil {
		t.Fatal(err)
	}
	y, err := canonicalJSON(ba{B: "v", A: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(x) != string(y) {
		t.Errorf("canonical encodings differ across field order:\n%s\n%s", x, y)
	}
}

// TestFingerprint64BitExact pins that large uint64 values (fault seeds)
// survive canonicalization exactly rather than being rounded through
// float64 — two seeds that differ only below float64 precision must
// fingerprint differently.
func TestFingerprint64BitExact(t *testing.T) {
	spec := func(seed uint64) RunSpec {
		cfg := MicroConfig(Stash)
		cfg.Faults = &FaultConfig{Seed: seed, NoCJitterMax: 1}
		return RunSpec{Workload: "reuse", Config: cfg}
	}
	a, err := spec(1 << 60).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec(1<<60 + 1).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("seeds differing by 1 ulp-below-float64-precision collided")
	}
}

// TestFingerprintCoversEveryField mutates each semantic Config field
// (and the workload) one at a time and requires the fingerprint to
// move. The reflection count forces this table to grow whenever a
// field is added to Config, so new knobs can't silently alias cells.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := RunSpec{Workload: "implicit", Config: MicroConfig(Stash)}
	baseFP, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Config){
		"Org":                func(c *Config) { c.Org = Cache },
		"GPUs":               func(c *Config) { c.GPUs++ },
		"CPUs":               func(c *Config) { c.CPUs-- },
		"DisableReplication": func(c *Config) { c.DisableReplication = true },
		"EagerWriteback":     func(c *Config) { c.EagerWriteback = true },
		"ChunkWords":         func(c *Config) { c.ChunkWords = 4 },
		"CheckInvariants":    func(c *Config) { c.CheckInvariants = true },
		"WatchdogBudget":     func(c *Config) { c.WatchdogBudget = 1 << 20 },
		"Faults":             func(c *Config) { c.Faults = &FaultConfig{Seed: 9} },
		"Trace":              func(c *Config) { c.Trace = &TraceConfig{BucketCycles: 64} },
		"StashTech":          func(c *Config) { c.StashTech = &TechSpec{Profile: "stt-mram"} },
		"L1Tech":             func(c *Config) { c.L1Tech = &TechSpec{Profile: "edram"} },
		"LLCTech":            func(c *Config) { c.LLCTech = &TechSpec{Profile: "stt-mram"} },
	}
	ct := reflect.TypeOf(Config{})
	if got, want := len(mutations), ct.NumField(); got != want {
		t.Fatalf("mutation table covers %d fields but Config has %d: add the new field here and decide whether it is semantic", got, want)
	}
	for i := 0; i < ct.NumField(); i++ {
		if _, ok := mutations[ct.Field(i).Name]; !ok {
			t.Fatalf("Config field %s has no fingerprint mutation entry", ct.Field(i).Name)
		}
	}
	for name, mutate := range mutations {
		spec := base
		mutate(&spec.Config)
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == baseFP {
			t.Errorf("mutating Config.%s did not change the fingerprint", name)
		}
	}

	other := base
	other.Workload = "pollution"
	fp, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp == baseFP {
		t.Error("changing the workload did not change the fingerprint")
	}
}

// TestFingerprintNestedFields spot-checks that fields inside the
// nested Faults/Trace structs move the hash too.
func TestFingerprintNestedFields(t *testing.T) {
	mk := func(edit func(*Config)) string {
		cfg := MicroConfig(Stash)
		cfg.Faults = &FaultConfig{Seed: 1, BankStalls: []BankStall{{Bank: 3, From: 100, For: 10}}}
		cfg.Trace = &TraceConfig{BucketCycles: 1024}
		if edit != nil {
			edit(&cfg)
		}
		fp, err := (RunSpec{Workload: "nw", Config: cfg}).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	base := mk(nil)
	for name, edit := range map[string]func(*Config){
		"Faults.Seed":            func(c *Config) { c.Faults.Seed = 2 },
		"Faults.BankStalls.Bank": func(c *Config) { c.Faults.BankStalls[0].Bank = 4 },
		"Faults.BankStalls.For":  func(c *Config) { c.Faults.BankStalls[0].For = 0 },
		"Trace.BucketCycles":     func(c *Config) { c.Trace.BucketCycles = 512 },
	} {
		if mk(edit) == base {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

func TestFingerprintInvalidOrg(t *testing.T) {
	_, err := (RunSpec{Workload: "implicit", Config: Config{Org: MemOrg(99), GPUs: 1}}).Fingerprint()
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("want a fingerprint encoding error for an invalid MemOrg, got %v", err)
	}
}
