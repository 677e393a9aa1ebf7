package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"stash"
)

// TestMain lets a test run the command: the test binary re-executes
// itself with STASHSIM_MAIN=1 and the command's arguments, and then
// runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("STASHSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// With -json -, stdout carries the JSON document alone and the text
// report goes to stderr.
func TestJSONToStdoutParses(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-workload", "implicit", "-org", "Stash", "-json", "-")
	cmd.Env = append(os.Environ(), "STASHSIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("stashsim: %v\n%s", err, stderr.Bytes())
	}
	var results []stash.SweepResult
	if err := json.Unmarshal(out, &results); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0].Spec.Workload != "implicit" || results[0].Result.Cycles == 0 {
		t.Fatalf("decoded %d cells, want the implicit/Stash cell with its cycles: %+v", len(results), results)
	}
	if !strings.Contains(stderr.String(), "implicit on Stash") {
		t.Errorf("text report missing from stderr:\n%s", stderr.Bytes())
	}
}
