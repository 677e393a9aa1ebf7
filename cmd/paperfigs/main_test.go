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
// itself with PAPERFIGS_MAIN=1 and the command's arguments, and then
// runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERFIGS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// With -json -, stdout carries the JSON document alone and the figure
// tables go to stderr.
func TestJSONToStdoutParses(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "fig5", "-q", "-json", "-")
	cmd.Env = append(os.Environ(), "PAPERFIGS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("paperfigs: %v\n%s", err, stderr.Bytes())
	}
	var results []stash.SweepResult
	if err := json.Unmarshal(out, &results); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%.300s", err, out)
	}
	if len(results) != 16 {
		t.Errorf("decoded %d cells, want the 16-cell Fig. 5 grid", len(results))
	}
	if !strings.Contains(stderr.String(), "Figure 5") {
		t.Errorf("figure tables missing from stderr:\n%.300s", stderr.Bytes())
	}
}
