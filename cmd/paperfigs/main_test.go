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
// tables go to stderr. An experiment that simulates nothing still
// prints one document, the empty array, and not the null that
// json.Unmarshal would also accept into a slice.
func TestJSONToStdoutParses(t *testing.T) {
	run := func(t *testing.T, exp string) (stdout, stderr []byte) {
		cmd := exec.Command(os.Args[0], "-exp", exp, "-q", "-json", "-")
		cmd.Env = append(os.Environ(), "PAPERFIGS_MAIN=1")
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("paperfigs: %v\n%s", err, errBuf.Bytes())
		}
		return out, errBuf.Bytes()
	}
	t.Run("fig5", func(t *testing.T) {
		out, stderr := run(t, "fig5")
		var results []stash.SweepResult
		if err := json.Unmarshal(out, &results); err != nil {
			t.Fatalf("stdout is not one JSON document: %v\n%.300s", err, out)
		}
		if len(results) != 16 {
			t.Errorf("decoded %d cells, want the 16-cell Fig. 5 grid", len(results))
		}
		if !strings.Contains(string(stderr), "Figure 5") {
			t.Errorf("figure tables missing from stderr:\n%.300s", stderr)
		}
	})
	t.Run("table1", func(t *testing.T) {
		out, stderr := run(t, "table1")
		if string(out) != "[]\n" {
			t.Errorf("stdout = %q, want the empty array", out)
		}
		if !strings.Contains(string(stderr), "Table 1") {
			t.Errorf("table missing from stderr:\n%.300s", stderr)
		}
	})
}
