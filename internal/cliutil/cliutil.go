// Package cliutil holds the flag plumbing shared by the repo's
// binaries: sweep execution flags (-j, -json, -server), workload/org
// list expansion, JSON and trace emission, and -version reporting —
// logic that used to be duplicated between cmd/stashsim and
// cmd/paperfigs.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"stash"
)

// Version renders the binary's build identity: module version when
// built from a tagged module, plus the VCS revision and dirty flag the
// Go toolchain stamps into the build info.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown (built without module support)"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = " (modified)"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		return fmt.Sprintf("%s %s%s %s", v, rev, modified, bi.GoVersion)
	}
	return fmt.Sprintf("%s %s", v, bi.GoVersion)
}

// VersionFlag registers -version on the default flag set. Call the
// returned function after flag.Parse: it prints and exits when the
// flag was given.
func VersionFlag() func() {
	show := flag.Bool("version", false, "print the build version and exit")
	return func() {
		if *show {
			fmt.Println(Version())
			os.Exit(0)
		}
	}
}

// SweepFlags is the sweep-execution flag block shared by stashsim and
// paperfigs: worker count, raw-JSON output, and the daemon submission
// mode.
type SweepFlags struct {
	Jobs    int
	JSONOut string
	Server  string
}

// Register installs the shared flags on the default flag set.
func (f *SweepFlags) Register() {
	flag.IntVar(&f.Jobs, "j", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial); ignored with -server")
	flag.StringVar(&f.JSONOut, "json", "", "also write raw sweep results as JSON to this file (\"-\" for stdout, which moves the text report to stderr)")
	flag.StringVar(&f.Server, "server", "", "submit the sweep to a running stashd at this base URL (e.g. http://localhost:8341) instead of simulating locally")
}

// jsonStdout is the process's stdout as it was at start-up: a "-json -"
// document goes there after TextToStderr has pointed os.Stdout at
// stderr.
var jsonStdout = os.Stdout

// TextToStderr points os.Stdout at stderr when -json is "-", so the
// command's text report goes to stderr and stdout carries the JSON
// document alone. Call it after flag.Parse, before printing anything.
func (f *SweepFlags) TextToStderr() {
	if f.JSONOut == "-" {
		os.Stdout = os.Stderr
	}
}

// Run executes the sweep: locally over stash.Sweep, or — with -server —
// by submitting the specs to a stashd daemon, which serves repeated
// cells from its content-addressed cache without re-simulating. The
// result slice and error contract match stash.Sweep.
func (f *SweepFlags) Run(ctx context.Context, specs []stash.RunSpec, opts stash.SweepOptions) ([]stash.SweepResult, error) {
	if f.Server != "" {
		return SubmitSweep(ctx, f.Server, specs, opts.Progress)
	}
	opts.Workers = f.Jobs
	return stash.Sweep(ctx, specs, opts)
}

// ReportWall prints the standard per-sweep wall-time line to stderr.
func (f *SweepFlags) ReportWall(prefix string, cells int, elapsed time.Duration) {
	where := fmt.Sprintf("%d workers", f.Jobs)
	if f.Server != "" {
		where = f.Server
	}
	fmt.Fprintf(os.Stderr, "%s%d simulations on %s in %v\n",
		prefix, cells, where, elapsed.Round(time.Millisecond))
}

// WriteJSON writes results as one EncodeJSON document to path ("-" for
// stdout), exiting on I/O failure like the CLIs always have.
func WriteJSON(path string, results []stash.SweepResult) {
	out := jsonStdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := stash.EncodeJSON(out, results); err != nil {
		log.Fatal(err)
	}
}

// WriteTimeline writes one cell's trace to path as Chrome/Perfetto
// trace_event JSON.
func WriteTimeline(path string, tl *stash.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tl.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

// ExpandWorkloads expands a -workload argument: a comma-separated
// list, or the keywords all, micro, apps.
func ExpandWorkloads(arg string) []string {
	switch arg {
	case "all":
		return stash.Workloads()
	case "micro":
		return stash.Microbenchmarks()
	case "apps":
		return stash.Applications()
	}
	return strings.Split(arg, ",")
}

// ExpandOrgs expands a -org argument: a comma-separated list of
// organization names, or the keyword all.
func ExpandOrgs(arg string) ([]stash.MemOrg, error) {
	if arg == "all" {
		return stash.Orgs(), nil
	}
	var orgs []stash.MemOrg
	for _, name := range strings.Split(arg, ",") {
		org, err := stash.ParseMemOrg(name)
		if err != nil {
			return nil, err
		}
		orgs = append(orgs, org)
	}
	return orgs, nil
}
