package stash

import (
	"context"
	"fmt"
	"runtime/debug"

	"stash/internal/check"
	"stash/internal/system"
	"stash/internal/workloads"
)

// Microbenchmarks lists the paper's four microbenchmarks (Section
// 5.4.1) in the Figure 5 order.
func Microbenchmarks() []string {
	return []string{"implicit", "pollution", "on-demand", "reuse"}
}

// Applications lists the paper's seven applications (Section 5.4.2) in
// the Figure 6 order.
func Applications() []string {
	return []string{"lud", "surf", "backprop", "nw", "pathfinder", "sgemm", "stencil"}
}

// Workloads lists every reproducible workload.
func Workloads() []string {
	return append(Microbenchmarks(), Applications()...)
}

// IsMicrobenchmark reports whether the named workload runs on the
// microbenchmark machine (1 CU + 15 CPU cores).
func IsMicrobenchmark(name string) bool {
	for _, m := range Microbenchmarks() {
		if m == name {
			return true
		}
	}
	return false
}

// RunWorkload simulates the named workload on the given memory
// organization (on the machine the paper used for it), verifies
// functional correctness against a Go reference, and returns the
// measurements. Measurement snapshots are taken before the final
// verification flush, exactly as the paper measures.
func RunWorkload(name string, org MemOrg) (Result, error) {
	return RunWorkloadContext(context.Background(), name, configFor(name, org))
}

// RunWorkloadCfg is RunWorkload with an explicit machine configuration
// (for ablations: replication off, eager writeback, chunk granularity,
// different core counts). Invalid configurations are reported through
// Config.Validate's error, never a panic.
func RunWorkloadCfg(name string, cfg Config) (Result, error) {
	return RunWorkloadContext(context.Background(), name, cfg)
}

// interruptStride is how many simulation events execute between
// cancellation polls: rare enough to keep the hot event loop cheap,
// frequent enough that cancellation lands within microseconds of host
// time.
const interruptStride = 4096

// interrupted is the panic value the cancellation probe unwinds a
// canceled run with; RunWorkloadContext recovers it and returns the
// context's error, so it never escapes this package.
type interrupted struct{}

// RunWorkloadContext is RunWorkloadCfg under a context: a long
// simulation stops within interruptStride engine events of ctx being
// canceled and returns ctx's error. RunWorkload and RunWorkloadCfg are
// thin wrappers over it with a background context.
//
// The simulation is crash-isolated: the engine unwinds cancellations,
// watchdog firings, invariant violations, and any simulator panic as
// panics, and this boundary converts every one of them into an error —
// check failures and panics become a *CellError carrying a
// machine-state diagnostic — so one wedged or buggy cell can never take
// down the process or a whole sweep.
func RunWorkloadContext(ctx context.Context, name string, cfg Config) (res Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	icfg, err := cfg.internal()
	if err != nil {
		return Result{}, err
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return Result{}, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, fmt.Errorf("stash: %s on %v not started: %w", name, cfg.Org, context.Cause(ctx))
	}
	s := system.New(icfg)
	if done := ctx.Done(); done != nil {
		s.Eng.AddProbe(interruptStride, func() {
			select {
			case <-done:
				panic(interrupted{})
			default:
			}
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Even a crashed or canceled run keeps its partial timeline (a
		// truncated-but-valid trace up to the failure), so the caller
		// can still visualize what led up to it.
		res = Result{}
		if tl := s.FinishTrace(); tl != nil {
			res.Timeline = &Timeline{tl: tl}
		}
		switch v := r.(type) {
		case interrupted:
			err = fmt.Errorf("stash: %s on %v canceled: %w", name, cfg.Org, context.Cause(ctx))
		case *check.HangError:
			err = &CellError{Workload: name, Org: cfg.Org, Kind: FailHang, Msg: v.Error(), Diagnostic: v.Dump}
		case *check.DeadlockError:
			err = &CellError{Workload: name, Org: cfg.Org, Kind: FailDeadlock, Msg: v.Error(), Diagnostic: v.Dump}
		case *check.InvariantError:
			err = &CellError{Workload: name, Org: cfg.Org, Kind: FailInvariant, Msg: v.Error(), Diagnostic: v.Dump}
		default:
			err = &CellError{
				Workload:   name,
				Org:        cfg.Org,
				Kind:       FailPanic,
				Msg:        fmt.Sprint(r),
				Diagnostic: s.Diagnose(),
				Stack:      string(debug.Stack()),
			}
		}
	}()
	w.Run(s, cfg.Org.internal())
	res = measure(s)
	if verr := w.Verify(s); verr != nil {
		return res, fmt.Errorf("stash: %s on %v failed verification: %w", name, cfg.Org, verr)
	}
	return res, nil
}

func configFor(name string, org MemOrg) Config {
	if IsMicrobenchmark(name) {
		return MicroConfig(org)
	}
	return AppConfig(org)
}
