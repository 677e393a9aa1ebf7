// Stashd is the simulation-as-a-service daemon: a long-running HTTP
// server over the sweep engine with a content-addressed cell-result
// cache in front of it. Every simulation is deterministic, so a cell
// (workload + config, keyed by stash.RunSpec.Fingerprint) is simulated
// at most once: repeats are cache hits replayed byte-identically with
// zero engine cycles run, concurrent identical requests collapse to
// one simulation, and with a persistent engine the cache survives
// restarts.
//
// The cache is configured by a single -cache engine-spec URL:
//
//	stashd -cache 'memory://?entries=4096&bytes=256MiB'
//	stashd -cache 'log:///var/lib/stashd'
//	stashd -cache 'pairtree:///var/lib/stashd?compress=gzip&ttl=24h'
//
//	# a grid sweep, streamed back as NDJSON (one cell per line):
//	curl -sN localhost:8341/v1/sweep -d '{"workloads":["implicit"],"orgs":["Scratch","Stash"]}'
//
//	# one cell by query (ablation knobs accepted):
//	curl -s 'localhost:8341/v1/cell?workload=lud&org=Stash&eager_writeback=true'
//
//	curl -s localhost:8341/healthz
//	curl -s localhost:8341/metrics
//
// The existing CLIs submit to a daemon instead of simulating locally
// with -server:
//
//	stashsim -workload all -org all -server http://localhost:8341
//	paperfigs -exp fig5 -server http://localhost:8341
//
// Simulation capacity is a bounded worker pool (-workers); each cell
// honors the -cell-timeout/-retries hardening policy, so a wedged cell
// returns a structured error instead of occupying a worker forever.
// On SIGTERM/SIGINT the daemon drains: /healthz flips to 503, queued
// cells fail fast, in-flight requests get -drain-timeout to finish,
// then connections are closed.
//
// The daemon fails well. Sick cache storage degrades it rather than
// failing requests: a simulated result whose persist fails is still
// served, and a circuit breaker (breaker=/breaker_backoff= in the
// -cache spec) stops hammering a dead store tier while the memory
// tier keeps serving. Overload sheds with 429 + Retry-After past
// -max-queue waiting cells (whole sweeps before single cells),
// clients can bound a request with an X-Stashd-Deadline header
// (clamped by -max-deadline), and -tenant-slots keeps one namespace
// from occupying every worker. Startup probes the cache engine and
// refuses to boot on failure. For chaos drills, any engine wraps in
// deterministic fault injection straight from the spec:
//
//	stashd -cache 'faulty+pairtree:///data?fault_seed=7&fault_put=0.2&fault_down_first=100'
//
// Cluster mode scales past one machine (DESIGN.md §15). Shards are
// ordinary nodes, ideally with a remote+ cache spec so they fill from
// peers before simulating; a coordinator routes each cell to the shard
// owning its fingerprint on a consistent-hash ring and merges the
// per-shard streams back in spec order, byte-identical to one node:
//
//	stashd -addr :8351 -cache 'remote+memory://?peers=http://h1:8351,http://h2:8351&self=http://h1:8351'
//	stashd -role coordinator -shards http://h1:8351,http://h2:8351 -hedge 30s
//	stashd -role coordinator -ring /etc/stashd/ring            # one URL per line
//
// A dead shard's cells re-dispatch to the ring successor, stragglers
// are hedged after -hedge, and shard 429s propagate into coordinator
// backoff — see the "Running a cluster" section in README.md.
//
// See the "Operating stashd" runbook in README.md for the failure
// modes and the /metrics series to alert on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stash/internal/cellcache"
	"stash/internal/cliutil"
	"stash/internal/cluster"
	"stash/internal/serve"
)

// defaultCacheSpec is -cache's default: a memory-only cache, which
// cellcache bounds at 4096 entries and 256 MiB.
const defaultCacheSpec = "memory://"

func main() {
	addr := flag.String("addr", ":8341", "listen address")
	role := flag.String("role", "node", "node (simulate locally) or coordinator (route cells to -shards)")
	shardList := flag.String("shards", "", "comma-separated shard base URLs (coordinator role)")
	ringFile := flag.String("ring", "", "static ring file, one shard base URL per line (coordinator role)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the consistent-hash ring (coordinator role)")
	hedge := flag.Duration("hedge", 0, "hedge straggler cells to the ring successor after this long (0 = off; coordinator role)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrently simulated cells across all requests")
	maxCells := flag.Int("max-cells", 1024, "largest accepted per-request sweep grid")
	cellTimeout := flag.Duration("cell-timeout", 5*time.Minute, "wall-clock budget per cell attempt (0 = unbounded)")
	retries := flag.Int("retries", 0, "extra attempts for failed cells")
	maxQueue := flag.Int("max-queue", 0, "cells queued for a worker before requests are shed with 429 (0 = 4x max-cells, -1 = unbounded)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on per-request X-Stashd-Deadline simulation budgets (0 = unbounded)")
	tenantSlots := flag.Int("tenant-slots", 0, "concurrently simulating cells per namespace (0 = workers-1, -1 = unbounded)")
	cacheSpec := flag.String("cache", defaultCacheSpec, "cache engine spec URL, e.g. memory://?entries=4096&bytes=256MiB, log:///var/lib/stashd, pairtree:///data?compress=gzip&ttl=24h, remote+memory://?peers=...")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long in-flight requests may finish after SIGTERM")
	version := cliutil.VersionFlag()
	flag.Parse()
	version()
	log.SetPrefix("stashd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	switch *role {
	case "coordinator":
		if offending := visitedFlags("cache", "workers", "cell-timeout", "retries", "tenant-slots"); len(offending) > 0 {
			log.Fatalf("-role coordinator holds no cache and runs no simulations; configure %s on the shards", strings.Join(offending, ", "))
		}
		shards, err := resolveShards(*shardList, *ringFile)
		if err != nil {
			log.Fatal(err)
		}
		coord, err := cluster.New(shards, cluster.Options{VNodes: *vnodes, HedgeAfter: *hedge})
		if err != nil {
			log.Fatal(err)
		}
		front := serve.NewCoordinator(serve.CoordinatorConfig{
			Cluster:     coord,
			MaxCells:    *maxCells,
			MaxDeadline: *maxDeadline,
		})
		banner := fmt.Sprintf("%s coordinating %d shards on %s (vnodes %d, hedge %v)",
			cliutil.Version(), len(shards), *addr, *vnodes, *hedge)
		serveHTTP(*addr, front.Handler(), *drainTimeout, banner, func() { front.Drain() })

	case "node":
		if offending := visitedFlags("shards", "ring", "vnodes", "hedge"); len(offending) > 0 {
			log.Fatalf("%s require -role coordinator", strings.Join(offending, ", "))
		}
		runNode(*addr, *workers, *maxCells, *cellTimeout, *retries, *maxQueue, *maxDeadline,
			*tenantSlots, *cacheSpec, *drainTimeout)

	default:
		log.Fatalf("unknown -role %q (want node or coordinator)", *role)
	}
}

func runNode(addr string, workers, maxCells int, cellTimeout time.Duration, retries, maxQueue int,
	maxDeadline time.Duration, tenantSlots int, cacheSpec string, drainTimeout time.Duration) {
	spec, err := cellcache.ParseSpec(cacheSpec)
	if err != nil {
		log.Fatal(err)
	}
	cache, err := spec.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()
	// Fail fast on an engine that cannot round-trip a sentinel entry:
	// a misconfigured or unwritable cache should kill the boot, not
	// surface as every cell running degraded. Deliberately injected
	// faults (a faulty+ spec, for chaos runs) only warn — booting sick
	// is the point there.
	if err := cache.Probe(); err != nil {
		if spec.Fault != nil {
			log.Printf("cache probe: %v (fault injection armed; continuing)", err)
		} else {
			log.Fatalf("cache probe failed (engine %s unusable): %v", spec.String(), err)
		}
	}
	if spec.Scheme != "memory" {
		log.Printf("persistent cache %s: %d cells loaded", spec.String(), cache.Stats().StoreEntries)
	}

	draining := make(chan struct{})
	srv := serve.New(serve.Config{
		Cache:       cache,
		Workers:     workers,
		MaxCells:    maxCells,
		CellTimeout: cellTimeout,
		Retries:     retries,
		MaxQueue:    maxQueue,
		MaxDeadline: maxDeadline,
		TenantSlots: tenantSlots,
	}, draining)
	banner := fmt.Sprintf("%s listening on %s (%d workers, cell timeout %v)",
		cliutil.Version(), addr, workers, cellTimeout)
	serveHTTP(addr, srv.Handler(), drainTimeout, banner, func() {
		srv.Drain()     // /healthz -> 503 so load balancers stop routing here
		close(draining) // queued cells fail fast instead of starting late
	})
}

// serveHTTP runs the listener with the shared SIGTERM/SIGINT drain
// choreography: drain() flips the role's health/admission state, then
// in-flight requests get drainTimeout to finish before connections are
// force-closed.
func serveHTTP(addr string, handler http.Handler, drainTimeout time.Duration, banner string, drain func()) {
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("draining: refusing new work, waiting up to %v for in-flight requests", drainTimeout)
		drain()
		shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("drain timeout: force-closing remaining connections (%v)", err)
			hs.Close()
		}
	}()

	log.Print(banner)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
	log.Print("stopped")
}

// visitedFlags returns "-name" for each of the named flags the user
// set on the command line.
func visitedFlags(names ...string) []string {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	var out []string
	flag.Visit(func(f *flag.Flag) {
		if set[f.Name] {
			out = append(out, "-"+f.Name)
		}
	})
	return out
}

// resolveShards merges the two coordinator membership sources: exactly
// one of -shards (inline list) or -ring (file) must name the fleet.
func resolveShards(shardList, ringFile string) ([]string, error) {
	switch {
	case shardList != "" && ringFile != "":
		return nil, fmt.Errorf("-shards and -ring are both set; pick one membership source")
	case ringFile != "":
		return cluster.ReadRingFile(ringFile)
	case shardList != "":
		var shards []string
		for _, s := range strings.Split(shardList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				shards = append(shards, s)
			}
		}
		if len(shards) == 0 {
			return nil, fmt.Errorf("-shards lists no shard URLs")
		}
		return shards, nil
	default:
		return nil, fmt.Errorf("-role coordinator requires -shards host1,host2,... or -ring FILE")
	}
}
