package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"stash"
	"stash/internal/cellcache"
	"stash/internal/serve"
)

// node is an in-process stashd node with cmd/stashd's default settings,
// caching on pairtree+gzip in a fresh directory, and the one client
// connection all load goes through.
type node struct {
	dir    string
	cache  *cellcache.Cache
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startNode() (*node, error) {
	dir, err := os.MkdirTemp(workDir, "stashd-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	spec := (&url.URL{Scheme: "pairtree", Path: abs, RawQuery: "compress=gzip"}).String()
	cache, err := cellcache.Open(spec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cache.Probe(); err != nil {
		cache.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("cache probe: %w", err)
	}
	// cmd/stashd's flag defaults for a node.
	srv := serve.New(serve.Config{
		Cache:       cache,
		Workers:     runtime.GOMAXPROCS(0),
		MaxCells:    1024,
		CellTimeout: 5 * time.Minute,
	}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cache.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	n := &node{
		dir:    dir,
		cache:  cache,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// stop shuts the listener down, waits for the serving goroutine, and
// removes the node's cache directory.
func (n *node) stop() error {
	n.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, n.cache.Close(), os.RemoveAll(n.dir))
}

// reply is one sweep's raw NDJSON lines and timings.
type reply struct {
	latency, firstLine time.Duration
	lines              [][]byte
}

// sweep posts one request and reads the raw NDJSON reply to the end,
// timing the first complete line and the last.
func (n *node) sweep(body []byte) (reply, error) {
	start := time.Now()
	resp, err := n.client.Post(n.base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return reply{}, fmt.Errorf("sweep: %s: %s", resp.Status, msg)
	}
	var r reply
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil {
			return reply{}, fmt.Errorf("reading sweep reply: %w", err)
		}
		if len(r.lines) == 0 {
			r.firstLine = time.Since(start)
		}
		r.lines = append(r.lines, line[:len(line)-1])
	}
	r.latency = time.Since(start)
	return r, nil
}

// metrics scrapes the node's unlabelled /metrics counters.
func (n *node) metrics() (map[string]float64, error) {
	resp, err := n.client.Get(n.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// lineHead is the part of a sweep line the checks read.
type lineHead struct {
	Workload string       `json:"workload"`
	Config   stash.Config `json:"config"`
	Status   string       `json:"status"`
	WallNS   int64        `json:"wall_ns"`
	Result   *struct {
		Cycles uint64
	} `json:"result"`
}

// checkLine reports whether line is an ok result for spec.
func checkLine(spec stash.RunSpec, line []byte) (lineHead, error) {
	var h lineHead
	if err := json.Unmarshal(line, &h); err != nil {
		return h, fmt.Errorf("decoding line: %w", err)
	}
	switch {
	case h.Status != "ok":
		return h, fmt.Errorf("status %q", h.Status)
	case h.Workload != spec.Workload || !reflect.DeepEqual(h.Config, spec.Config):
		return h, fmt.Errorf("line is for %s/%v, not the requested spec", h.Workload, h.Config.Org)
	case h.Result == nil || h.Result.Cycles == 0 || h.WallNS <= 0:
		return h, errors.New("line carries no result")
	}
	return h, nil
}

// request is one closed-loop sweep: its body, the cells it asks for,
// and the check its reply's lines must pass, which returns one error
// (or nil) per requested cell.
type request struct {
	body  []byte
	specs []stash.RunSpec
	check func(lines [][]byte) []error
}

// checkCount reports a reply whose line count is not the cell count:
// every requested cell without its own line fails.
func checkCount(specs []stash.RunSpec, lines [][]byte, errs []error) []error {
	for i := len(lines); i < len(specs); i++ {
		errs[i] = errors.New("reply has no line for this cell")
	}
	if len(lines) > len(specs) {
		errs[len(specs)-1] = fmt.Errorf("reply has %d lines for %d cells", len(lines), len(specs))
	}
	return errs
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	latencies, firstLines []float64 // seconds, one per request
	cells                 int
	wall                  time.Duration
	allocBytes            uint64
	before, after         map[string]float64 // /metrics at the phase's ends
	specs                 []stash.RunSpec    // kept when keep is set
	lines                 [][]byte
}

func (s *loopStats) delta(name string) float64 { return s.after[name] - s.before[name] }

// loop sends requests from next, one at a time, for d. With tr set it
// records spans, and it keeps up to keep of the cells and lines.
func loop(n *node, d time.Duration, next func() (request, error), rep *report, tr *tracer, keep int) (*loopStats, error) {
	st := &loopStats{}
	var err error
	if st.before, err = n.metrics(); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for reqs := 0; time.Since(start) < d; reqs++ {
		req, err := next()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := n.sweep(req.body)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rep.cells(req.specs, req.check(r.lines))
		if tr != nil {
			id := strconv.Itoa(reqs)
			root := tr.record(0, id, "sweep", t0, t1)
			tr.record(root, id, "first_line", t0, t0.Add(r.firstLine))
			tr.record(0, id, "check", t1, time.Now())
		}
		st.latencies = append(st.latencies, r.latency.Seconds())
		st.firstLines = append(st.firstLines, r.firstLine.Seconds())
		st.cells += len(req.specs)
		for i := 0; i < len(r.lines) && i < len(req.specs) && len(st.lines) < keep; i++ {
			st.specs = append(st.specs, req.specs[i])
			st.lines = append(st.lines, r.lines[i])
		}
	}
	st.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if st.after, err = n.metrics(); err != nil {
		return nil, err
	}
	return st, nil
}

// setE2E sets the service end-to-end metrics a timed phase measures.
func (s *loopStats) setE2E(rep *report) {
	p50, _ := percentile(s.latencies, 50)
	p90, beyond := percentile(s.latencies, 90)
	rep.set("sweep_ms_p50", p50*1e3)
	rep.set("sweep_ms_p90", p90*1e3)
	rep.set("first_line_ms_p50", median(s.firstLines)*1e3)
	rep.set("cells_per_s", float64(s.cells)/s.wall.Seconds())
	rep.set("alloc_mb_per_cell", float64(s.allocBytes)/float64(s.cells)/1e6)
	log.Printf("%d requests, %d cells in %.1fs; sweep p90 has %d of %d samples beyond it",
		len(s.latencies), s.cells, s.wall.Seconds(), beyond, len(s.latencies))
}

// service is a stashd workload: its set-up leaves a node ready and
// returns the request stream for the timed phase.
type service interface {
	// setup boots a fresh node and readies it; it runs setupReps times.
	setup(rep *report) (*node, error)
	// next returns the timed phase's next request.
	next() (request, error)
	// checkPhase checks a phase's /metrics deltas.
	checkPhase(st *loopStats, rep *report)
	// setSim sets sim_cycles_per_s and its geomean after the timed
	// phase st.
	setSim(st *loopStats, rep *report)
}

// traceOpts sizes a stashd workload's traced-run extras.
type traceOpts struct {
	// handlerRounds is how many requests handlerVsLoopback sends each
	// way. Cold requests simulate, so fewer of them give as many
	// samples' worth of time.
	handlerRounds int
	// engineTable adds the per-engine cellcache table on the traced
	// phase's lines.
	engineTable bool
}

// runService runs a stashd workload's set-up, then its timed phase or
// its traced run.
func runService(svc service, opts traceOpts, cfg runConfig, rep *report) error {
	var n *node
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if n != nil {
			if err := n.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		var err error
		if n, err = svc.setup(rep); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups))
	err := runPhases(n, svc, opts, cfg, rep)
	return errors.Join(err, n.stop())
}

// keepLines bounds the cells and lines a traced run keeps for its
// codec and engine measurements.
const keepLines = 64

func runPhases(n *node, svc service, opts traceOpts, cfg runConfig, rep *report) error {
	if !cfg.trace {
		st, err := loop(n, cfg.seconds, svc.next, rep, nil, 0)
		if err != nil {
			return err
		}
		svc.checkPhase(st, rep)
		st.setE2E(rep)
		svc.setSim(st, rep)
		return nil
	}

	// The traced run: an untraced phase, then a traced and profiled one
	// of the same length, then the direct and per-layer measurements.
	phase := cfg.seconds * 2 / 5
	plain, err := loop(n, phase, svc.next, rep, nil, 0)
	if err != nil {
		return err
	}
	svc.checkPhase(plain, rep)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	st, err := loop(n, phase, svc.next, rep, tr, keepLines)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	svc.checkPhase(st, rep)
	rep.set("trace.overhead_share", median(st.latencies)/median(plain.latencies)-1)
	if err := rep.setHostShares([][]byte{prof.Bytes()}); err != nil {
		return err
	}

	hits, misses := st.delta("stashd_cache_hits_total"), st.delta("stashd_cache_misses_total")
	rep.set("serve.cells_simulated", st.delta("stashd_cells_simulated_total"))
	rep.set("serve.sim_busy_share", st.delta("stashd_sim_wall_seconds_total")/st.wall.Seconds())
	rep.set("serve.shed_requests", st.delta("stashd_shed_requests_total"))
	rep.set("cellcache.hit_ratio", hits/(hits+misses))
	rep.set("cellcache.mem_hits", st.delta("stashd_cache_mem_hits_total"))
	rep.set("cellcache.store_hits", st.delta("stashd_cache_disk_hits_total"))
	rep.set("cellcache.misses", misses)
	rep.set("cellcache.stored_bytes_per_cell", st.after["stashd_cache_stored_bytes_total"]/st.after["stashd_cells_simulated_total"])
	rep.set("cellcache.compression_ratio", st.after["stashd_cache_compression_ratio"])

	if err := handlerVsLoopback(n, svc, opts.handlerRounds, tr, rep); err != nil {
		return err
	}
	if err := rep.codecTimes(st.specs, st.lines); err != nil {
		return err
	}
	var l1 l1Churn
	for _, line := range st.lines {
		var r stash.SweepResult
		if err := r.UnmarshalJSON(line); err != nil {
			return err
		}
		l1.add(r.Result.Counters)
	}
	rep.set("l1.evictions_per_miss", l1.perMiss())
	if opts.engineTable {
		if err := engineTable(st.specs, st.lines, tr, rep); err != nil {
			return err
		}
	}
	return rep.writeTrace(cfg, tr, [][]byte{prof.Bytes()})
}

// handlerVsLoopback times the same kind of request through
// Server.Handler().ServeHTTP into an in-memory recorder and over the
// loopback connection, alternating, and splits the loopback time into
// the handler's share and the transport's.
func handlerVsLoopback(n *node, svc service, rounds int, tr *tracer, rep *report) error {
	h := n.srv.Handler()
	var direct, loopback []float64
	cells := 0
	for i := 0; i < rounds; i++ {
		for _, viaNet := range []bool{false, true} {
			req, err := svc.next()
			if err != nil {
				return err
			}
			id := fmt.Sprintf("handler-%d", i)
			var lines [][]byte
			start := time.Now()
			if viaNet {
				r, err := n.sweep(req.body)
				if err != nil {
					return err
				}
				lines = r.lines
				loopback = append(loopback, time.Since(start).Seconds())
				tr.record(0, id, "loopback", start, time.Now())
			} else {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(req.body)))
				direct = append(direct, time.Since(start).Seconds())
				tr.record(0, id, "Handler.ServeHTTP", start, time.Now())
				if rec.Code != http.StatusOK {
					return fmt.Errorf("in-memory sweep: status %d: %s", rec.Code, rec.Body.Bytes())
				}
				lines = bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
			}
			rep.cells(req.specs, req.check(lines))
			cells = len(req.specs)
		}
	}
	perCell := 1e6 / float64(cells)
	rep.set("serve.handler_us_per_cell", median(direct)*perCell)
	rep.set("net.transport_us_per_cell", (median(loopback)-median(direct))*perCell)
	return nil
}

// codecRounds is how many times codecTimes repeats each call per item.
const codecRounds = 10

// codecTimes sets the median time of RunSpec.Fingerprint,
// SweepResult.MarshalJSON and SweepResult.UnmarshalJSON on the
// workload's own specs and lines. Re-encoding a decoded line must give
// back the line's exact bytes.
func (r *report) codecTimes(specs []stash.RunSpec, lines [][]byte) error {
	var fp, enc, dec []float64
	decoded := make([]stash.SweepResult, len(lines))
	for round := 0; round < codecRounds; round++ {
		for _, s := range specs {
			start := time.Now()
			if _, err := s.Fingerprint(); err != nil {
				return err
			}
			fp = append(fp, time.Since(start).Seconds())
		}
		for i, line := range lines {
			start := time.Now()
			if err := decoded[i].UnmarshalJSON(line); err != nil {
				return err
			}
			dec = append(dec, time.Since(start).Seconds())
		}
		for i := range decoded {
			start := time.Now()
			b, err := decoded[i].MarshalJSON()
			enc = append(enc, time.Since(start).Seconds())
			if err == nil && !bytes.Equal(b, lines[i]) {
				err = errors.New("re-encoding a decoded line changed its bytes")
			}
			if round == 0 {
				r.check(decoded[i].Spec.String()+" codec round trip", err)
			}
		}
	}
	r.set("stash.fingerprint_us", median(fp)*1e6)
	r.set("stash.encode_us", median(enc)*1e6)
	r.set("stash.decode_us", median(dec)*1e6)
	return nil
}
