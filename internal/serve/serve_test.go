package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stash"
	"stash/internal/cellcache"
)

// fakeEngine is an injectable RunFunc: deterministic synthetic results,
// a call counter, and an optional gate that holds "simulations" open
// until released (or their context is canceled).
type fakeEngine struct {
	calls   atomic.Int64
	gate    chan struct{} // nil: return immediately
	started chan string   // non-nil: receives each started cell
	ctxErrs chan error    // non-nil: receives ctx's error at cell exit
}

func (f *fakeEngine) run(ctx context.Context, spec stash.RunSpec) stash.SweepResult {
	f.calls.Add(1)
	if f.started != nil {
		f.started <- spec.String()
	}
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			if f.ctxErrs != nil {
				f.ctxErrs <- ctx.Err()
			}
			return stash.SweepResult{Spec: spec, Wall: time.Nanosecond,
				Err: fmt.Errorf("stash: %s canceled: %w", spec, context.Cause(ctx))}
		}
	}
	return stash.SweepResult{
		Spec: spec,
		Result: stash.Result{
			Cycles:   1000 + uint64(len(spec.Workload)),
			EnergyPJ: 42.5,
			FlitHops: map[string]uint64{"read": 7},
		},
		Wall:     time.Millisecond,
		Attempts: 1,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		c, err := cellcache.Spec{Scheme: "memory"}.Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cfg.Cache = c
	}
	s := New(cfg, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func metric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var n string
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), "%s %g", &n, &v); err == nil && n == name {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

const oneCellBody = `{"specs":[{"workload":"implicit","config":{"org":"Stash","gpus":1,"cpus":15}}]}`

// TestSweepCacheHitVsMiss: the first submission simulates, the repeat
// is a cache hit — zero additional engine runs, byte-identical body,
// hit counter incremented.
func TestSweepCacheHitVsMiss(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run})

	resp1, body1 := postSweep(t, ts, oneCellBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if ct := resp1.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if eng.calls.Load() != 1 {
		t.Fatalf("first request ran the engine %d times", eng.calls.Load())
	}
	var cell stash.SweepResult
	if err := json.Unmarshal([]byte(body1), &cell); err != nil {
		t.Fatalf("body is not one SweepResult line: %v\n%s", err, body1)
	}
	if cell.Status() != stash.StatusOK || cell.Result.Cycles != 1008 {
		t.Errorf("decoded cell: status=%s cycles=%d", cell.Status(), cell.Result.Cycles)
	}

	hitsBefore := metric(t, ts, "stashd_cache_hits_total")
	_, body2 := postSweep(t, ts, oneCellBody)
	if eng.calls.Load() != 1 {
		t.Errorf("repeat submission re-ran the engine (%d calls)", eng.calls.Load())
	}
	if body2 != body1 {
		t.Errorf("repeat body differs:\n%q\n%q", body1, body2)
	}
	if hits := metric(t, ts, "stashd_cache_hits_total"); hits != hitsBefore+1 {
		t.Errorf("hits went %g -> %g, want +1", hitsBefore, hits)
	}
}

// TestSweepStreamsInSpecOrder: a grid request yields one NDJSON line
// per cell, in spec order, regardless of completion order.
func TestSweepStreamsInSpecOrder(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run, Workers: 4})
	resp, body := postSweep(t, ts, `{"workloads":["implicit","reuse","lud"],"orgs":["Stash","Cache"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Stashd-Cells") != "6" {
		t.Errorf("X-Stashd-Cells = %q", resp.Header.Get("X-Stashd-Cells"))
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	want := []string{"implicit/Stash", "implicit/Cache", "reuse/Stash", "reuse/Cache", "lud/Stash", "lud/Cache"}
	for i, ln := range lines {
		var cell stash.SweepResult
		if err := json.Unmarshal([]byte(ln), &cell); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if cell.Spec.String() != want[i] {
			t.Errorf("line %d is %s, want %s", i, cell.Spec, want[i])
		}
	}
	// The grid shorthand picks the paper's machine per workload.
	var micro, app stash.SweepResult
	json.Unmarshal([]byte(lines[0]), &micro)
	json.Unmarshal([]byte(lines[4]), &app)
	if micro.Spec.Config.GPUs != 1 || app.Spec.Config.GPUs != 15 {
		t.Errorf("grid machines: micro GPUs=%d app GPUs=%d", micro.Spec.Config.GPUs, app.Spec.Config.GPUs)
	}
}

// TestSingleflightCollapse: N concurrent identical requests run one
// simulation; everyone gets the same bytes.
func TestSingleflightCollapse(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{}), started: make(chan string, 1)}
	_, ts := newTestServer(t, Config{Run: eng.run, Workers: 8})

	const n = 8
	bodies := make([]string, n)
	var wg sync.WaitGroup
	launch := func(i int) {
		defer wg.Done()
		_, bodies[i] = postSweep(t, ts, oneCellBody)
	}
	wg.Add(1)
	go launch(0)
	<-eng.started // the leader is inside the engine, holding the flight open
	for i := 1; i < n; i++ {
		wg.Add(1)
		go launch(i)
	}
	// Wait until every follower has either joined the flight or will
	// land on the filled cache, then release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, ts, "stashd_sweep_requests_total") < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(eng.gate)
	wg.Wait()

	if got := eng.calls.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran the engine %d times, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body differs from leader's", i)
		}
	}
}

// TestClientDisconnectCancelsCell: dropping the request mid-sweep
// cancels the in-flight cell via its context, and the cancellation is
// not cached — the next identical request simulates afresh.
func TestClientDisconnectCancelsCell(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{}), started: make(chan string, 1), ctxErrs: make(chan error, 1)}
	_, ts := newTestServer(t, Config{Run: eng.run})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", strings.NewReader(oneCellBody))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-eng.started
	cancel() // client walks away mid-simulation
	if err := <-errc; err == nil {
		t.Error("canceled request reported success")
	}
	select {
	case cerr := <-eng.ctxErrs:
		if !errors.Is(cerr, context.Canceled) {
			t.Errorf("cell context ended with %v, want cancellation", cerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cell context never canceled after client disconnect")
	}

	// The aborted run must not poison the cache.
	close(eng.gate)
	resp, body := postSweep(t, ts, oneCellBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cell stash.SweepResult
	if err := json.Unmarshal([]byte(body), &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Status() != stash.StatusOK {
		t.Errorf("post-disconnect resubmission served %s, want ok", cell.Status())
	}
	if eng.calls.Load() != 2 {
		t.Errorf("engine ran %d times, want 2 (canceled + fresh)", eng.calls.Load())
	}
}

// TestMalformedRequests: every malformed or invalid request is a 400
// (or 413) with a structured JSON error body.
func TestMalformedRequests(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run, MaxCells: 4})
	cases := []struct {
		name, body string
		code       int
		wantIndex  bool
	}{
		{"not json", `{"specs": [`, http.StatusBadRequest, false},
		{"unknown field", `{"spex": []}`, http.StatusBadRequest, false},
		{"empty", `{}`, http.StatusBadRequest, false},
		{"unknown workload", `{"specs":[{"workload":"nope","config":{"org":"Stash","gpus":1}}]}`, http.StatusBadRequest, true},
		{"unknown org", `{"workloads":["lud"],"orgs":["L3"]}`, http.StatusBadRequest, false},
		{"invalid config", `{"specs":[{"workload":"lud","config":{"org":"Stash","gpus":0}}]}`, http.StatusBadRequest, true},
		{"bad chunk words", `{"specs":[{"workload":"lud","config":{"org":"Stash","gpus":15,"cpus":1,"chunk_words":3}}]}`, http.StatusBadRequest, true},
		{"too many cells", `{"workloads":["implicit","reuse","lud"],"orgs":["Stash","Cache"]}`, http.StatusRequestEntityTooLarge, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSweep(t, ts, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			var e apiError
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Errorf("body is not a structured error: %q (%v)", body, err)
			}
			if tc.wantIndex && (json.Unmarshal([]byte(body), &e) != nil || e.Index == nil) {
				t.Errorf("per-cell failure missing index: %q", body)
			}
		})
	}
	if eng.calls.Load() != 0 {
		t.Errorf("invalid requests reached the engine %d times", eng.calls.Load())
	}
}

// TestCellEndpoint: GET /v1/cell builds the spec from query params,
// shares the sweep cache, and rejects unknown parameters.
func TestCellEndpoint(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run})

	get := func(query string) (*http.Response, string) {
		resp, err := http.Get(ts.URL + "/v1/cell?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	resp, body := get("workload=lud&org=Stash")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cell stash.SweepResult
	if err := json.Unmarshal([]byte(body), &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Spec.Workload != "lud" || cell.Spec.Config.GPUs != 15 {
		t.Errorf("cell spec = %+v", cell.Spec)
	}

	// The same cell through /v1/sweep is a cache hit, not a re-run.
	postSweep(t, ts, `{"specs":[{"workload":"lud","config":{"org":"Stash","gpus":15,"cpus":1}}]}`)
	if eng.calls.Load() != 1 {
		t.Errorf("sweep after cell re-ran the engine (%d calls)", eng.calls.Load())
	}

	// Ablation knobs reach the config (different fingerprint: re-run).
	get("workload=lud&org=Stash&eager_writeback=true&chunk_words=4")
	if eng.calls.Load() != 2 {
		t.Errorf("ablation cell did not simulate (%d calls)", eng.calls.Load())
	}

	// Technology axes reach the config too.
	resp, body = get("workload=lud&org=Stash&stash_tech=stt-mram&stash_cap_kb=32&l1_tech=edram")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tech cell status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &cell); err != nil {
		t.Fatal(err)
	}
	if st := cell.Spec.Config.StashTech; st == nil || st.Profile != "stt-mram" || st.CapacityKB != 32 {
		t.Errorf("stash tech spec = %+v", cell.Spec.Config.StashTech)
	}
	if lt := cell.Spec.Config.L1Tech; lt == nil || lt.Profile != "edram" || lt.CapacityKB != 0 {
		t.Errorf("l1 tech spec = %+v", cell.Spec.Config.L1Tech)
	}
	if eng.calls.Load() != 3 {
		t.Errorf("tech cell did not simulate (%d calls)", eng.calls.Load())
	}

	for _, q := range []string{
		"workload=lud&org=Nope",
		"workload=nope&org=Stash",
		"workload=lud&org=Stash&typo=1",
		"workload=lud&org=Stash&gpus=banana",
		"workload=lud&org=Stash&gpus=0",
		"workload=lud&org=Stash&stash_tech=unobtainium",
		"workload=lud&org=Stash&stash_cap_kb=banana",
		"workload=lud&org=Stash&llc_cap_kb=-3",
	} {
		resp, body := get(q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", q, resp.StatusCode, body)
		}
		var e apiError
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body is not a structured error: %q", q, body)
		}
	}
}

// TestFailedCellNotCached: deterministic failures still produce a
// structured line but are re-attempted on the next submission.
func TestFailedCellNotCached(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, spec stash.RunSpec) stash.SweepResult {
		calls.Add(1)
		return stash.SweepResult{Spec: spec, Wall: time.Millisecond, Attempts: 1,
			Err: &stash.CellError{Workload: spec.Workload, Org: spec.Config.Org,
				Kind: stash.FailHang, Msg: "no progress", Diagnostic: "cycle=42"}}
	}
	_, ts := newTestServer(t, Config{Run: run})
	for want := int64(1); want <= 2; want++ {
		resp, body := postSweep(t, ts, oneCellBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cell stash.SweepResult
		if err := json.Unmarshal([]byte(body), &cell); err != nil {
			t.Fatal(err)
		}
		if cell.Status() != stash.StatusHang {
			t.Errorf("status = %s, want hang", cell.Status())
		}
		var ce *stash.CellError
		if !errors.As(cell.Err, &ce) || ce.Diagnostic != "cycle=42" {
			t.Errorf("diagnostic lost: %v", cell.Err)
		}
		if calls.Load() != want {
			t.Errorf("engine calls = %d, want %d (failures must not be cached)", calls.Load(), want)
		}
	}
}

// TestHealthzAndDrain: healthy then draining.
func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Run: (&fakeEngine{}).run})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(b, []byte("draining")) {
		t.Errorf("draining healthz = %d %q", resp.StatusCode, b)
	}
}

// TestMetricsThroughput: fresh simulations feed the sim-cycles/sec
// gauge; cache hits do not.
func TestMetricsThroughput(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run})
	postSweep(t, ts, oneCellBody)
	cycles := metric(t, ts, "stashd_sim_cycles_total")
	if cycles != 1008 {
		t.Errorf("sim cycles = %g, want 1008", cycles)
	}
	if metric(t, ts, "stashd_sim_cycles_per_sec") <= 0 {
		t.Error("cycles/sec not derived")
	}
	postSweep(t, ts, oneCellBody) // hit: no new cycles
	if got := metric(t, ts, "stashd_sim_cycles_total"); got != cycles {
		t.Errorf("cache hit advanced sim cycles: %g -> %g", cycles, got)
	}
	if metric(t, ts, "stashd_cells_simulated_total") != 1 {
		t.Error("cells_simulated should count fresh runs only")
	}
}

func postSweepAs(t *testing.T, ts *httptest.Server, token, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestNamespaceIsolation: cache entries are keyed by tenant. The same
// cell under two different bearer tokens simulates twice; a repeat
// under either token is a hit; anonymous requests share one "public"
// namespace. Each tenant appears in /metrics as a labeled series, and
// raw tokens never show up in the exposition.
func TestNamespaceIsolation(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run})

	postSweepAs(t, ts, "alice-secret", oneCellBody)
	if eng.calls.Load() != 1 {
		t.Fatalf("first tenant request ran the engine %d times", eng.calls.Load())
	}
	postSweepAs(t, ts, "bob-secret", oneCellBody)
	if eng.calls.Load() != 2 {
		t.Errorf("second tenant should not see first tenant's entry (%d calls)", eng.calls.Load())
	}
	_, aliceRepeat := postSweepAs(t, ts, "alice-secret", oneCellBody)
	if eng.calls.Load() != 2 {
		t.Errorf("repeat under the same token re-ran the engine (%d calls)", eng.calls.Load())
	}
	_, aliceFirst := postSweepAs(t, ts, "alice-secret", oneCellBody)
	if aliceFirst != aliceRepeat {
		t.Error("tenant repeat not byte-identical")
	}

	// Anonymous requests share the public namespace.
	postSweep(t, ts, oneCellBody)
	if eng.calls.Load() != 3 {
		t.Errorf("anonymous request should miss tenant entries (%d calls)", eng.calls.Load())
	}
	postSweep(t, ts, oneCellBody)
	if eng.calls.Load() != 3 {
		t.Errorf("anonymous repeat re-ran the engine (%d calls)", eng.calls.Load())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(b)
	if !strings.Contains(exposition, `stashd_ns_cache_hits_total{namespace="public"} 1`) {
		t.Errorf("public namespace series missing or wrong:\n%s", exposition)
	}
	if strings.Contains(exposition, "alice-secret") || strings.Contains(exposition, "bob-secret") {
		t.Error("raw bearer token leaked into /metrics")
	}
	if got := strings.Count(exposition, "stashd_ns_cache_hits_total{"); got != 3 {
		t.Errorf("want 3 namespace series (public + 2 tenants), got %d", got)
	}
}

// TestMetricsTiersAndCompression: a gzip pairtree cache reports
// per-tier hits and a compression ratio above 1 for the synthetic
// (JSON, highly compressible) results.
func TestMetricsTiersAndCompression(t *testing.T) {
	cache, err := cellcache.Open("pairtree://" + t.TempDir() + "?compress=gzip&entries=1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run, Cache: cache})

	const otherCellBody = `{"specs":[{"workload":"reuse","config":{"org":"Stash","gpus":1,"cpus":15}}]}`
	postSweep(t, ts, oneCellBody)
	postSweep(t, ts, otherCellBody) // evicts the first cell from the 1-entry memory tier
	postSweep(t, ts, oneCellBody)   // store-tier hit: promoted back into memory
	postSweep(t, ts, oneCellBody)   // memory-tier hit

	if got := metric(t, ts, "stashd_cache_disk_hits_total"); got != 1 {
		t.Errorf("disk hits = %g, want 1", got)
	}
	if got := metric(t, ts, "stashd_cache_mem_hits_total"); got != 1 {
		t.Errorf("mem hits = %g, want 1", got)
	}
	if got := metric(t, ts, "stashd_cache_hits_total"); got != 2 {
		t.Errorf("total hits = %g, want 2", got)
	}
	if ratio := metric(t, ts, "stashd_cache_compression_ratio"); ratio <= 1 {
		t.Errorf("compression ratio = %g, want > 1 for JSON payloads", ratio)
	}
	if raw, stored := metric(t, ts, "stashd_cache_raw_bytes_total"), metric(t, ts, "stashd_cache_stored_bytes_total"); stored >= raw || stored == 0 {
		t.Errorf("stored bytes %g vs raw %g: gzip should shrink JSON", stored, raw)
	}
}
