package serve

import (
	"context"
	"encoding/json"
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

// This file is stashd's chaos harness: storage faults, worker panics,
// disconnect storms, and drain-during-sweep, each asserting the
// resilience contract — no wedges, structured errors only, degraded
// service over failed service, and byte-identical replay after heal.

// TestDegradedServingOnPersistFailure: a simulation that computes fine
// but cannot be persisted is served (200, ok line), counted as
// degraded, and simply not cached — the disk being sick never fails a
// computation that succeeded.
func TestDegradedServingOnPersistFailure(t *testing.T) {
	cache, err := cellcache.Open("faulty+memory://?entries=-1&breaker=0&fault_put=1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run, Cache: cache})

	for round := int64(1); round <= 2; round++ {
		resp, body := postSweep(t, ts, oneCellBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		var cell stash.SweepResult
		if err := json.Unmarshal([]byte(body), &cell); err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, body)
		}
		if cell.Status() != stash.StatusOK {
			t.Fatalf("round %d: served %s, want ok despite persist failure", round, cell.Status())
		}
		// Nothing was cached, so every round simulates afresh.
		if eng.calls.Load() != round {
			t.Errorf("round %d: engine calls = %d", round, eng.calls.Load())
		}
	}
	if got := metric(t, ts, "stashd_degraded_cells_total"); got != 2 {
		t.Errorf("degraded cells = %g, want 2", got)
	}
	if got := metric(t, ts, "stashd_cache_put_errors_total"); got != 2 {
		t.Errorf("cache put errors = %g, want 2", got)
	}
	if got := metric(t, ts, "stashd_cells_failed_total"); got != 0 {
		t.Errorf("degraded cells leaked into cells_failed (%g)", got)
	}
}

// TestStorageOutageDegradeHealReplay: a store that is down at boot
// trips the breaker (visible in /metrics and /healthz) while cells keep
// serving; once the engine heals and the backoff lapses, the same cell
// persists, and from then on replays byte-identically from cache.
func TestStorageOutageDegradeHealReplay(t *testing.T) {
	cache, err := cellcache.Open("faulty+pairtree://" + t.TempDir() +
		"?entries=-1&fault_down_first=2&breaker=1&breaker_backoff=1ms")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Config{Run: eng.run, Cache: cache})

	// Sick phase: lookup miss + failed persist consume the outage ops.
	resp, body1 := postSweep(t, ts, oneCellBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sick-phase status %d: %s", resp.StatusCode, body1)
	}
	if got := metric(t, ts, "stashd_cache_breaker_trips_total"); got != 1 {
		t.Errorf("breaker trips = %g, want 1", got)
	}
	if got := metric(t, ts, "stashd_degraded_cells_total"); got != 1 {
		t.Errorf("degraded cells = %g, want 1", got)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hb), "degraded") {
		t.Errorf("sick-phase healthz = %d %q, want 200 + degraded", hresp.StatusCode, hb)
	}

	// Healed phase: past the backoff, the half-open probe write lands.
	time.Sleep(20 * time.Millisecond)
	_, body2 := postSweep(t, ts, oneCellBody)
	if body2 != body1 {
		t.Errorf("healed rerun not byte-identical:\n%q\n%q", body1, body2)
	}
	if eng.calls.Load() != 2 {
		t.Fatalf("healed rerun: engine calls = %d, want 2", eng.calls.Load())
	}

	// Replay phase: cached now; the engine stays cold and the bytes are
	// exactly the sick-phase bytes.
	_, body3 := postSweep(t, ts, oneCellBody)
	if body3 != body1 {
		t.Errorf("post-heal replay not byte-identical:\n%q\n%q", body1, body3)
	}
	if eng.calls.Load() != 2 {
		t.Errorf("replay re-ran the engine (%d calls)", eng.calls.Load())
	}
	if got := metric(t, ts, "stashd_cache_breaker_state"); got != float64(cellcache.BreakerClosed) {
		t.Errorf("breaker state = %g after heal, want closed", got)
	}
	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ = io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"ok"`) {
		t.Errorf("healed healthz = %d %q", hresp.StatusCode, hb)
	}
}

// TestWorkerPanicIsolated: a panic inside the engine costs exactly one
// cell — it surfaces as a structured panic line with the stack
// attached, the sweep's other cells are unaffected, the panic is never
// cached, and the daemon keeps serving.
func TestWorkerPanicIsolated(t *testing.T) {
	var calls atomic.Int64
	inner := &fakeEngine{}
	run := func(ctx context.Context, spec stash.RunSpec) stash.SweepResult {
		if spec.Workload == "lud" {
			calls.Add(1)
			panic(fmt.Sprintf("synthetic crash %d", calls.Load()))
		}
		return inner.run(ctx, spec)
	}
	_, ts := newTestServer(t, Config{Run: run, Workers: 2})

	body := `{"specs":[` +
		`{"workload":"lud","config":{"org":"Stash","gpus":15,"cpus":1}},` +
		`{"workload":"implicit","config":{"org":"Stash","gpus":1,"cpus":15}}]}`
	resp, out := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	var crashed, fine stash.SweepResult
	if err := json.Unmarshal([]byte(lines[0]), &crashed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &fine); err != nil {
		t.Fatal(err)
	}
	if crashed.Status() != stash.StatusPanic {
		t.Errorf("crashed cell status = %s, want panic", crashed.Status())
	}
	if crashed.Err == nil || !strings.Contains(crashed.Err.Error(), "synthetic crash") {
		t.Errorf("panic message lost: %v", crashed.Err)
	}
	if fine.Status() != stash.StatusOK {
		t.Errorf("bystander cell status = %s, want ok", fine.Status())
	}
	if got := metric(t, ts, "stashd_panic_cells_total"); got != 1 {
		t.Errorf("panic cells = %g, want 1", got)
	}

	// The panic is a fact about one run, not the cell: resubmission
	// re-attempts (and the daemon is still alive to do so).
	postSweep(t, ts, body)
	if calls.Load() != 2 {
		t.Errorf("panicking cell ran %d times across 2 submissions, want 2", calls.Load())
	}
}

// TestDisconnectStorm: a burst of clients that all vanish mid-flight
// must not wedge the daemon — gauges return to zero, and the next
// well-behaved request is served cleanly.
func TestDisconnectStorm(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Run: eng.run, Workers: 2})

	const storm = 8
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			body := fmt.Sprintf(`{"specs":[{"workload":"implicit","config":{"org":"Stash","gpus":%d,"cpus":%d}}]}`, 1+i%4, 4-i%4)
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				time.Sleep(time.Duration(i) * time.Millisecond)
				cancel() // every client walks away
			}()
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	close(eng.gate)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if metric(t, ts, "stashd_inflight_cells") == 0 && metric(t, ts, "stashd_queue_depth") == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metric(t, ts, "stashd_inflight_cells"); got != 0 {
		t.Errorf("in-flight cells stuck at %g after the storm", got)
	}
	if got := metric(t, ts, "stashd_queue_depth"); got != 0 {
		t.Errorf("queue depth stuck at %g after the storm", got)
	}

	resp, body := postSweep(t, ts, oneCellBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request: status %d: %s", resp.StatusCode, body)
	}
	var cell stash.SweepResult
	if err := json.Unmarshal([]byte(body), &cell); err != nil || cell.Status() != stash.StatusOK {
		t.Errorf("post-storm cell = %s (%v)", cell.Status(), err)
	}
}

// TestSharedFlightDisconnect: client B joins client A's in-flight
// simulation; A disconnects. The foreign cancellation must not decide
// B's cell — B's request reruns it under its own context and succeeds —
// across every engine family (satellite of the mid-stream-disconnect
// robustness work).
func TestSharedFlightDisconnect(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"memory", "memory://"},
		{"log", "log://{dir}"},
		{"pairtree-gzip", "pairtree://{dir}?compress=gzip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := cellcache.Open(strings.Replace(tc.spec, "{dir}", t.TempDir(), 1))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cache.Close() })
			eng := &fakeEngine{gate: make(chan struct{}), started: make(chan string, 4)}
			_, ts := newTestServer(t, Config{Run: eng.run, Cache: cache, Workers: 2})

			// A leads the flight and holds it open inside the engine.
			actx, acancel := context.WithCancel(context.Background())
			defer acancel()
			areq, err := http.NewRequestWithContext(actx, "POST", ts.URL+"/v1/sweep", strings.NewReader(oneCellBody))
			if err != nil {
				t.Fatal(err)
			}
			aerr := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(areq)
				if err == nil {
					resp.Body.Close()
				}
				aerr <- err
			}()
			<-eng.started

			// B joins the same cell's flight.
			bBody := make(chan string, 1)
			go func() {
				_, body := postSweep(t, ts, oneCellBody)
				bBody <- body
			}()
			deadline := time.Now().Add(5 * time.Second)
			for metric(t, ts, "stashd_cache_singleflight_collapsed_total") < 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}

			// A vanishes; its cancellation fails the shared flight. B must
			// rerun rather than inherit the foreign cancellation.
			acancel()
			<-aerr
			select {
			case <-eng.started: // B's rerun reached the engine
			case <-time.After(5 * time.Second):
				t.Fatal("no rerun after the leader's disconnect")
			}
			close(eng.gate)

			var cell stash.SweepResult
			body := <-bBody
			if err := json.Unmarshal([]byte(body), &cell); err != nil {
				t.Fatalf("B's body: %v\n%s", err, body)
			}
			if cell.Status() != stash.StatusOK {
				t.Errorf("B got %s, want ok after rerun", cell.Status())
			}
			if eng.calls.Load() != 2 {
				t.Errorf("engine calls = %d, want 2 (canceled leader + rerun)", eng.calls.Load())
			}

			// The rerun's result was cached: replay is byte-identical, cold.
			_, replay := postSweep(t, ts, oneCellBody)
			if replay != body {
				t.Error("post-rerun replay not byte-identical")
			}
			if eng.calls.Load() != 2 {
				t.Errorf("replay re-ran the engine (%d calls)", eng.calls.Load())
			}
		})
	}
}

// TestDrainDuringSweep: closing the drain channel mid-sweep fails
// queued cells fast with structured not_started lines while the
// in-flight cell finishes — the stream stays whole, nothing wedges.
func TestDrainDuringSweep(t *testing.T) {
	cache, err := cellcache.Spec{Scheme: "memory"}.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	eng := &fakeEngine{gate: make(chan struct{}), started: make(chan string, 4)}
	done := make(chan struct{})
	s := New(Config{Run: eng.run, Cache: cache, Workers: 1}, done)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := `{"workloads":["implicit","reuse","pollution"],"orgs":["Stash"]}`
	respc := make(chan string, 1)
	go func() {
		_, out := postSweep(t, ts, body)
		respc <- out
	}()
	// Whichever cell won the lone worker slot is the in-flight one;
	// the other two are queued.
	inFlight := <-eng.started
	close(done) // drain
	close(eng.gate)

	out := <-respc
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("drained sweep returned %d lines, want 3:\n%s", len(lines), out)
	}
	for i, ln := range lines {
		var cell stash.SweepResult
		if err := json.Unmarshal([]byte(ln), &cell); err != nil {
			t.Fatalf("line %d not structured: %v\n%s", i, err, ln)
		}
		want := stash.StatusNotStarted
		if cell.Spec.String() == inFlight {
			want = stash.StatusOK
		}
		if got := cell.Status(); got != want {
			t.Errorf("cell %s = %s, want %s", cell.Spec, got, want)
		}
	}
	if eng.calls.Load() != 1 {
		t.Errorf("drain let %d cells start, want 1", eng.calls.Load())
	}
}
