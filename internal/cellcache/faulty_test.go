package cellcache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFaultyDeterminism: two engines under the same profile fail
// identically, operation for operation — the property that makes every
// chaos-run failure replayable.
func TestFaultyDeterminism(t *testing.T) {
	prof := FaultProfile{Seed: 42, PutErr: 0.3, GetErr: 0.3, Torn: 0.2}
	trace := func() (string, [4]uint64) {
		f := NewFaulty(NewMemory(0, 0), prof)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", i%17)
			if i%2 == 0 {
				if err := f.Put(k, []byte("0123456789")); err != nil {
					b.WriteByte('E')
				} else {
					b.WriteByte('.')
				}
			} else {
				if _, ok := f.Get(k); ok {
					b.WriteByte('h')
				} else {
					b.WriteByte('m')
				}
			}
		}
		p, g, torn, d := f.Counts()
		return b.String(), [4]uint64{p, g, torn, d}
	}
	t1, c1 := trace()
	t2, c2 := trace()
	if t1 != t2 {
		t.Errorf("same profile, different fault streams:\n%s\n%s", t1, t2)
	}
	if c1 != c2 {
		t.Errorf("fault counts diverged: %v vs %v", c1, c2)
	}
	if c1[0] == 0 || c1[2] == 0 {
		t.Errorf("profile injected nothing: counts %v", c1)
	}
}

// TestFaultyDownWindows: DownFirst fails exactly the first N operations
// (a sick-at-boot store that heals); DownEvery/DownFor recur cyclically.
func TestFaultyDownWindows(t *testing.T) {
	f := NewFaulty(NewMemory(0, 0), FaultProfile{DownFirst: 3})
	for i := 0; i < 3; i++ {
		if err := f.Put("k", []byte("v")); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("op %d during DownFirst: err = %v, want injected fault", i, err)
		}
	}
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatalf("op after DownFirst window still failing: %v", err)
	}

	// 2 healthy, 1 down, repeating.
	f = NewFaulty(NewMemory(0, 0), FaultProfile{DownEvery: 2, DownFor: 1})
	var got strings.Builder
	for i := 0; i < 9; i++ {
		if err := f.Put("k", []byte("v")); err != nil {
			got.WriteByte('x')
		} else {
			got.WriteByte('.')
		}
	}
	if got.String() != "..x..x..x" {
		t.Errorf("cyclic window = %q, want ..x..x..x", got.String())
	}
}

// TestFaultyHeal: Heal makes the wrapper permanently transparent, even
// under a certain-failure profile.
func TestFaultyHeal(t *testing.T) {
	f := NewFaulty(NewMemory(0, 0), FaultProfile{PutErr: 1, GetErr: 1})
	if err := f.Put("k", []byte("v")); err == nil {
		t.Fatal("PutErr=1 did not fail")
	}
	f.Heal()
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put after Heal: %v", err)
	}
	if v, ok := f.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("Get after Heal = %q, %v", v, ok)
	}
}

// TestTornWriteNeverServedWrong: a store that persists a prefix of the
// frame yet reports success must never yield wrong bytes — the v3
// frame length (raw codec carries no other integrity signal above the
// engine) turns every truncation into a miss.
func TestTornWriteNeverServedWrong(t *testing.T) {
	c := openSpec(t, "faulty+memory://?entries=-1&breaker=0&fault_seed=7&fault_torn=1", "")
	misses := 0
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("cell%d", i)
		want := bytes.Repeat([]byte(fmt.Sprintf("payload %d ", i)), 8)
		if err := c.Put("", key, want); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
		got, ok := c.Get("", key)
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("torn write served wrong bytes for %s: %d bytes, want %d", key, len(got), len(want))
		}
		if !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Error("fault_torn=1 over 32 writes produced no detectable truncation")
	}
}

// TestBreakerOpensAndRecovers: consecutive store-write failures trip
// the breaker, an open breaker skips the store (writes fail typed,
// reads miss without touching the engine), and after the backoff a
// half-open probe against the healed engine closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	c := openSpec(t, "faulty+memory://?entries=-1&breaker=2&breaker_backoff=1s&fault_down_first=2", "")
	clock := time.Now()
	c.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if err := c.Put("", fmt.Sprintf("k%d", i), []byte("v")); err == nil {
			t.Fatalf("Put %d during outage succeeded", i)
		}
	}
	s := c.Stats()
	if s.BreakerState != BreakerOpen || s.BreakerTrips != 1 || s.PutErrors != 2 {
		t.Fatalf("after threshold failures: state=%d trips=%d putErrs=%d", s.BreakerState, s.BreakerTrips, s.PutErrors)
	}

	// Open: writes are skipped with the typed error (the engine is not
	// hammered), reads are misses.
	if err := c.Put("", "skipped", []byte("v")); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("open-breaker Put err = %v, want ErrStoreUnavailable", err)
	}
	if s := c.Stats(); s.PutErrors != 2 {
		t.Errorf("skipped write counted as an engine failure: putErrs=%d", s.PutErrors)
	}
	if _, ok := c.Get("", "k0"); ok {
		t.Error("open-breaker Get served from the sick store")
	}

	// Backoff (jittered up to 1.25x base) lapses; the engine has healed
	// (DownFirst consumed). The half-open probe write closes the breaker.
	clock = clock.Add(2 * time.Second)
	if err := c.Put("", "recovered", []byte("back")); err != nil {
		t.Fatalf("half-open probe Put: %v", err)
	}
	if s := c.Stats(); s.BreakerState != BreakerClosed || s.BreakerTrips != 1 {
		t.Errorf("after recovery: state=%d trips=%d", s.BreakerState, s.BreakerTrips)
	}
	if v, ok := c.Get("", "recovered"); !ok || string(v) != "back" {
		t.Errorf("post-recovery Get = %q, %v", v, ok)
	}
}

// TestBreakerReopensWithLongerBackoff: a failed half-open probe reopens
// immediately with a doubled window.
func TestBreakerReopensWithLongerBackoff(t *testing.T) {
	clock := time.Now()
	b := newBreaker(1, time.Second, func() time.Time { return clock })
	b.failure() // trip 1
	if st, trips := b.snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("state=%d trips=%d after first failure", st, trips)
	}
	if b.allow() {
		t.Fatal("allowed during open window")
	}
	clock = clock.Add(2 * time.Second) // past 1.25x max jittered base
	if !b.allow() {
		t.Fatal("half-open probe not allowed after backoff")
	}
	b.failure() // probe fails: reopen, doubled wait
	clock = clock.Add(1400 * time.Millisecond)
	if b.allow() {
		t.Error("reopened breaker allowed before the doubled backoff (min 1.5s) lapsed")
	}
	clock = clock.Add(2 * time.Second)
	if !b.allow() {
		t.Error("probe not allowed after the doubled backoff")
	}
	b.success()
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Errorf("state=%d after success, want closed", st)
	}
}

// TestProbe: a healthy cache probes clean; a cache whose store cannot
// round-trip the sentinel reports a tiered error. Probe bypasses the
// breaker — it must report the engine's truth even when tripped.
func TestProbe(t *testing.T) {
	if err := openSpec(t, "memory://", "").Probe(); err != nil {
		t.Errorf("healthy memory cache probe: %v", err)
	}
	if err := openSpec(t, "pairtree://"+t.TempDir(), "").Probe(); err != nil {
		t.Errorf("healthy pairtree cache probe: %v", err)
	}
	c := openSpec(t, "faulty+memory://?fault_down_first=1000", "")
	err := c.Probe()
	if err == nil {
		t.Fatal("probe of a down store succeeded")
	}
	if !strings.Contains(err.Error(), "store tier") {
		t.Errorf("probe error does not name the tier: %v", err)
	}
}

// TestSpecFaultGrammar: the faulty+ scheme and fault_*/breaker knobs
// parse, render, and round-trip; misuse is rejected loudly.
func TestSpecFaultGrammar(t *testing.T) {
	sp, err := ParseSpec("faulty+pairtree:///data?fault_seed=7&fault_put=0.25&fault_torn=0.1&fault_latency=5ms&fault_down_first=3&breaker=3&breaker_backoff=2s")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scheme != "pairtree" || sp.Fault == nil {
		t.Fatalf("scheme=%q fault=%v", sp.Scheme, sp.Fault)
	}
	if sp.Fault.Seed != 7 || sp.Fault.PutErr != 0.25 || sp.Fault.Torn != 0.1 ||
		sp.Fault.Latency != 5*time.Millisecond || sp.Fault.DownFirst != 3 {
		t.Errorf("fault profile = %+v", *sp.Fault)
	}
	if sp.BreakerThreshold != 3 || sp.BreakerBackoff != 2*time.Second {
		t.Errorf("breaker = %d / %v", sp.BreakerThreshold, sp.BreakerBackoff)
	}
	sp2, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", sp.String(), err)
	}
	if *sp2.Fault != *sp.Fault || sp2.BreakerThreshold != sp.BreakerThreshold || sp2.BreakerBackoff != sp.BreakerBackoff {
		t.Errorf("round trip changed the spec: %q -> %q", sp.String(), sp2.String())
	}

	// breaker=0 is explicit off, and survives the round trip.
	sp, err = ParseSpec("log:///data?breaker=0")
	if err != nil {
		t.Fatal(err)
	}
	if sp.BreakerThreshold != -1 {
		t.Errorf("breaker=0 parsed to %d, want -1", sp.BreakerThreshold)
	}
	if sp2, err := ParseSpec(sp.String()); err != nil || sp2.BreakerThreshold != -1 {
		t.Errorf("breaker=0 round trip: %v, %d", err, sp2.BreakerThreshold)
	}

	for _, bad := range []string{
		"log:///data?fault_put=0.5",          // fault knob without faulty+
		"faulty+memory://?fault_put=1.5",     // probability out of range
		"faulty+memory://?fault_seed=x",      // not a number
		"faulty+memory://?fault_latency=-1s", // negative duration
		"memory://?breaker=-2",               // negative threshold
		"memory://?breaker_backoff=0",        // non-positive backoff
		"faulty+nvram:///data",               // unknown inner engine
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

// TestFrameV2ReadsAsMiss: an sce2 frame (no body length) from an older
// cache does not decode, so the Cache drops it and re-simulates; and a
// truncated sce3 raw frame is a loud error, not silently short bytes.
func TestFrameV2ReadsAsMiss(t *testing.T) {
	payload := []byte(`{"cycles":123}`)
	v2 := make([]byte, 4+1+8+len(payload))
	copy(v2, "sce2")
	v2[4] = CodecRaw
	copy(v2[13:], payload)
	if got, _, _, err := decodeFrame(v2); err == nil {
		t.Fatalf("sce2 frame decoded to %q; want an error", got)
	}
	if _, ok := frameExpiry(v2); ok {
		t.Error("frameExpiry read an sce2 frame")
	}

	v3, err := encodeFrame(CodecRaw, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := decodeFrame(v3); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("v3 frame decode = %q, %v", got, err)
	}
	if _, _, _, err := decodeFrame(v3[:len(v3)-3]); err == nil {
		t.Error("truncated v3 frame decoded without error")
	}
}
