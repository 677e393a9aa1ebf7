package main

import (
	"reflect"
	"slices"
	"testing"

	"stash"
)

func coldStream(t *testing.T, seed int64, requests int) [][]stash.RunSpec {
	t.Helper()
	g := newCellGen(seed, streamCold)
	out := make([][]stash.RunSpec, requests)
	for i := range out {
		req, err := g.coldRequest()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = req
	}
	return out
}

func replayStream(seed int64, requests int) [][]int {
	d := newReplayDraws(seed)
	out := make([][]int, requests)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

func TestPassOrderIsSeeded(t *testing.T) {
	a := passOrder(7, 0, 16)
	if !slices.Equal(a, passOrder(7, 0, 16)) {
		t.Error("the same seed and pass gave different orders")
	}
	if slices.Equal(a, passOrder(8, 0, 16)) {
		t.Error("another seed gave the same order")
	}
	if slices.Equal(a, passOrder(7, 1, 16)) {
		t.Error("the next pass repeated the first pass's order")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("order %v is not a permutation of 0..15", a)
		}
	}
}

func TestColdStreamIsSeeded(t *testing.T) {
	a := coldStream(t, 3, 20)
	if !reflect.DeepEqual(a, coldStream(t, 3, 20)) {
		t.Error("the same seed gave different cold request streams")
	}
	if reflect.DeepEqual(a, coldStream(t, 4, 20)) {
		t.Error("another seed gave the same cold request stream")
	}
	for _, req := range a {
		if len(req) != len(cheapPairs) {
			t.Fatalf("cold request has %d cells, want one per cheap pair (%d)", len(req), len(cheapPairs))
		}
		for i, spec := range req {
			if p := cheapPairs[i]; spec.Workload != p.workload || spec.Config.Org != p.org {
				t.Errorf("cell %d is %s, want %s/%v", i, spec, p.workload, p.org)
			}
		}
	}
}

// TestColdNeverRepeatsAFingerprint checks the property stashd-cold
// rests on: a repeated fingerprint would be served from the cache.
func TestColdNeverRepeatsAFingerprint(t *testing.T) {
	requests := 2000
	if testing.Short() {
		requests = 200
	}
	seen := make(map[string]string)
	for i, req := range coldStream(t, 1, requests) {
		for _, spec := range req {
			fp, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[fp]; dup {
				t.Fatalf("request %d repeats fingerprint %s of %s", i, fp, prev)
			}
			seen[fp] = spec.String()
		}
	}
}

func TestReplaySetIsSeeded(t *testing.T) {
	a, err := replaySet(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replaySet(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := replaySet(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different replay sets")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("another seed gave the same replay set")
	}
	if len(a) != len(cheapPairs)*replayVariants {
		t.Fatalf("replay set has %d cells, want %d", len(a), len(cheapPairs)*replayVariants)
	}
	fps := make(map[string]bool)
	for i, spec := range a {
		if p := cheapPairs[i/replayVariants]; spec.Workload != p.workload || spec.Config.Org != p.org {
			t.Errorf("set cell %d is %s, want %s/%v", i, spec, p.workload, p.org)
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[fp] = true
	}
	if len(fps) != len(a) {
		t.Errorf("replay set has %d distinct cells out of %d", len(fps), len(a))
	}
}

func TestReplayStreamIsSeeded(t *testing.T) {
	a := replayStream(9, 100)
	if !reflect.DeepEqual(a, replayStream(9, 100)) {
		t.Error("the same seed gave different replay request streams")
	}
	if reflect.DeepEqual(a, replayStream(10, 100)) {
		t.Error("another seed gave the same replay request stream")
	}
	for _, req := range a {
		perPair := make(map[int]map[int]bool)
		for _, i := range req {
			p := i / replayVariants
			if perPair[p] == nil {
				perPair[p] = make(map[int]bool)
			}
			perPair[p][i] = true
		}
		if len(req) != 16 || len(perPair) != len(cheapPairs) {
			t.Fatalf("request %v does not cover every pair in 16 cells", req)
		}
		for p, cells := range perPair {
			if len(cells) != replayPerPair {
				t.Errorf("request %v has %d distinct cells of pair %d, want %d", req, len(cells), p, replayPerPair)
			}
		}
	}
}
