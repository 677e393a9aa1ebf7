package core

import (
	"testing"

	"stash/internal/coh"
)

// TestStashAccessZeroAlloc pins the stash's warmed-up access path at
// zero allocations: a load that hits, a load that misses and completes
// through its LLC fill, and a store that registers its words. Each run
// drives the whole transaction (NoC, LLC bank, acknowledgements) to
// quiescence, so a closure or pool miss anywhere on the path shows.
func TestStashAccessZeroAlloc(t *testing.T) {
	const lanes, words = 32, 4096
	r := newRig(t, DefaultParams())
	base := r.alloc(words, func(i int) uint32 { return uint32(7 * i) })
	r.stash.AddMap(0, 0, linearMap(0, base, words))

	offsets := make([]int, lanes)
	vals := make([]uint32, lanes)
	at := func(first int) {
		for i := range offsets {
			offsets[i] = first + i
		}
	}
	var got uint32
	done := func(v []uint32) { got = v[lanes-1] }
	storeDone := func() {}
	load := func() {
		r.stash.Load(0, 0, offsets, done)
		r.eng.Run()
	}

	// Fill the LLC with every line of the array: LLC lines are allocated
	// on their DRAM fill, which a warmed-up stash miss no longer needs.
	for first := 0; first < words; first += lanes {
		at(first)
		load()
	}
	r.stash.SelfInvalidate()

	at(0)
	load() // warm the stash's pools on the miss path
	if n := testing.AllocsPerRun(100, load); n != 0 {
		t.Errorf("load hit: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.stash.SelfInvalidate() // the shared words go invalid: miss again
		load()
	}); n != 0 {
		t.Errorf("load miss through fill: %.1f allocs/op, want 0", n)
	}
	if _, st := r.stash.Peek(0); st != coh.Shared || got != 7*(lanes-1) {
		t.Fatalf("after the misses word 0 is %v and lane %d read %d, want Shared and %d", st, lanes-1, got, 7*(lanes-1))
	}

	// Every store registers 32 words the stash does not own yet.
	next := lanes
	store := func() {
		at(next)
		next += lanes
		r.stash.Store(0, 0, offsets, vals, storeDone)
		r.eng.Run()
	}
	store()
	if n := testing.AllocsPerRun(100, store); n != 0 {
		t.Errorf("registering store: %.1f allocs/op, want 0", n)
	}
	if _, st := r.stash.Peek(next - 1); st != coh.Registered {
		t.Fatalf("last stored word is %v, want Registered", st)
	}
	if err := r.stash.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
