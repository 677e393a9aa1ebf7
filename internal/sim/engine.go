// Package sim provides a deterministic discrete-event simulation engine.
//
// All timing in the simulator is expressed in GPU core cycles (700 MHz in
// the paper's configuration). Components schedule closures at absolute or
// relative cycle times; events scheduled for the same cycle run in the
// order they were scheduled, which makes every simulation fully
// deterministic and therefore exactly reproducible in tests.
//
// The scheduler is allocation-free in steady state. Nearly all simulator
// events are scheduled a handful of cycles ahead (SRAM latencies, link
// traversals, pipelined replays), so the engine keeps a ring of
// ringWindow per-cycle buckets covering [now, now+ringWindow): those
// events append to a reused slice in O(1) and drain in FIFO order, which
// is exactly (cycle, seq) order within a bucket. Events beyond the
// window go to a hand-rolled binary heap of event values — no
// container/heap, whose interface methods box every event through an
// `any` allocation. Both structures reuse their backing storage across
// Run calls, so steady-state scheduling and dispatch allocate nothing.
//
// Ordering across the two structures needs no merging logic beyond the
// (at, seq) comparison: the clock never moves backwards, so for any
// cycle t every event that was pushed while t was outside the window
// (far heap) carries a smaller seq than every event pushed while t was
// inside it (ring), and draining the far heap first at equal timestamps
// preserves global FIFO order.
package sim

import "math/bits"

// Cycle is a point in (or duration of) simulated time, measured in cycles.
type Cycle uint64

type event struct {
	at  Cycle
	seq uint64 // tie-breaker: FIFO among events at the same cycle
	fn  func()
}

// ringWindow is the number of future cycles covered by the bucket ring.
// It must be a power of two and a multiple of 64 (the occupancy set is
// an array of words). 256 covers every common component latency —
// SRAM hits, link traversals, replays, and the 170-cycle DRAM fill.
// The far heap still takes a real share on congested networks: on the
// Fig. 6 Stash cells, 0.2% (sgemm) to 24% (surf) of scheduled events go
// far (nw 8.0%, backprop 6.8%, lud 2.6%), mostly NoC deliveries queued
// behind busy links. On surf, nw, backprop and lud, 60–86% of far
// events lie 512 or more cycles out, so a wider ring would not absorb
// them.
const ringWindow = 256

// occWords is the length of the occupancy bit-set. nextRing's
// empty-ring fast path is unrolled for exactly this many words.
const occWords = ringWindow / 64

var _ [1]struct{} = [occWords - 3]struct{}{} // static: occWords == 4

// bucket holds the events of one absolute cycle in FIFO order. head
// indexes the next event to run; the slice keeps its capacity when the
// bucket empties, so a warmed-up ring schedules without allocating.
type bucket struct {
	at     Cycle
	head   int
	events []event
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now   Cycle
	seq   uint64
	steps uint64

	ring    [ringWindow]bucket
	occ     [occWords]uint64 // bit b set: ring[b] has unexecuted events
	far     []event
	pending int

	probes []probeEntry

	// untilHook is the merged countdown to the earliest due probe;
	// sinceHook+1 is the stride slowTick credits to every probe's
	// counter when untilHook reaches zero. Together they let tick touch
	// one word per event instead of every probe's counter.
	untilHook uint64
	sinceHook uint64
}

// probeEntry is one installed host-side probe (see AddProbe).
type probeEntry struct {
	fn    func()
	every uint64 // probe period in executed events
	until uint64 // events left until the next firing
}

// NewEngine returns an engine with the clock at cycle 0 and no events.
func NewEngine() *Engine {
	e := &Engine{}
	e.rearmHooks()
	return e
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events waiting to run.
func (e *Engine) Pending() int { return e.pending }

// Steps reports the total number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// LastSeq reports the sequence number of the last event pending for
// cycle t, or 0 when t has none or lies outside the near window
// [now, now+ringWindow). A component that reads it right after
// scheduling an event for t can later tell whether that event is still
// the last one at t: work it appends behind the event then runs exactly
// where an event of its own, scheduled now, would.
func (e *Engine) LastSeq(t Cycle) uint64 {
	if t < e.now || t-e.now >= ringWindow {
		return 0
	}
	b := &e.ring[t&(ringWindow-1)]
	if b.at != t || b.head == len(b.events) {
		return 0
	}
	return b.events[len(b.events)-1].seq
}

// Schedule runs fn after delay cycles (delay 0 runs it later in the
// current cycle, after all previously scheduled same-cycle events).
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at absolute cycle t. Scheduling in the past panics: it is
// always a component bug, never a recoverable condition.
func (e *Engine) At(t Cycle, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.pending++
	if t-e.now < ringWindow {
		i := t & (ringWindow - 1)
		b := &e.ring[i]
		// The window is exactly ringWindow cycles wide, so each bucket
		// can hold at most one distinct cycle's events at a time.
		b.at = t
		b.events = append(b.events, event{at: t, seq: e.seq, fn: fn})
		e.occ[i>>6] |= 1 << (i & 63)
		return
	}
	e.farPush(event{at: t, seq: e.seq, fn: fn})
}

// nextRing returns the ring bucket holding the earliest pending near
// event, or nil when the ring is empty. All ring events lie in
// [now, now+ringWindow), so the scan walks the occupancy words
// cyclically from now's bucket index: the first set bit it meets is
// the earliest cycle.
func (e *Engine) nextRing() *bucket {
	if e.occ[0]|e.occ[1]|e.occ[2]|e.occ[3] == 0 {
		return nil
	}
	r := uint(e.now & (ringWindow - 1))
	w := r >> 6
	if m := e.occ[w] &^ (1<<(r&63) - 1); m != 0 {
		return &e.ring[w<<6+uint(bits.TrailingZeros64(m))]
	}
	for k := uint(1); k <= occWords; k++ {
		ww := (w + k) & (occWords - 1)
		m := e.occ[ww]
		if ww == w {
			m &= 1<<(r&63) - 1 // wrapped: only bits before now's slot
		}
		if m != 0 {
			return &e.ring[ww<<6+uint(bits.TrailingZeros64(m))]
		}
	}
	return nil
}

// PeekNext reports the timestamp of the earliest pending event. ok is
// false when no events are pending; the engine never inspects an empty
// queue, making "peek on empty" a state every caller must handle rather
// than a panic.
func (e *Engine) PeekNext() (Cycle, bool) {
	if e.pending == 0 {
		return 0, false
	}
	b := e.nextRing()
	if b == nil {
		return e.far[0].at, true
	}
	if len(e.far) > 0 && e.far[0].at <= b.at {
		return e.far[0].at, true
	}
	return b.at, true
}

// AddProbe installs a host-side hook that Step calls once every
// `every` executed events (every < 1 is treated as 1). Unlike an
// engine event, a probe never advances the clock and schedules
// nothing, so installing one cannot perturb simulated timing — this is
// what the deadlock watchdog, the invariant checker, and context
// cancellation hang off. A probe may panic (with a typed value) to
// unwind the in-progress Run through all nested component callbacks;
// the runner that owns the simulation recovers it at the boundary.
// Probes fire in installation order.
func (e *Engine) AddProbe(every uint64, fn func()) {
	if every < 1 {
		every = 1
	}
	e.settleHooks()
	e.probes = append(e.probes, probeEntry{fn: fn, every: every, until: every})
	e.rearmHooks()
}

// tick runs the per-executed-event host hooks: the probes, in
// installation order. Step calls it before popping an event; Run's
// batched drain calls it once per event it executes, so probe cadence
// is identical on both paths. The merged untilHook countdown makes the
// common nothing-due event one decrement and one branch instead of a
// walk over every installed probe.
func (e *Engine) tick() {
	e.untilHook--
	if e.untilHook == 0 {
		e.slowTick()
	}
}

// slowTick fires the due probes and recomputes the merged countdown.
func (e *Engine) slowTick() {
	fired := e.sinceHook + 1
	// Degenerate re-arm first: a probe may panic (watchdog, invariant
	// checker, cancellation), skipping rearmHooks below. Per-event
	// ticking is then still correct should the engine keep running.
	e.untilHook = 1
	e.sinceHook = 0
	for i := range e.probes {
		p := &e.probes[i]
		p.until -= fired
		if p.until == 0 {
			p.until = p.every
			p.fn()
		}
	}
	e.rearmHooks()
}

// rearmHooks recomputes the merged countdown to the earliest due probe.
// With no probes installed it re-arms to a large stride so tick stays a
// single decrement; sinceHook carries the elapsed events forward so
// probe cadence is exact across re-arms.
func (e *Engine) rearmHooks() {
	next := uint64(1) << 32
	for i := range e.probes {
		if u := e.probes[i].until; u < next {
			next = u
		}
	}
	e.untilHook = next
	e.sinceHook = next - 1
}

// settleHooks charges the events elapsed since the last re-arm to every
// probe's counter, so a probe installed mid-stride starts its period
// from the current event rather than the stride boundary. No counter
// can reach zero here: the elapsed count is strictly less than the
// stride, which is the minimum of all counters at re-arm time.
func (e *Engine) settleHooks() {
	elapsed := e.sinceHook + 1 - e.untilHook
	if elapsed == 0 {
		return
	}
	for i := range e.probes {
		e.probes[i].until -= elapsed
	}
}

// Step executes the single earliest pending event.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	e.tick()
	if e.pending == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.steps++
	e.pending--
	ev.fn()
	return true
}

// pop removes and returns the earliest pending event. At equal
// timestamps the far heap drains before the ring bucket: its events
// were pushed while the cycle was still outside the window, i.e. with
// strictly smaller seq (see the package comment).
func (e *Engine) pop() event {
	b := e.nextRing()
	if b == nil || (len(e.far) > 0 && e.far[0].at <= b.at) {
		return e.farPop()
	}
	ev := b.events[b.head]
	b.events[b.head].fn = nil // release the closure promptly
	b.head++
	if b.head == len(b.events) {
		b.head = 0
		b.events = b.events[:0]
		i := b.at & (ringWindow - 1)
		e.occ[i>>6] &^= 1 << (i & 63)
	}
	return ev
}

// --- far heap: a hand-rolled binary min-heap ordered by (at, seq) ---

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) farPush(ev event) {
	h := append(e.far, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.far = h
}

func (e *Engine) farPop() event {
	h := e.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n].fn = nil // release the closure promptly
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && eventLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	e.far = h
	return top
}

// Run executes events until none remain.
//
// Run drains the earliest ring bucket in one batch instead of paying
// the occupancy-set rotation in nextRing for every event: once the
// earliest bucket is located and no far event is due at or before its
// cycle, none can become due mid-drain (pre-existing far events are
// strictly later, and a far push from inside the drain lands at least
// ringWindow cycles out), so the whole FIFO — including same-cycle
// events appended during the drain — executes with one cheap
// head/len check per event. Probe cadence, event order, and panic-time
// engine state are identical to repeated Step calls.
func (e *Engine) Run() {
	for e.pending > 0 {
		b := e.nextRing()
		if b == nil || (len(e.far) > 0 && e.far[0].at <= b.at) {
			e.Step() // a far event is due first: take the slow path
			continue
		}
		for b.head < len(b.events) {
			e.tick()
			ev := b.events[b.head]
			b.events[b.head].fn = nil // release the closure promptly
			b.head++
			if b.head == len(b.events) {
				b.head = 0
				b.events = b.events[:0]
				i := b.at & (ringWindow - 1)
				e.occ[i>>6] &^= 1 << (i & 63)
			}
			e.now = ev.at
			e.steps++
			e.pending--
			ev.fn()
		}
	}
	// The equivalent Step loop ends with one empty call that still runs
	// the probes; keep that visible cadence.
	e.tick()
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t if it has not already passed it.
func (e *Engine) RunUntil(t Cycle) {
	for {
		at, ok := e.PeekNext()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d cycles past the current time. It is a
// test hook: only tests call it.
func (e *Engine) RunFor(d Cycle) { e.RunUntil(e.now + d) }
