// Package trace is the simulator's opt-in observability layer: typed
// per-component event tracing plus windowed time-series metrics,
// collected into a Timeline that exports as Chrome/Perfetto
// trace_event JSON.
//
// The design contract is timing neutrality. Every component holds a
// *Sink (and a few *Series); both types are nil-receiver-safe, so with
// tracing disabled an emit site costs one nil check and zero
// allocations, and every simulated metric is bit-identical to a run
// without the instrumentation (enforced by TestGoldenTraceNeutral).
// With tracing enabled, each event is varint-encoded into a growing
// spill at the emit site; nothing is staged and nothing is dropped.
// Emitting never schedules events or advances the clock, so tracing on
// is also metric-neutral — it only spends host time and memory.
package trace

import "encoding/binary"

// Kind classifies a trace event.
type Kind uint8

const (
	// KAccessBegin/KAccessEnd bracket an outstanding access (an MSHR
	// lifetime); Arg is the line address and pairs begin with end.
	KAccessBegin Kind = iota
	KAccessEnd
	// KMiss marks a demand miss; Arg is the line address.
	KMiss
	// KFill marks a fill response landing; Arg is the line address.
	KFill
	// KWriteback marks a dirty line leaving a component; Arg is the
	// line address.
	KWriteback
	// KFlitHop marks a message traversing the mesh; Arg packs
	// src<<32|dst node, Arg2 is flits*hops.
	KFlitHop
	// KPacket marks a coherence packet injection; Arg is the packet
	// type ordinal, Arg2 the line address.
	KPacket
	// KWarpStall/KWarpResume bracket a warp blocked on global memory;
	// Arg is a per-warp id stable across the pair.
	KWarpStall
	KWarpResume
	// KDMABegin/KDMAEnd bracket one DMA transfer; Arg is the transfer
	// id, Arg2 (on begin) the transfer's line count.
	KDMABegin
	KDMAEnd
	// KAddMap marks a stash-map entry allocation; Arg is the map index.
	KAddMap
	numKinds
)

var kindNames = [numKinds]string{
	KAccessBegin: "access",
	KAccessEnd:   "access",
	KMiss:        "miss",
	KFill:        "fill",
	KWriteback:   "writeback",
	KFlitHop:     "flit",
	KPacket:      "packet",
	KWarpStall:   "stall",
	KWarpResume:  "stall",
	KDMABegin:    "dma",
	KDMAEnd:      "dma",
	KAddMap:      "addmap",
}

// String returns the event-kind name used in exported traces.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded trace record (see Timeline.Events).
type Event struct {
	Cycle uint64
	Kind  Kind
	Track uint16
	Arg   uint64
	Arg2  uint64
}

// Phase is a host-annotated span (kernel, CPU phase, verify flush).
type Phase struct {
	Name  string `json:"name"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Options configures a Collector. Zero fields take defaults.
type Options struct {
	// BucketCycles is the time-series window width (default 1024).
	BucketCycles uint64
}

func (o Options) withDefaults() Options {
	if o.BucketCycles == 0 {
		o.BucketCycles = 1024
	}
	return o
}

// Series is one windowed time-series: event counts (or gauge samples)
// per BucketCycles-wide window. A nil *Series is valid and inert, so
// components update them unconditionally on hot paths.
type Series struct {
	name   string
	bucket uint64
	gauge  bool
	vals   []uint64
}

// Add accumulates n into the bucket containing cycle.
func (s *Series) Add(cycle, n uint64) {
	if s == nil {
		return
	}
	i := cycle / s.bucket
	for uint64(len(s.vals)) <= i {
		s.vals = append(s.vals, 0)
	}
	s.vals[i] += n
}

// Set records a gauge sample; the last sample in a bucket wins.
func (s *Series) Set(cycle, v uint64) {
	if s == nil {
		return
	}
	i := cycle / s.bucket
	for uint64(len(s.vals)) <= i {
		s.vals = append(s.vals, 0)
	}
	s.vals[i] = v
}

// Sink is a per-component event emitter. A nil *Sink is valid and
// inert: every method returns immediately, which is the entire
// disabled-path cost of an instrumented call site.
type Sink struct {
	c     *Collector
	track uint16
}

// Event appends one trace event to the collector's spill.
//
// It stays out of line so that every emit site costs the inliner one
// call. Inlined, its body pushed small hot wrappers that emit, such as
// gpu's traceStall and noc's TracePacket, over the inlining budget, and
// untraced Fig. 6 runs measured 4% slower.
//
//go:noinline
func (s *Sink) Event(cycle uint64, k Kind, arg, arg2 uint64) {
	if s == nil {
		return
	}
	s.c.encode(Event{Cycle: cycle, Kind: k, Track: s.track, Arg: arg, Arg2: arg2})
}

// Series returns the counter series <track>.<name>, creating it on
// first use. Returns nil on a nil sink.
func (s *Sink) Series(name string) *Series {
	if s == nil {
		return nil
	}
	return s.c.series(s.c.tracks[s.track]+"."+name, false)
}

// Gauge returns the gauge series <track>.<name>, creating it on first
// use. Returns nil on a nil sink.
func (s *Sink) Gauge(name string) *Series {
	if s == nil {
		return nil
	}
	return s.c.series(s.c.tracks[s.track]+"."+name, true)
}

// Name returns the sink's track name.
func (s *Sink) Name() string {
	if s == nil {
		return ""
	}
	return s.c.tracks[s.track]
}

// Collector owns the encoded event spill, the time-series registry,
// and the phase list for one simulated system. It is not safe for
// concurrent use; each sweep cell builds its own.
type Collector struct {
	opts   Options
	tracks []string

	enc     []byte // varint event spill, cycles delta-encoded
	nEvents int
	lastCyc uint64

	seriesByName map[string]*Series
	seriesOrder  []*Series

	phases []Phase
	open   []int // indices of phases awaiting PhaseEnd (a stack)
}

// NewCollector builds a collector.
func NewCollector(opts Options) *Collector {
	return &Collector{
		opts:         opts.withDefaults(),
		seriesByName: make(map[string]*Series),
	}
}

// Sink registers a new track and returns its emitter. Tracks must be
// registered before the simulation runs (registration order is the
// export order).
func (c *Collector) Sink(track string) *Sink {
	c.tracks = append(c.tracks, track)
	return &Sink{c: c, track: uint16(len(c.tracks) - 1)}
}

// SeriesByName returns the named counter series, creating it on first
// use. Safe on a nil collector. It is a test hook: components get their
// series through their Sink, and only tests call it.
func (c *Collector) SeriesByName(name string) *Series {
	if c == nil {
		return nil
	}
	return c.series(name, false)
}

func (c *Collector) series(name string, gauge bool) *Series {
	if s, ok := c.seriesByName[name]; ok {
		return s
	}
	s := &Series{name: name, bucket: c.opts.BucketCycles, gauge: gauge}
	c.seriesByName[name] = s
	c.seriesOrder = append(c.seriesOrder, s)
	return s
}

// maxEventBytes bounds one encoded event: four varints and a kind byte.
const maxEventBytes = 4*binary.MaxVarintLen64 + 1

// encode appends one event to the spill. Cycles are delta-encoded:
// events are encoded in emission order and the engine clock never
// moves backwards, so the delta is always non-negative.
func (c *Collector) encode(ev Event) {
	var buf [maxEventBytes]byte
	n := binary.PutUvarint(buf[:], ev.Cycle-c.lastCyc)
	c.lastCyc = ev.Cycle
	buf[n] = byte(ev.Kind)
	n++
	n += binary.PutUvarint(buf[n:], uint64(ev.Track))
	n += binary.PutUvarint(buf[n:], ev.Arg)
	n += binary.PutUvarint(buf[n:], ev.Arg2)
	c.enc = append(c.enc, buf[:n]...)
	c.nEvents++
}

// PhaseBegin opens a host-annotated span. Safe on a nil collector.
func (c *Collector) PhaseBegin(name string, cycle uint64) {
	if c == nil {
		return
	}
	c.phases = append(c.phases, Phase{Name: name, Start: cycle, End: cycle})
	c.open = append(c.open, len(c.phases)-1)
}

// PhaseEnd closes the most recently opened span. Safe on a nil
// collector.
func (c *Collector) PhaseEnd(cycle uint64) {
	if c == nil || len(c.open) == 0 {
		return
	}
	i := c.open[len(c.open)-1]
	c.open = c.open[:len(c.open)-1]
	c.phases[i].End = cycle
}

// Finish closes any phases left open at endCycle (a crashed cell exits
// mid-phase) and returns the completed Timeline. The collector keeps no
// references to the returned data and must not be used afterwards.
func (c *Collector) Finish(endCycle uint64) *Timeline {
	for len(c.open) > 0 {
		c.PhaseEnd(endCycle)
	}
	tl := &Timeline{
		BucketCycles: c.opts.BucketCycles,
		EndCycle:     endCycle,
		Tracks:       c.tracks,
		Phases:       c.phases,
		Series:       make([]SeriesData, 0, len(c.seriesOrder)),
		NEvents:      c.nEvents,
		enc:          c.enc,
	}
	for _, s := range c.seriesOrder {
		tl.Series = append(tl.Series, SeriesData{
			Name: s.name, Bucket: s.bucket, Gauge: s.gauge, Vals: s.vals,
		})
	}
	return tl
}

// SeriesData is one exported time-series.
type SeriesData struct {
	Name   string   `json:"name"`
	Bucket uint64   `json:"bucket"`
	Gauge  bool     `json:"gauge,omitempty"`
	Vals   []uint64 `json:"vals"`
}

// Timeline is the completed trace of one run: the event spill plus the
// track, phase, and time-series tables needed to export it.
type Timeline struct {
	BucketCycles uint64
	EndCycle     uint64
	Tracks       []string
	Phases       []Phase
	Series       []SeriesData
	NEvents      int
	enc          []byte
}

// NumEvents reports how many events the timeline holds.
func (t *Timeline) NumEvents() int { return t.NEvents }

// numBuckets is how many time-series windows cover [0, EndCycle],
// including the final partial bucket. Always at least one, so a run
// shorter than one bucket still exports a window.
func (t *Timeline) numBuckets() uint64 {
	if t.BucketCycles == 0 {
		return 1
	}
	return t.EndCycle/t.BucketCycles + 1
}

// Events decodes the full event spill. It allocates; exports and tests
// only.
func (t *Timeline) Events() []Event {
	out := make([]Event, 0, t.NEvents)
	t.forEachEvent(func(ev Event) { out = append(out, ev) })
	return out
}

func (t *Timeline) forEachEvent(fn func(Event)) {
	p := t.enc
	var cyc uint64
	for i := 0; i < t.NEvents; i++ {
		d, n := binary.Uvarint(p)
		p = p[n:]
		cyc += d
		k := Kind(p[0])
		p = p[1:]
		tr, n := binary.Uvarint(p)
		p = p[n:]
		arg, n := binary.Uvarint(p)
		p = p[n:]
		arg2, n := binary.Uvarint(p)
		p = p[n:]
		fn(Event{Cycle: cyc, Kind: k, Track: uint16(tr), Arg: arg, Arg2: arg2})
	}
}
