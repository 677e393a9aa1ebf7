package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestSeriesBucketAtCycleZero(t *testing.T) {
	c := NewCollector(Options{BucketCycles: 100})
	s := c.SeriesByName("x")
	s.Add(0, 1)
	s.Add(99, 2)
	s.Add(100, 5)
	tl := c.Finish(100)
	if got := tl.Series[0].Vals; !reflect.DeepEqual(got, []uint64{3, 5}) {
		t.Fatalf("vals = %v, want [3 5]", got)
	}
}

func TestSeriesFinalPartialBucket(t *testing.T) {
	c := NewCollector(Options{BucketCycles: 100})
	s := c.SeriesByName("x")
	s.Add(250, 7)
	tl := c.Finish(250)
	if nb := tl.numBuckets(); nb != 3 {
		t.Fatalf("numBuckets = %d, want 3 (two full + final partial)", nb)
	}
	if got := tl.Series[0].Vals; !reflect.DeepEqual(got, []uint64{0, 0, 7}) {
		t.Fatalf("vals = %v, want [0 0 7]", got)
	}
}

func TestSeriesBucketLargerThanRun(t *testing.T) {
	c := NewCollector(Options{BucketCycles: 1 << 20})
	s := c.SeriesByName("x")
	s.Add(42, 1)
	tl := c.Finish(250)
	if nb := tl.numBuckets(); nb != 1 {
		t.Fatalf("numBuckets = %d, want 1", nb)
	}
	if got := tl.Series[0].Vals; !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("vals = %v, want [1]", got)
	}
}

func TestGaugeLastSampleWins(t *testing.T) {
	c := NewCollector(Options{BucketCycles: 100})
	g := c.Sink("comp").Gauge("occ")
	g.Set(10, 3)
	g.Set(90, 8)
	g.Set(150, 2)
	tl := c.Finish(200)
	if got := tl.Series[0].Vals; !reflect.DeepEqual(got, []uint64{8, 2}) {
		t.Fatalf("vals = %v, want [8 2]", got)
	}
	if !tl.Series[0].Gauge {
		t.Fatal("series not marked as gauge")
	}
}

// TestSpillRoundTrip emits from two sinks, including 64-bit cycles and
// args, and requires Events to decode every event, in emission order,
// from the varint spill.
func TestSpillRoundTrip(t *testing.T) {
	c := NewCollector(Options{})
	l1, noc := c.Sink("l1.gpu0"), c.Sink("noc")
	want := []Event{
		{Cycle: 0, Kind: KMiss, Track: 0, Arg: 0x1000},
		{Cycle: 0, Kind: KFlitHop, Track: 1, Arg: 3<<32 | 9, Arg2: 42},
		{Cycle: 7, Kind: KAccessBegin, Track: 0, Arg: 0x1000},
		{Cycle: 1 << 40, Kind: KAccessEnd, Track: 0, Arg: 0x1000},
		{Cycle: 1<<63 + 5, Kind: KPacket, Track: 1, Arg: math.MaxUint64, Arg2: 1 << 63},
	}
	for _, ev := range want {
		[]*Sink{l1, noc}[ev.Track].Event(ev.Cycle, ev.Kind, ev.Arg, ev.Arg2)
	}
	tl := c.Finish(1<<63 + 5)
	if tl.NumEvents() != len(want) {
		t.Fatalf("NumEvents = %d, want %d", tl.NumEvents(), len(want))
	}
	if got := tl.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(tl.Tracks, []string{"l1.gpu0", "noc"}) {
		t.Fatalf("tracks = %v", tl.Tracks)
	}
}

func TestPhasesCloseAtFinish(t *testing.T) {
	c := NewCollector(Options{})
	c.PhaseBegin("kernel", 10)
	c.PhaseEnd(50)
	c.PhaseBegin("cpu-phase", 60) // left open: a crashed cell
	tl := c.Finish(80)
	want := []Phase{{"kernel", 10, 50}, {"cpu-phase", 60, 80}}
	if !reflect.DeepEqual(tl.Phases, want) {
		t.Fatalf("phases = %+v, want %+v", tl.Phases, want)
	}
}

// TestChromeExportShape validates the trace_event JSON against the
// format's structural requirements: a traceEvents array whose entries
// all carry ph/pid/ts (or are metadata), with one thread_name metadata
// record per track plus one for the phase track.
func TestChromeExportShape(t *testing.T) {
	c := NewCollector(Options{BucketCycles: 50})
	snk := c.Sink("l1.gpu0")
	snk.Event(5, KMiss, 0x40, 0)
	snk.Event(10, KAccessBegin, 0x40, 0)
	snk.Event(30, KAccessEnd, 0x40, 0)
	snk.Series("misses").Add(5, 1)
	c.PhaseBegin("kernel", 0)
	c.PhaseEnd(40)
	tl := c.Finish(40)

	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	meta, counters, spans := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event missing ph: %v", ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		switch ph {
		case "M":
			meta++
		case "C":
			counters++
		case "X", "b", "e", "i":
			spans++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("event missing ts: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase type %q", ph)
		}
	}
	if meta != 2 { // "phases" + "l1.gpu0"
		t.Fatalf("thread_name metadata count = %d, want 2", meta)
	}
	if spans != 4 { // phase X + miss i + access b/e
		t.Fatalf("span/instant count = %d, want 4", spans)
	}
	if counters != 1 { // one 50-cycle bucket covers EndCycle 40
		t.Fatalf("counter sample count = %d, want 1", counters)
	}
}

// TestEmitNoAlloc pins the enabled-path emit cost: encoding an event
// into a spill with room for it, or bumping a series bucket in warmed
// storage, never allocates. The spill is grown first for every call
// AllocsPerRun makes (one warm-up plus the runs), so a growth append
// cannot hide in its integer division.
func TestEmitNoAlloc(t *testing.T) {
	const runs = 100
	c := NewCollector(Options{})
	c.enc = make([]byte, 0, (runs+1)*maxEventBytes)
	snk := c.Sink("comp")
	sr := snk.Series("misses")
	sr.Add(0, 1) // warm bucket 0
	if n := testing.AllocsPerRun(runs, func() {
		snk.Event(1, KMiss, 2, 3)
		sr.Add(1, 1)
	}); n != 0 {
		t.Fatalf("emit allocates %v allocs/op, want 0", n)
	}
}

// TestNilSinkNoAllocNoPanic pins the disabled path: every method on a
// nil sink, series, and collector is an allocation-free no-op.
func TestNilSinkNoAllocNoPanic(t *testing.T) {
	var snk *Sink
	var sr *Series
	var col *Collector
	if n := testing.AllocsPerRun(100, func() {
		snk.Event(1, KMiss, 2, 3)
		sr.Add(1, 1)
		sr.Set(1, 1)
		col.PhaseBegin("x", 0)
		col.PhaseEnd(1)
		_ = col.SeriesByName("x")
	}); n != 0 {
		t.Fatalf("nil-path allocates %v allocs/op, want 0", n)
	}
	if snk.Series("x") != nil || snk.Gauge("x") != nil || snk.Name() != "" {
		t.Fatal("nil sink must return zero values")
	}
}
