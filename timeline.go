package stash

import (
	"encoding/json"
	"fmt"
	"io"

	"stash/internal/trace"
)

// TraceConfig enables the opt-in event-tracing and time-series
// subsystem for a run. When Config.Trace is nil (the default) every
// emit site in the simulator is a nil-check no-op: timing, energy and
// all counters are bit-identical to an untraced run and the hot paths
// allocate nothing. When set, the run's Result carries a Timeline.
type TraceConfig struct {
	// BucketCycles is the time-series window width in cycles. Zero
	// selects the default of 1024.
	BucketCycles uint64 `json:"bucket_cycles,omitempty"`
}

// maxTraceBucket bounds the time-series window width; a wider window
// than this holds fewer than one bucket per run at any plausible
// length and is a mis-specification.
const maxTraceBucket = 1 << 32

func (t *TraceConfig) validate() error {
	if t == nil {
		return nil
	}
	if t.BucketCycles > maxTraceBucket {
		return fmt.Errorf("stash: invalid Trace.BucketCycles %d: want at most %d", t.BucketCycles, uint64(maxTraceBucket))
	}
	return nil
}

func (t *TraceConfig) internal() *trace.Options {
	if t == nil {
		return nil
	}
	return &trace.Options{BucketCycles: t.BucketCycles}
}

// Timeline is the completed trace of one run: typed component events,
// host-annotated phases, and per-bucket time-series. It is attached to
// Result.Timeline when the run's Config.Trace was set — including, for
// failed or canceled runs, the partial timeline up to the failure, so
// a crashed cell can still be visualized.
type Timeline struct {
	tl *trace.Timeline
}

// WriteChrome writes the timeline in Chrome/Perfetto trace_event JSON
// (load it at https://ui.perfetto.dev or chrome://tracing). Each
// component is one named track; phases span the top row; time-series
// render as counter tracks. One simulated cycle maps to 1 µs.
func (t *Timeline) WriteChrome(w io.Writer) error { return t.tl.WriteChrome(w) }

// NumEvents reports how many events the timeline holds.
func (t *Timeline) NumEvents() int { return t.tl.NumEvents() }

// EndCycle is the simulated time the timeline covers.
func (t *Timeline) EndCycle() uint64 { return t.tl.EndCycle }

// BucketCycles is the time-series window width in cycles.
func (t *Timeline) BucketCycles() uint64 { return t.tl.BucketCycles }

// Tracks lists the component tracks in display order.
func (t *Timeline) Tracks() []string { return t.tl.Tracks }

// TracePhase is one host-annotated span (kernel, cpu-phase, flush).
type TracePhase struct {
	Name  string `json:"name"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Phases lists the run's kernel/CPU-phase/flush spans in launch order.
func (t *Timeline) Phases() []TracePhase {
	out := make([]TracePhase, 0, len(t.tl.Phases))
	for _, p := range t.tl.Phases {
		out = append(out, TracePhase{Name: p.Name, Start: p.Start, End: p.End})
	}
	return out
}

// SeriesNames lists the time-series in registration order; names are
// track-qualified (e.g. "l1.gpu0.misses", "noc.link.5.+x.flits").
func (t *Timeline) SeriesNames() []string {
	out := make([]string, 0, len(t.tl.Series))
	for _, s := range t.tl.Series {
		out = append(out, s.Name)
	}
	return out
}

// Series returns the named time-series' per-bucket values, or false if
// no such series was recorded. Bucket i covers cycles
// [i*BucketCycles, (i+1)*BucketCycles).
func (t *Timeline) Series(name string) ([]uint64, bool) {
	for _, s := range t.tl.Series {
		if s.Name == name {
			return s.Vals, true
		}
	}
	return nil, false
}

// timelineSummary is the JSON shape of a Timeline: sweep outputs embed
// the summary, not the event payload (write that with WriteChrome).
type timelineSummary struct {
	Events       int      `json:"events"`
	EndCycle     uint64   `json:"end_cycle"`
	BucketCycles uint64   `json:"bucket_cycles"`
	Tracks       int      `json:"tracks"`
	Series       int      `json:"series"`
	Phases       []string `json:"phases,omitempty"`
}

// MarshalJSON encodes a compact summary (event/track/series counts and
// phase names), not the full event payload.
func (t *Timeline) MarshalJSON() ([]byte, error) {
	s := timelineSummary{
		Events:       t.tl.NumEvents(),
		EndCycle:     t.tl.EndCycle,
		BucketCycles: t.tl.BucketCycles,
		Tracks:       len(t.tl.Tracks),
		Series:       len(t.tl.Series),
	}
	for _, p := range t.tl.Phases {
		s.Phases = append(s.Phases, p.Name)
	}
	return json.Marshal(s)
}
