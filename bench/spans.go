package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Spans of one cell or request share Req;
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     string `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record appends a span from start to end and returns its ID.
func (t *tracer) record(parent int, req, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(),
		EndNS:   end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
