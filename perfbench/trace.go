package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// trial or request share a Trace id; Parent is the ID of the span that
// caused this one within the same trace (0 for a root).
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps every finished trace in memory until the run ends. A nil
// *Recorder records nothing, so the untraced paths share the code.
type Recorder struct {
	t0     time.Time
	mu     sync.Mutex
	traces [][]Span
}

// NewRecorder starts a recorder; span times are offsets from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Trace is the span list of one trial or request. It is owned by one
// goroutine until Finish hands it to the recorder.
type Trace struct {
	rec   *Recorder
	id    uint64
	spans []Span
}

// Start opens a trace with the given id (nil for a nil recorder).
func (r *Recorder) Start(id uint64) *Trace {
	if r == nil {
		return nil
	}
	return &Trace{rec: r, id: id}
}

// Begin opens a span under parent and returns its ID (0 on a nil trace).
func (t *Trace) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Trace: t.id, ID: id, Parent: parent, Name: name, Start: time.Since(t.rec.t0)})
	return id
}

// End closes span id.
func (t *Trace) End(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.rec.t0)
}

// Add records a span whose bounds the caller measured itself, such as
// the gap between two events read off a stream.
func (t *Trace) Add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Trace: t.id, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.rec.t0), End: end.Sub(t.rec.t0)})
	return id
}

// Finish hands the trace to the recorder.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.rec.mu.Lock()
	t.rec.traces = append(t.rec.traces, t.spans)
	t.rec.mu.Unlock()
}

// Spans returns every recorded span, ordered by trace and span ID.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, tr := range r.traces {
		out = append(out, tr...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSONL writes every span as one JSON object per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time keyed by (trace, ID): its
// duration minus the part of its interval that its children cover.
// Overlapping children (concurrent calls under one parent) count once.
func selfTimes(spans []Span) map[[2]uint64]time.Duration {
	type key = [2]uint64
	children := make(map[key][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, uint64(s.Parent)}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[key]time.Duration, len(spans))
	for _, s := range spans {
		k := key{s.Trace, uint64(s.ID)}
		out[k] = s.Dur() - covered(s, children[k])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// byName groups spans by name.
func byName(spans []Span) map[string][]Span {
	out := make(map[string][]Span)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// durations returns the spans' durations in the given unit.
func durations(spans []Span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / float64(unit)
	}
	return out
}
