package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// files around a public entry point. Times are nanoseconds since the
// tracer's epoch. Parent is 0 for a root span; Trace groups the spans of
// one operation (a figure pass, a scenario, an HTTP request).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// tracing off: Begin returns an inert handle and End does nothing, so the
// untraced measurement path pays one pointer check per call.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Handle is an open span.
type Handle struct {
	t     *Tracer
	span  Span
	start time.Time
}

// Begin opens a span; parent is the enclosing span's ID (0 for a root)
// and trace the operation it belongs to.
func (t *Tracer) Begin(layer, name string, parent, trace int64) Handle {
	if t == nil {
		return Handle{}
	}
	now := time.Now()
	return Handle{t: t, start: now, span: Span{
		ID: t.ids.Add(1), Parent: parent, Trace: trace,
		Layer: layer, Name: name, Start: int64(now.Sub(t.epoch)),
	}}
}

// ID is the span's identifier, for use as a child's parent (0 when off).
func (h Handle) ID() int64 { return h.span.ID }

// End closes the span and returns its duration.
func (h Handle) End() time.Duration {
	if h.t == nil {
		return 0
	}
	now := time.Now()
	h.span.End = int64(now.Sub(h.t.epoch))
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.span)
	h.t.mu.Unlock()
	return now.Sub(h.start)
}

// Record adds an already-timed span, for intervals measured on another
// goroutine (an HTTP handler) and joined to their parent afterwards.
func (t *Tracer) Record(layer, name string, parent, trace int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := Span{
		ID: t.ids.Add(1), Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes the spans one JSON object per line.
func writeSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// calls under one parent) are merged first, so covered time is never
// counted twice, and a child running past its parent's end is clipped.
func SelfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// LayerRow is one line of the self-time table.
type LayerRow struct {
	Layer   string
	Spans   int
	TotalNS int64
	SelfNS  int64
}

// LayerTable folds span self times into one row per layer, in layer order.
func LayerTable(spans []Span, layers []string) []LayerRow {
	self := SelfTimes(spans)
	rows := make(map[string]*LayerRow, len(layers))
	for _, l := range layers {
		rows[l] = &LayerRow{Layer: l}
	}
	for _, s := range spans {
		r := rows[s.Layer]
		if r == nil {
			continue
		}
		r.Spans++
		r.TotalNS += s.Dur()
		r.SelfNS += self[s.ID]
	}
	out := make([]LayerRow, len(layers))
	for i, l := range layers {
		out[i] = *rows[l]
	}
	return out
}

// printLayerTable writes the human-readable self-time table.
func printLayerTable(w io.Writer, rows []LayerRow) {
	var all int64
	for _, r := range rows {
		all += r.SelfNS
	}
	fmt.Fprintf(w, "%-10s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.SelfNS) / float64(all)
		}
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f %6.1f%%\n",
			r.Layer, r.Spans, float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6, share)
	}
}
