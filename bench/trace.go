package main

import (
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of one traced phase in memory until the phase
// ends. Spans are recorded by the benchmark around its own calls into each
// layer; nothing inside the program is instrumented. A nil *tracer records
// nothing, so the untraced path runs the same code with tracing off.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end. parent is another
// span's handle or -1.
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: now, end: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were timed elsewhere.
func (t *tracer) add(name string, parent, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.snapshot() {
		if s.name == name {
			out = append(out, s.duration())
		}
	}
	return out
}

// layers are the layer boundaries the benchmark records spans at, in
// stack order. Every traced run reports each one's share of self time.
var layers = []string{"client", "runner", "experiment", "core", "ga", "session", "service", "ws", "obs", "jobstore", "league"}

// layerShares returns each layer's self time as a share of the total
// duration of the root spans, so the shares sum to one.
func (t *tracer) layerShares() map[string]float64 {
	spans := t.snapshot()
	self := selfTimes(spans)
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		if s.parent < 0 {
			total += s.duration()
		}
		layer, _, _ := strings.Cut(s.name, ".")
		byLayer[layer] += self[i]
	}
	out := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			out[l] = byLayer[l].Seconds() / total.Seconds()
		}
	}
	return out
}

// coverage returns the share of each lane's active time — from its first
// root span's start to its last one's end — that root spans cover. Time a
// lane spends between traced calls is what it misses.
func (t *tracer) coverage() float64 {
	type window struct{ lo, hi, busy time.Duration }
	lanes := map[int]*window{}
	for _, s := range t.snapshot() {
		if s.parent >= 0 {
			continue
		}
		w := lanes[s.lane]
		if w == nil {
			w = &window{lo: s.start, hi: s.end}
			lanes[s.lane] = w
		}
		w.lo, w.hi = min(w.lo, s.start), max(w.hi, s.end)
		w.busy += s.duration()
	}
	var busy, active time.Duration
	for _, w := range lanes {
		busy += w.busy
		active += w.hi - w.lo
	}
	if active <= 0 {
		return 0
	}
	return busy.Seconds() / active.Seconds()
}
