package main

import (
	"sort"
	"sync"
	"time"

	"filtermap"
	"filtermap/internal/engine"
)

// tracer keeps the spans of a traced run in memory. Spans are recorded
// in the benchmark's own code around each call into a layer's public
// functions; a span's parent is the span that caused it. A nil *tracer
// records nothing, so untraced code paths call the same methods.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int // index+1 of the parent span; 0 for a root
	start, end time.Time
}

// begin opens a span under parent (0 for a root) and returns its handle.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans)
}

// finish closes the span with handle h.
func (t *tracer) finish(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[h-1].end = now
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func() error) error {
	h := t.begin(name, parent)
	defer t.finish(h)
	return fn()
}

// durations lists the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, s.end.Sub(s.start))
		}
	}
	return out
}

// totalMs sums the durations of the spans named name, in milliseconds.
func (t *tracer) totalMs(name string) float64 {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return ms(sum)
}

// unattributedShare is the mean, over the spans named root, of the share
// of each root's duration that no direct child span accepted by
// attributed covers: the time spent outside every engine stage and
// traced layer call (glue, sorting, scheduling). Overlapping children
// count once.
func (t *tracer) unattributedShare(root string, attributed func(name string) bool) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 && !s.end.IsZero() && attributed(s.name) {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var shares []float64
	for i, s := range t.spans {
		if s.name != root || s.end.IsZero() {
			continue
		}
		d := s.end.Sub(s.start)
		if d <= 0 {
			continue
		}
		shares = append(shares, 1-float64(unionLength(children[i+1]))/float64(d))
	}
	return mean(shares)
}

// unionLength is the total length of the union of the spans' intervals.
func unionLength(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, s := range spans {
		if i == 0 || s.start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = s.start, s.end
			continue
		}
		if s.end.After(curEnd) {
			curEnd = s.end
		}
	}
	return total + curEnd.Sub(curStart)
}

// stageRecorder is an engine observer keeping every finished item's
// latency per pooled stage ("scan", "validate", "measure", ...), so a
// traced run reads exact percentiles instead of the engine's power-of-two
// histogram bounds. A nil *stageRecorder installs no observer.
type stageRecorder struct {
	mu  sync.Mutex
	lat map[string][]time.Duration
	// open maps each stage seen since the last drain to the wall interval
	// from its first item start to its last item end.
	open map[string]*span
}

func newStageRecorder() *stageRecorder {
	return &stageRecorder{lat: make(map[string][]time.Duration), open: make(map[string]*span)}
}

// options returns the engine options that feed the recorder.
func (r *stageRecorder) options() []filtermap.Option {
	if r == nil {
		return nil
	}
	return []filtermap.Option{filtermap.WithObserver(filtermap.ObserverFunc(r.observe))}
}

func (r *stageRecorder) observe(ev filtermap.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.open[ev.Stage]
	if sp == nil {
		sp = &span{name: "stage." + ev.Stage, start: now}
		r.open[ev.Stage] = sp
	}
	sp.end = now
	if ev.Kind == engine.EventDone || ev.Kind == engine.EventFail {
		r.lat[ev.Stage] = append(r.lat[ev.Stage], ev.Elapsed)
	}
}

// drainInto adds the wall interval of every stage seen since the last
// drain to tr as a "stage.<name>" span under parent, then forgets them.
func (r *stageRecorder) drainInto(tr *tracer, parent int) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	open := r.open
	r.open = make(map[string]*span)
	r.mu.Unlock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, sp := range open {
		sp.parent = parent
		tr.spans = append(tr.spans, *sp)
	}
}

// count is the number of finished items of stage.
func (r *stageRecorder) count(stage string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat[stage])
}

// pctUs is the nearest-rank percentile p of stage's item latencies in
// microseconds.
func (r *stageRecorder) pctUs(stage string, p float64) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	ds := r.lat[stage]
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = us(d)
	}
	r.mu.Unlock()
	return percentile(vs, p)
}

// sumMs is the summed item latency of stage in milliseconds (busy time
// across the pool's workers, not wall time).
func (r *stageRecorder) sumMs(stage string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for _, d := range r.lat[stage] {
		sum += d
	}
	return ms(sum)
}
