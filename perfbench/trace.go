package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/obs"
)

// tracer records spans from the benchmark's own wrappers around each
// layer's public entry points. Spans are kept in memory and written as
// JSON Lines when the run ends. A nil *tracer records nothing, and the
// untraced run never installs the wrappers at all.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// ambient is the parent for spans opened by code the benchmark
	// cannot hand a context to (wrapper loads inside the mediator and
	// the reloader). Only one author or editor goroutine sets it.
	ambient atomic.Pointer[spanCtx]
	// on gates recording: the traced run enables it only for its
	// traced half.
	on atomic.Bool

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Times are nanoseconds since the
// tracer's start. Trace is the ID shared by every span of one request,
// edit or build; Parent is 0 for a root.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (r spanRec) dur() int64 { return r.End - r.Start }

// spanCtx identifies an open span for its children.
type spanCtx struct{ id, trace int64 }

// span is an open span; end records it.
type span struct {
	t     *tracer
	name  string
	sc    spanCtx
	par   int64
	start time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// begin opens a span under parent (nil parent = a new trace). It
// returns nil when tracing is off.
func (t *tracer) begin(name string, parent *spanCtx) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	id := t.nextID.Add(1)
	s := &span{t: t, name: name, sc: spanCtx{id: id, trace: id}, start: time.Now()}
	if parent != nil {
		s.par, s.sc.trace = parent.id, parent.trace
	}
	return s
}

// beginCtx opens a span whose parent is the span carried by ctx.
func (t *tracer) beginCtx(ctx context.Context, name string) *span {
	if t == nil {
		return nil
	}
	p, _ := ctx.Value(spanKey{}).(*spanCtx)
	return t.begin(name, p)
}

// beginAmbient opens a span under the current ambient parent.
func (t *tracer) beginAmbient(name string) *span {
	if t == nil {
		return nil
	}
	return t.begin(name, t.ambient.Load())
}

func (s *span) ctx() *spanCtx {
	if s == nil {
		return nil
	}
	return &s.sc
}

// with returns ctx carrying s as the parent of spans opened from it.
func (s *span) with(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, &s.sc)
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.t
	rec := spanRec{ID: s.sc.id, Parent: s.par, Trace: s.sc.trace, Name: s.name,
		Start: int64(s.start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// asAmbient makes s the ambient parent until the returned func runs.
func (s *span) asAmbient() func() {
	if s == nil {
		return func() {}
	}
	prev := s.t.ambient.Swap(&s.sc)
	return func() { s.t.ambient.Store(prev) }
}

// snapshot returns every finished span.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeJSONL dumps every finished span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.snapshot() {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers the questions the per-layer metrics ask of a trace:
// durations by name, children by parent, and self time (a span's
// duration minus the union of its children's intervals).
type spanIndex struct {
	byID     map[int64]spanRec
	byName   map[string][]spanRec
	children map[int64][]spanRec
}

func indexSpans(spans []spanRec) *spanIndex {
	ix := &spanIndex{byID: map[int64]spanRec{}, byName: map[string][]spanRec{},
		children: map[int64][]spanRec{}}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// self returns s's duration minus the part covered by its children,
// clipped to s's own interval.
func (ix *spanIndex) self(s spanRec) int64 {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, curA, curB := int64(0), int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			covered += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	covered += curB - curA
	return s.dur() - covered
}

// durMS returns the durations (ms) of every span with the name.
func (ix *spanIndex) durMS(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

// selfMS returns the self times (ms) of every span with the name.
func (ix *spanIndex) selfMS(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(ix.self(s))/1e6)
	}
	return out
}

// breakdown splits the mean duration of the root spans with the given
// name into the mean self time of every span name below them. What no
// layer span claims is the roots' own self time (benchmark glue).
// Parallel children (hedges) may claim more than their share.
func (ix *spanIndex) breakdown(root string) (meanMS float64, parts map[string]float64, n int) {
	parts = map[string]float64{}
	var walk func(id int64)
	walk = func(id int64) {
		for _, k := range ix.children[id] {
			parts[k.Name] += float64(ix.self(k)) / 1e6
			walk(k.ID)
		}
	}
	for _, r := range ix.byName[root] {
		meanMS += float64(r.dur()) / 1e6
		walk(r.ID)
		n++
	}
	if n == 0 {
		return 0, parts, 0
	}
	for k := range parts {
		parts[k] /= float64(n)
	}
	return meanMS / float64(n), parts, n
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// record adds a finished span with explicit times: the client side of
// a request starts when it was due, not when code first saw it.
func (t *tracer) record(name string, id, parent, trace int64, start, end time.Time) {
	rec := spanRec{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// obsMark holds counter values at the start of the traced phase, so
// counts and ratios from the obs sinks cover that phase only.
type obsMark map[*obs.Counter]int64

func markCounters(cs ...*obs.Counter) obsMark {
	m := obsMark{}
	for _, c := range cs {
		m[c] = c.Load()
	}
	return m
}

// since returns how much c grew after the mark.
func (m obsMark) since(c *obs.Counter) float64 { return float64(c.Load() - m[c]) }
