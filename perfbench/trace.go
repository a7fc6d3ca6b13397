package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one end-to-end operation
// share a request id; Parent links a span to the span that caused it (0 for
// a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int, req string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(r.spans)
}

// End closes the span with the given id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// SetReq sets the request id of an open span, for a request whose id is
// known only once it was sent.
func (r *Recorder) SetReq(id int, req string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Req = req
	r.mu.Unlock()
}

// Add records a span that was timed elsewhere.
func (r *Recorder) Add(name string, parent int, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	return len(r.spans)
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON writes the closed spans as one JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its children. Children may run concurrently on
// several goroutines: their intervals are merged before subtracting, so
// overlap is not subtracted twice, and a child's time outside its parent
// is ignored.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
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
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// LayerBudget sums self time by span name and reports the share of the
// root spans' time that no named layer accounts for: the self time of the
// spans named root.
type LayerBudget struct {
	// Self is the summed self time per span name, in nanoseconds.
	Self map[string]int64
	// RootTotal is the summed duration of the root spans.
	RootTotal int64
	// Unattributed is the roots' own self time over RootTotal.
	Unattributed float64
}

// Budget computes the layer budget of spans whose roots are named root.
func Budget(spans []Span, root string) LayerBudget {
	self := SelfTimes(spans)
	lb := LayerBudget{Self: make(map[string]int64)}
	var rootSelf int64
	for _, s := range spans {
		lb.Self[s.Name] += self[s.ID]
		if s.Name == root && s.Parent == 0 {
			lb.RootTotal += s.Dur()
			rootSelf += self[s.ID]
		}
	}
	if lb.RootTotal > 0 {
		lb.Unattributed = float64(rootSelf) / float64(lb.RootTotal)
	}
	return lb
}

// Durations returns the durations, in nanoseconds, of the spans named
// name.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}
