package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one request (a scenario or a daemon submission) share Req; Parent
// is the id of the span that caused this one (0 for a request's root). Per
// step and per poll spans are far too many to keep one by one, so the replay
// folds them into one aggregated span per request with Count calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Total  int64  `json:"total_ns,omitempty"`
}

// recorder collects the spans of one goroutine; recorders are merged when the
// traced pass ends, so recording never takes a lock.
type recorder struct {
	epoch time.Time
	spans []span
	// total is the summed duration per layer; child the part of each layer's
	// intervals covered by its child spans (self = total - child).
	total map[string]time.Duration
	child map[string]time.Duration
	calls map[string]int64
	dist  map[string]*sampler
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{
		epoch: epoch,
		total: map[string]time.Duration{},
		child: map[string]time.Duration{},
		calls: map[string]int64{},
		dist:  map[string]*sampler{},
	}
}

// open is a started span; close it with end.
type open struct {
	r     *recorder
	id    int
	name  string
	req   string
	pid   int
	pname string
	t0    time.Time
}

// start opens a span of layer name for request req under parent (nil for a
// request root).
func (r *recorder) start(req, name string, parent *open) *open {
	o := &open{r: r, id: len(r.spans) + 1, name: name, req: req, t0: time.Now()}
	// Reserve the id now so children opened before end get higher ids.
	r.spans = append(r.spans, span{})
	if parent != nil {
		o.pid, o.pname = parent.id, parent.name
	}
	return o
}

// end closes the span.
func (o *open) end() {
	t1 := time.Now()
	r := o.r
	r.spans[o.id-1] = span{
		ID: o.id, Parent: o.pid, Req: o.req, Name: o.name,
		Start: int64(o.t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch)),
	}
	r.add(o.name, o.pname, t1.Sub(o.t0))
}

// add books d to layer name (and to its parent layer's covered time).
func (r *recorder) add(name, parent string, d time.Duration) {
	r.total[name] += d
	r.calls[name]++
	if parent != "" {
		r.child[parent] += d
	}
}

// agg is a per-request aggregate of many short spans of one layer (engine
// steps, stabilization polls): count, total and a sampled distribution.
type agg struct {
	name   string
	parent *open
	count  int64
	total  time.Duration
	t0     time.Time
	dist   *sampler
}

// aggregate opens an aggregated span of layer name under parent.
func (r *recorder) aggregate(name string, parent *open) *agg {
	s := r.dist[name]
	if s == nil {
		s = newSampler()
		r.dist[name] = s
	}
	return &agg{name: name, parent: parent, t0: time.Now(), dist: s}
}

// observe books one call of d.
func (a *agg) observe(d time.Duration) {
	a.count++
	a.total += d
	a.dist.add(float64(d))
}

// flush writes the aggregate as one span and books it to its layer.
func (a *agg) flush() {
	if a.count == 0 {
		return
	}
	r := a.parent.r
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: a.parent.id, Req: a.parent.req, Name: a.name,
		Start: int64(a.t0.Sub(r.epoch)), End: int64(time.Since(r.epoch)),
		Count: a.count, Total: int64(a.total),
	})
	r.total[a.name] += a.total
	r.calls[a.name] += a.count
	r.child[a.parent.name] += a.total
}

// merge folds other into r (other's span ids are renumbered).
func (r *recorder) merge(other *recorder) {
	off := len(r.spans)
	for _, s := range other.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
	for k, v := range other.total {
		r.total[k] += v
	}
	for k, v := range other.child {
		r.child[k] += v
	}
	for k, v := range other.calls {
		r.calls[k] += v
	}
	for k, v := range other.dist {
		if r.dist[k] == nil {
			r.dist[k] = newSampler()
		}
		r.dist[k].vals = append(r.dist[k].vals, v.vals...)
	}
}

// self returns the layer's self time: its span time minus its child spans.
func (r *recorder) self(name string) time.Duration { return r.total[name] - r.child[name] }

// writeSpans writes every kept span as one JSON line to path.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if r.spans[i].ID == 0 {
			continue // opened but never closed (a failed request)
		}
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// samplerCap bounds a sampler's memory; past it the sampler keeps every
// other value and doubles its stride, so a 10^7-step run keeps a uniform
// deterministic sample of at most samplerCap values.
const samplerCap = 1 << 16

// sampler keeps a count-strided sample of a stream of durations.
type sampler struct {
	vals   []float64
	stride int
	skip   int
}

func newSampler() *sampler { return &sampler{stride: 1} }

func (s *sampler) add(v float64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	s.vals = append(s.vals, v)
	s.skip = s.stride - 1
	if len(s.vals) == samplerCap {
		for i := 0; i < samplerCap/2; i++ {
			s.vals[i] = s.vals[2*i]
		}
		s.vals = s.vals[:samplerCap/2]
		s.stride *= 2
		s.skip = s.stride - 1
	}
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(vals, 50).
func median(vals []float64) float64 { return percentile(vals, 50) }
