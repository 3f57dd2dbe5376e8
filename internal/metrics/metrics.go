// Package metrics is a dependency-free, low-overhead metrics registry for
// the live observability layer: atomic counters and gauges, fixed-bucket
// log-scale histograms, and a Prometheus text-exposition writer
// (prometheus.go) — everything the introspection endpoint serves without
// pulling a client library into the module.
//
// Instruments are plain atomics, so updating one from the engine's driving
// goroutine while an HTTP scrape reads it is race-free and costs one atomic
// RMW per update. Values are int64 throughout; producers pick the unit and
// encode it in the metric name (`_us` for microsecond durations, `_total`
// for monotone counters, `_permille` for scaled fractions — see
// docs/OBSERVABILITY.md for the naming conventions).
//
// The registry hands out get-or-create instruments keyed by (name, labels)
// and renders them in registration order, so exposition output is stable
// run to run — the property the CI well-formedness check and the
// determinism matrix lean on.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be >= 0 for the exposition to
// stay Prometheus-legal; the registry does not police it).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: bucket i counts observations v
// with v <= bounds[i] (and > bounds[i-1]); one implicit +Inf bucket catches
// the rest. Observations and reads are lock-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
}

// DurationBounds are the default log2-scale bounds for microsecond
// durations: 1µs, 2µs, 4µs, ... 2^35µs (~34s), then +Inf. 36 buckets
// resolve any latency to within a factor of two — coarse enough to stay
// tiny, fine enough for p50/p90/p99 tail reporting.
var DurationBounds = pow2Bounds(36)

// pow2Bounds returns n ascending power-of-two bucket bounds: 1, 2, 4, ...,
// 2^(n-1).
func pow2Bounds(n int) []int64 {
	b := make([]int64, n)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// NewHistogram returns a histogram over the given ascending bucket bounds
// (a +Inf bucket is implicit). It panics on empty or unsorted bounds —
// instrument construction is programmer-controlled, not data-driven.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %d <= %d", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket (non-cumulative)
// counts, the +Inf bucket last. A concurrent Observe may land between
// bucket loads; each individual count is still exact.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed values
// by linear interpolation within the covering bucket — accurate to the
// bucket's width, i.e. within a factor of two on the default log2 bounds.
// Values in the +Inf bucket report the largest finite bound. Returns 0
// when nothing was observed.
func (h *Histogram) Quantile(q float64) int64 {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(counts)-1 {
			if i >= len(h.bounds) {
				// +Inf bucket: no finite upper bound to interpolate to.
				return h.bounds[len(h.bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name=value pair attached to a metric series.
type Label struct{ Key, Value string }

// metricKind is the exposition type of a metric family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (labels → instrument) binding inside a family.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry is a set of named metric families. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	names []string
	fams  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter returns the counter named name with the given labels, creating it
// on first use. Reusing a name with a different kind panics (a wiring bug,
// not a runtime condition).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.seriesFor(name, help, kindCounter, labels)
	return s.c
}

// Gauge returns the gauge named name with the given labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.seriesFor(name, help, kindGauge, labels)
	return s.g
}

// Histogram returns the histogram named name with the given labels and
// bucket bounds, creating it on first use (later calls may pass nil bounds;
// the first call's bounds win).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kindHistogram)
	key := renderLabels(labels)
	if s, ok := f.byKey[key]; ok {
		return s.h
	}
	if bounds == nil {
		bounds = DurationBounds
	}
	s := &series{labels: key, h: NewHistogram(bounds)}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s.h
}

func (r *Registry) seriesFor(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	key := renderLabels(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

func (r *Registry) familyLocked(name, help string, kind metricKind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
	r.fams[name] = f
	r.names = append(r.names, name)
	return f
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name is a legal Prometheus label name.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels renders a sorted, escaped {k="v",...} string — the series
// key and the exposition form. Empty label sets render as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Key))
		}
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return out + "}"
}

func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
