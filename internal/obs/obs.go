// Package obs is the repository's dependency-free observability core:
// atomic counters and fixed-bucket histograms collected behind a
// pluggable Recorder, and a Span phase timer started from a Scope (a
// Recorder together with a request's Tracer).
//
// The design optimizes for the disabled case. Nop is the default
// Recorder: it hands out nil *Counter / nil *Histogram, a disabled
// Scope hands out no-op Spans, and every instrument method is
// nil-safe — so a hot path that was instrumented with a pre-resolved
// counter pays exactly one nil-check per event when recording is off,
// no interface call, no allocation, no time.Now. Instrumented packages
// resolve their instruments once (at Analysis construction, say) and
// hold the pointers:
//
//	examined := rec.Counter("core.jumps_examined") // nil under Nop
//	...
//	examined.Add(1) // one predictable branch when disabled
//
// Registry is the collecting implementation. All instruments are safe
// for concurrent use (atomics; the name→instrument maps take a mutex
// only at resolution time), so one Registry can be shared across a
// worker pool and its totals are independent of scheduling order —
// counter sums and histogram merges commute. Snapshot renders the
// state deterministically (instruments sorted by name) for JSON dumps
// and cross-run comparison.
//
// # Histogram bucket scheme
//
// Every Histogram has the same NumBuckets (48) fixed buckets over
// int64 observations, with power-of-two boundaries:
//
//	bucket 0               values v <= 0
//	bucket i (1..46)       2^(i-1) <= v < 2^i
//	bucket 47 (overflow)   values v >= 2^46, unbounded
//
// Fixed buckets make Observe two atomic adds with no allocation, and
// make merging across recorders element-wise addition. For
// UnitNanoseconds histograms bucket 46's upper bound (2^46 ns) is
// about 20 hours; for UnitCount histograms it is far beyond any node
// set this repository produces, so the overflow bucket is empty in
// practice — but it is still unbounded, and exported snapshots say
// so: each Bucket carries its explicit inclusive upper bound Le
// (BucketUpperBound), with the overflow bucket reporting
// math.MaxInt64, which consumers (the Prometheus renderer) present as
// +Inf rather than inventing a bound the bucket does not have.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Unit tags what a histogram's observed values measure, so consumers
// of a Snapshot can tell wall-clock instruments (nondeterministic
// across runs) from structural ones (deterministic).
type Unit string

const (
	// UnitNanoseconds marks duration histograms (Span targets).
	UnitNanoseconds Unit = "ns"
	// UnitCount marks size/count histograms (closure sizes, etc.).
	UnitCount Unit = "count"
)

// Counter is a monotonically increasing atomic counter. The nil
// counter is a valid no-op: Add and Value on nil cost one nil-check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level — resident cache bytes, entry
// counts — that, unlike a Counter, can go down. The nil gauge is a
// valid no-op: Add, Set and Value on nil cost one nil-check.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease). No-op on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set replaces the gauge's level. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the fixed bucket count of every histogram: power-of-
// two buckets covering 1..2^46 (for nanoseconds, ~20 hours; for
// counts, far beyond any node set), plus bucket 0 for values <= 0 and
// a final unbounded overflow bucket. See the package comment for the
// full scheme.
const NumBuckets = 48

// numBuckets is the internal alias predating the exported constant.
const numBuckets = NumBuckets

// Histogram is a fixed-bucket histogram over int64 observations with
// power-of-two bucket boundaries: bucket 0 counts values <= 0, bucket
// i >= 1 counts values v with 2^(i-1) <= v < 2^i, and the last bucket
// absorbs everything larger. Fixed buckets mean Observe is two atomic
// adds and no allocation, and merging across recorders is element-wise
// addition. The nil histogram is a valid no-op.
type Histogram struct {
	unit    Unit
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 2^(b-1) <= v < 2^b
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Span times one phase. Obtain it from Scope.StartSpan and call End
// when the phase finishes; the elapsed nanoseconds are recorded into
// the named duration histogram and, when a tracer is attached,
// published as a span event (and teed into the tracer's SpanLog). A
// Span of a disabled Scope is a no-op whose End neither reads the
// clock nor records.
type Span struct {
	h     *Histogram
	t     *Tracer
	name  string
	start time.Time
}

// End stops the span, records its duration on every attached sink,
// and returns it. On a no-op span it returns 0 without touching the
// clock.
func (s Span) End() time.Duration {
	if s.h == nil && s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(int64(d))
	s.t.publishSpan(s.name, s.start, int64(d))
	return d
}

// Scope is the one instrumentation handle an instrumented pipeline
// carries: the metrics recorder its instruments resolve from and the
// request's tracer. A nil Rec means Nop and a nil Tr means no
// tracing, so the zero Scope is the disabled one.
type Scope struct {
	Rec Recorder
	Tr  *Tracer
}

// StartSpan starts one phase span whose End feeds the duration
// histogram of the same name, the flight recorder and the tracer's
// span log. With both sinks disabled it reads no clock and allocates
// nothing.
func (s Scope) StartSpan(name string) Span {
	sp := Span{t: s.Tr, name: name}
	if s.Rec != nil {
		sp.h = s.Rec.Histogram(name, UnitNanoseconds)
	}
	if sp.h != nil || sp.t != nil {
		sp.start = time.Now()
	}
	return sp
}

// Recorder hands out named instruments. Implementations: *Registry
// (collecting) and Nop (disabled; returns nil instruments, which every
// instrument method accepts).
type Recorder interface {
	// Counter returns the named counter, creating it on first use.
	Counter(name string) *Counter
	// Gauge returns the named gauge, creating it on first use.
	Gauge(name string) *Gauge
	// Histogram returns the named histogram with the given unit,
	// creating it on first use. The unit is fixed at creation.
	Histogram(name string, unit Unit) *Histogram
}

// Nop is the default Recorder: records nothing, allocates nothing.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Counter(string) *Counter           { return nil }
func (nopRecorder) Gauge(string) *Gauge               { return nil }
func (nopRecorder) Histogram(string, Unit) *Histogram { return nil }

// OrNop returns r, or Nop when r is nil — the normalization every
// instrumented constructor applies to its recorder argument.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// Registry is the collecting Recorder. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty collecting Recorder.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it with the given
// unit on first use (later units are ignored; the first wins).
func (r *Registry) Histogram(name string, unit Unit) *Histogram {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{unit: unit}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// CounterSnapshot is one counter's state in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's state in a Snapshot.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one nonzero histogram bucket with its explicit inclusive
// upper bound: 0 for the <= 0 bucket, 2^i - 1 for interior bucket i,
// and math.MaxInt64 (meaning +Inf — the bucket is unbounded) for the
// overflow bucket. Snapshots carry the bound itself rather than
// leaving it implied by bucket index, so consumers need no knowledge
// of the bucket scheme to render ranges.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state in a Snapshot. For
// UnitNanoseconds histograms Sum and Buckets carry wall-clock values
// and are nondeterministic across runs; Count is structural.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Unit    Unit     `json:"unit"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time, deterministically ordered copy of a
// Registry's state, ready for JSON encoding.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// BucketUpperBound returns bucket i's inclusive upper bound: 0 for
// the <= 0 bucket, 2^i - 1 for interior buckets, and math.MaxInt64
// (+Inf; the bucket is unbounded) for the final overflow bucket.
func BucketUpperBound(i int) int64 {
	switch {
	case i == 0:
		return 0
	case i >= NumBuckets-1:
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Snapshot copies the registry's current state, instruments sorted by
// name so equal states encode to equal bytes.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make([]CounterSnapshot, 0, len(r.counters)),
		Histograms: make([]HistogramSnapshot, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for name, h := range r.hists {
		hs := HistogramSnapshot{Name: name, Unit: h.unit, Count: h.count.Load(), Sum: h.sum.Load()}
		for i := 0; i < numBuckets; i++ {
			if n := h.buckets[i].Load(); n != 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: BucketUpperBound(i), Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Scrub zeroes the wall-clock content of every UnitNanoseconds
// histogram in place — Sum and per-bucket placements — while keeping
// the structural observation Count. It also folds the analysis
// cache's cache.hits and cache.coalesced counters into a single
// cache.reused counter: the two outcomes both mean "an analysis was
// not rebuilt", and how reuses split between them depends on whether
// the second request arrived during or after the first's build — pure
// scheduling. The fold keeps the deterministic total. Finally it
// drops every instrument under the "runtime.", "http.", "spool.",
// "cluster." and "disk." prefixes entirely — runtime-health samples
// (goroutine counts, heap sizes, GC pause counts), request-serving
// telemetry, the durable spool's rotation/drop accounting, and the
// cluster and disk tiers depend on the machine, the scheduler, disk
// speed, peer timing, and the sampling clock, so even their
// observation counts are nondeterministic. Two runs of the same
// deterministic workload produce byte-identical scrubbed snapshots at
// any parallelism; cmd/slicebench's determinism test relies on this.
func (s *Snapshot) Scrub() *Snapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Unit == UnitNanoseconds {
			s.Histograms[i].Sum = 0
			s.Histograms[i].Buckets = nil
		}
	}
	var reused int64
	fold := false
	kc := s.Counters[:0]
	for _, c := range s.Counters {
		if scrubbedName(c.Name) {
			continue
		}
		if c.Name == "cache.hits" || c.Name == "cache.coalesced" {
			reused += c.Value
			fold = true
			continue
		}
		kc = append(kc, c)
	}
	if fold {
		kc = append(kc, CounterSnapshot{Name: "cache.reused", Value: reused})
		sort.Slice(kc, func(i, j int) bool { return kc[i].Name < kc[j].Name })
	}
	s.Counters = kc
	kg := s.Gauges[:0]
	for _, g := range s.Gauges {
		if !scrubbedName(g.Name) {
			kg = append(kg, g)
		}
	}
	s.Gauges = kg
	kh := s.Histograms[:0]
	for _, h := range s.Histograms {
		if !scrubbedName(h.Name) {
			kh = append(kh, h)
		}
	}
	s.Histograms = kh
	return s
}

// scrubbedName reports whether an instrument is scheduling- or
// environment-dependent in its entirety and must not survive Scrub.
// spool.* instruments count: segment rotation and queue drops depend
// on disk speed and batching timing, not on the analysis under test.
func scrubbedName(name string) bool {
	return strings.HasPrefix(name, "runtime.") ||
		strings.HasPrefix(name, "http.") ||
		strings.HasPrefix(name, "spool.") ||
		strings.HasPrefix(name, "cluster.") ||
		strings.HasPrefix(name, "disk.")
}
