package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Point is one retained sample of a series.
type Point struct {
	Cycle int64
	Value int64
}

// Histogram is a log2-bucketed value histogram: bucket i counts values v
// with bits.Len64(v) == i, i.e. bucket 0 holds zeros, bucket 1 holds 1,
// bucket 2 holds 2..3, bucket 3 holds 4..7, and so on.
type Histogram struct {
	Buckets [65]uint64
}

// Add counts one value.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.Buckets[bits.Len64(uint64(v))]++
}

// BucketRange returns the [lo, hi] value range of bucket i.
func (h *Histogram) BucketRange(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// String renders the non-empty buckets compactly.
func (h *Histogram) String() string {
	var parts []string
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := h.BucketRange(i)
		if lo == hi {
			parts = append(parts, fmt.Sprintf("%d:%d", lo, n))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d:%d", lo, hi, n))
		}
	}
	if parts == nil {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// Series is one sampled metric: a bounded time series (downsampled in place
// as it fills), an occupancy histogram, and running aggregates. Like its
// Sampler it belongs to one simulation goroutine; read it after the run.
type Series struct {
	Name string
	Hist Histogram

	fn       func() int64
	pts      []Point
	interval int64 // current retention interval (doubles on downsample)

	last, max, sum, count int64
}

// Points returns the retained samples oldest-first.
func (s *Series) Points() []Point { return s.pts }

// Last, Max, Mean and Count report the running aggregates.
func (s *Series) Last() int64  { return s.last }
func (s *Series) Max() int64   { return s.max }
func (s *Series) Count() int64 { return s.count }
func (s *Series) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

func (s *Series) record(cycle, v int64) {
	s.Hist.Add(v)
	s.last = v
	s.max = max(s.max, v)
	s.sum += v
	s.count++
	if len(s.pts) == cap(s.pts) {
		// Ring full: halve resolution (keep every other point) so a long
		// run retains full-span coverage in bounded memory.
		half := s.pts[:0]
		for i := 0; i < len(s.pts); i += 2 {
			half = append(half, s.pts[i])
		}
		s.pts = half
	}
	s.pts = append(s.pts, Point{Cycle: cycle, Value: v})
}

// Sampler drives a set of Series at a fixed cycle interval. Components call
// Sample once per stepped cycle behind a nil check; Sample returns
// immediately until the next due cycle. Registration must finish before the
// run starts; sampling itself is single-goroutine (pair a Sampler with one
// stepping loop).
type Sampler struct {
	// Interval is the sampling period in cycles.
	Interval int64

	next   int64
	series []*Series
}

// DefaultSampleInterval balances resolution against sampling cost.
const DefaultSampleInterval = 256

// maxPoints bounds each series' retained time series (~1MB per series at
// the default; downsampling keeps whole-run coverage).
const maxPoints = 1 << 15

// NewSampler builds a sampler (interval <= 0 selects the default).
func NewSampler(interval int64) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{Interval: interval}
}

// Register adds a metric source. fn is called at every sample point from
// the owning simulation goroutine.
func (s *Sampler) Register(name string, fn func() int64) *Series {
	sr := &Series{Name: name, fn: fn, pts: make([]Point, 0, maxPoints)}
	s.series = append(s.series, sr)
	return sr
}

// Sample records one sample of every series when due. Clock-warped runs
// call it only on stepped cycles, so warped gaps appear as gaps in the
// retained series — which is exactly the warp-engagement signal.
func (s *Sampler) Sample(cycle int64) {
	if cycle < s.next {
		return
	}
	s.next = cycle + s.Interval
	for _, sr := range s.series {
		sr.record(cycle, sr.fn())
	}
}

// Series returns the registered series sorted by name.
func (s *Sampler) Series() []*Series {
	out := append([]*Series(nil), s.series...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Summary renders per-series aggregates and histograms.
func (s *Sampler) Summary() string {
	var b strings.Builder
	for _, sr := range s.Series() {
		fmt.Fprintf(&b, "%-22s samples %-8d last %-6d mean %-8.2f max %-6d hist %s\n",
			sr.Name, sr.Count(), sr.Last(), sr.Mean(), sr.Max(), sr.Hist.String())
	}
	return b.String()
}
