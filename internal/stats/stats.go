// Package stats provides the small statistics toolkit behind the
// evaluation harness: percentiles over per-unit measurements (Table 3's
// 50th·90th·100th format), cumulative distributions (Figures 8b and 9),
// and simple aggregation helpers.
//
// Two kinds of instruments live here with different concurrency rules:
//
//   - Sample (this file) collects observations after the fact and is NOT
//     safe for concurrent use; the harness aggregates per-unit results
//     into Samples only once a run has completed.
//   - Counter and HighWater (metrics.go) are lock-free atomics written
//     from many goroutines while work is in progress: the parse-table
//     cache's hit counters and the harness's units-in-flight mark.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Sample is a collection of observations.
type Sample struct {
	values []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddInt appends an integer observation.
func (s *Sample) AddInt(v int) { s.Add(float64(v)) }

// AddDuration appends a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank method;
// Percentile(1) is the maximum.
func (s *Sample) Percentile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	if q <= 0 {
		return s.values[0]
	}
	idx := int(q * float64(len(s.values)))
	if idx >= len(s.values) {
		idx = len(s.values) - 1
	}
	return s.values[idx]
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	total := 0.0
	for _, v := range s.values {
		total += v
	}
	return total
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.values))
}

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(1) }

// Table3Row renders the paper's Table 3 percentile format:
// "50th · 90th · 100th" across compilation units.
func (s *Sample) Table3Row() string {
	return fmt.Sprintf("%s · %s · %s",
		compact(s.Percentile(0.5)), compact(s.Percentile(0.9)), compact(s.Percentile(1)))
}

// compact renders a count the way the paper does: "34k" beyond 10,000.
func compact(v float64) string {
	if v >= 10000 {
		return fmt.Sprintf("%.0fk", v/1000)
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    float64
	Fraction float64 // fraction of observations ≤ Value
}

// CDF returns up to points evenly spaced cumulative-distribution samples.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.values) == 0 || points <= 0 {
		return nil
	}
	s.sort()
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		frac := float64(i) / float64(points)
		idx := int(frac*float64(len(s.values))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s.values) {
			idx = len(s.values) - 1
		}
		out = append(out, CDFPoint{Value: s.values[idx], Fraction: frac})
	}
	return out
}

// RenderCDF prints a textual CDF table with a header, matching the
// harness's figure output style.
func RenderCDF(name string, s *Sample, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", name, s.Len())
	fmt.Fprintf(&b, "%10s  %8s\n", "fraction", "value")
	for _, pt := range s.CDF(points) {
		fmt.Fprintf(&b, "%9.0f%%  %8.3g\n", pt.Fraction*100, pt.Value)
	}
	return b.String()
}

// Histogram folds per-iteration count histograms (map[count]iterations)
// into a Sample weighted by iterations.
func Histogram(h map[int]int) *Sample {
	s := &Sample{}
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		for i := 0; i < h[k]; i++ {
			s.AddInt(k)
		}
	}
	return s
}
