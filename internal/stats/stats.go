// Package stats provides the measurement primitives: concurrent
// histograms with percentile queries and CDF extraction (the paper's
// Figure 7b), and the counter that internal/obs registers.
package stats

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a concurrency-safe log-bucketed histogram of non-negative
// microsecond values. Buckets grow geometrically, giving ~4% relative error
// across nine decades, which is ample for latency distributions.
type Histogram struct {
	mu      sync.Mutex
	counts  []uint64
	total   uint64
	sum     float64
	minimum int64
	maximum int64
}

const (
	histBucketsPerDecade = 64
	histMaxValue         = int64(1) << 40 // ~12 days in µs; more than enough
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	n := bucketIndex(histMaxValue) + 2
	return &Histogram{
		counts:  make([]uint64, n),
		minimum: math.MaxInt64,
	}
}

func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	// log-scale bucket: index = floor(log2(v) * histBucketsPerDecade / log2(10))
	lg := math.Log2(float64(v))
	idx := int(lg*histBucketsPerDecade/math.Log2(10)) + 1
	return idx
}

func bucketLowerBound(idx int) int64 {
	if idx <= 0 {
		return 0
	}
	return int64(math.Pow(2, float64(idx-1)*math.Log2(10)/histBucketsPerDecade))
}

// Record adds a single observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > histMaxValue {
		v = histMaxValue
	}
	idx := bucketIndex(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
	h.sum += float64(v)
	if v < h.minimum {
		h.minimum = v
	}
	if v > h.maximum {
		h.maximum = v
	}
}

// RecordDuration adds a duration observation in microseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Microseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.minimum
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maximum
}

// Percentile returns an approximation of the p-th percentile (0 < p <= 100),
// or 0 if the histogram is empty.
func (h *Histogram) Percentile(p float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.minimum
	}
	if p >= 100 {
		return h.maximum
	}
	rank := uint64(math.Ceil(float64(h.total) * p / 100))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lb := bucketLowerBound(i)
			if lb < h.minimum {
				lb = h.minimum
			}
			if lb > h.maximum {
				lb = h.maximum
			}
			return lb
		}
	}
	return h.maximum
}

// CDFPoint is a single (value, cumulative fraction) sample of a CDF.
type CDFPoint struct {
	Value    int64   // observation value (µs)
	Fraction float64 // cumulative probability in (0, 1]
}

// CDF extracts up to maxPoints evenly spaced points of the empirical CDF.
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		lb := bucketLowerBound(i)
		if lb < h.minimum {
			lb = h.minimum
		}
		if lb > h.maximum {
			lb = h.maximum
		}
		pts = append(pts, CDFPoint{Value: lb, Fraction: float64(cum) / float64(h.total)})
	}
	if maxPoints > 0 && len(pts) > maxPoints {
		out := make([]CDFPoint, 0, maxPoints)
		step := float64(len(pts)) / float64(maxPoints)
		for i := 0; i < maxPoints; i++ {
			out = append(out, pts[int(float64(i)*step)])
		}
		out[len(out)-1] = pts[len(pts)-1]
		pts = out
	}
	return pts
}

// Counter is a concurrency-safe monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// FormatMicros renders a microsecond quantity as a human-friendly string.
func FormatMicros(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
