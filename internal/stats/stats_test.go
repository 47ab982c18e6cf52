package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Percentile(50) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
	if h.CDF(10) != nil {
		t.Error("empty histogram CDF should be nil")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if h.Mean() != 1000 {
		t.Errorf("Mean = %f, want 1000", h.Mean())
	}
	if h.Min() != 1000 || h.Max() != 1000 {
		t.Errorf("Min/Max = %d/%d, want 1000/1000", h.Min(), h.Max())
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 1000 {
			t.Errorf("Percentile(%v) = %d, want 1000", p, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-50)
	if h.Min() != 0 {
		t.Errorf("negative value should clamp to 0, Min = %d", h.Min())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	// Uniform [0, 100000): p50 should be near 50000 within bucket error.
	for i := 0; i < 100000; i++ {
		h.Record(int64(rng.Intn(100000)))
	}
	p50 := float64(h.Percentile(50))
	if p50 < 45000 || p50 > 55000 {
		t.Errorf("p50 = %f, want ~50000", p50)
	}
	p99 := float64(h.Percentile(99))
	if p99 < 94000 || p99 > 100000 {
		t.Errorf("p99 = %f, want ~99000", p99)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for p := 1.0; p <= 100; p += 7 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDFMonotoneAndComplete(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Record(int64(rng.Intn(1_000_000)))
	}
	cdf := h.CDF(50)
	if len(cdf) == 0 {
		t.Fatal("CDF should not be empty")
	}
	prevV, prevF := int64(-1), 0.0
	for _, pt := range cdf {
		if pt.Value < prevV {
			t.Errorf("CDF values not monotone: %d after %d", pt.Value, prevV)
		}
		if pt.Fraction < prevF {
			t.Errorf("CDF fractions not monotone: %f after %f", pt.Fraction, prevF)
		}
		prevV, prevF = pt.Value, pt.Fraction
	}
	if last := cdf[len(cdf)-1].Fraction; math.Abs(last-1.0) > 1e-9 {
		t.Errorf("CDF should end at 1.0, got %f", last)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				h.Record(int64(rng.Intn(10000)))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Millisecond)
	if h.Min() != 3000 {
		t.Errorf("RecordDuration stored %d, want 3000", h.Min())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(10)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 4*1000+4*10 {
		t.Errorf("Counter = %d, want 4040", got)
	}
}

func TestFormatMicros(t *testing.T) {
	tests := []struct {
		us   int64
		want string
	}{
		{500, "500µs"},
		{1500, "1.50ms"},
		{2_500_000, "2.50s"},
	}
	for _, tt := range tests {
		if got := FormatMicros(tt.us); got != tt.want {
			t.Errorf("FormatMicros(%d) = %q, want %q", tt.us, got, tt.want)
		}
	}
}

func TestBucketBoundsConsistent(t *testing.T) {
	// Property: a value must land in a bucket whose lower bound <= value.
	f := func(v uint32) bool {
		idx := bucketIndex(int64(v))
		lb := bucketLowerBound(idx)
		return lb <= int64(v) || v == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
