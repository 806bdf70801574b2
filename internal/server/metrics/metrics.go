// Package metrics provides the small, allocation-free instruments the
// MIO server exports on /metrics: atomic counters and gauges, plus a
// fixed-bucket latency histogram sized for query latencies from tens
// of microseconds to seconds. Everything is stdlib-only and safe for
// concurrent use.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (e.g. the
// in-flight request count).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBounds spans 50µs .. 10s in roughly 2.5x steps — wide
// enough for a cached hit on one end and a cold multi-second sweep on
// the other.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		50 * time.Microsecond,
		100 * time.Microsecond,
		250 * time.Microsecond,
		500 * time.Microsecond,
		1 * time.Millisecond,
		2500 * time.Microsecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		1 * time.Second,
		2500 * time.Millisecond,
		5 * time.Second,
		10 * time.Second,
	}
}

// Histogram is a cumulative-bucket latency histogram with fixed upper
// bounds (plus an implicit +Inf bucket).
type Histogram struct {
	mu     sync.Mutex
	bounds []time.Duration
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    time.Duration
	count  uint64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds; nil selects DefaultLatencyBounds.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds()
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += d
	h.count++
}

// Bucket is one histogram bucket on the wire: the count of samples at
// or below the upper bound. LeMs < 0 marks the +Inf bucket.
type Bucket struct {
	LeMs  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

// Snapshot is a point-in-time JSON-friendly view of a histogram, with
// estimated percentiles (linear interpolation inside buckets).
type Snapshot struct {
	Count   uint64   `json:"count"`
	SumMs   float64  `json:"sum_ms"`
	MeanMs  float64  `json:"mean_ms"`
	P50Ms   float64  `json:"p50_ms"`
	P90Ms   float64  `json:"p90_ms"`
	P99Ms   float64  `json:"p99_ms"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns the current state. withBuckets includes the raw
// bucket counts (the /metrics default omits them to keep the payload
// small; pass true for debugging).
func (h *Histogram) Snapshot(withBuckets bool) Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.count, SumMs: ms(h.sum)}
	if h.count > 0 {
		s.MeanMs = s.SumMs / float64(h.count)
	}
	s.P50Ms = h.quantileLocked(0.50)
	s.P90Ms = h.quantileLocked(0.90)
	s.P99Ms = h.quantileLocked(0.99)
	if withBuckets {
		s.Buckets = make([]Bucket, 0, len(h.counts))
		for i, c := range h.counts {
			b := Bucket{LeMs: -1, Count: c}
			if i < len(h.bounds) {
				b.LeMs = ms(h.bounds[i])
			}
			s.Buckets = append(s.Buckets, b)
		}
	}
	return s
}

// quantileLocked estimates the q-quantile in milliseconds. The +Inf
// bucket is reported as the largest finite bound (the estimate is a
// floor, not an upper bound, once samples overflow the bounds).
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			return ms(h.bounds[len(h.bounds)-1])
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return ms(hi)
		}
		// Linear interpolation of the rank inside this bucket.
		within := (rank - float64(cum-c)) / float64(c)
		return ms(lo) + within*(ms(hi)-ms(lo))
	}
	return ms(h.bounds[len(h.bounds)-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// PowerOfTwoBounds returns 1, 2, 4, .. up to the first power of two
// covering max — the natural bucket ladder for size-like quantities
// (shards pruned per query, cell counts).
func PowerOfTwoBounds(max int64) []int64 {
	var bounds []int64
	for b := int64(1); ; b <<= 1 {
		bounds = append(bounds, b)
		if b >= max {
			return bounds
		}
	}
}

// IntHistogram is a cumulative-bucket histogram over integer values
// (counts, sizes), the dimensionless sibling of Histogram.
type IntHistogram struct {
	mu     sync.Mutex
	bounds []int64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    int64
	count  uint64
}

// NewIntHistogram returns a histogram over the given ascending bucket
// upper bounds; nil selects PowerOfTwoBounds(4096).
func NewIntHistogram(bounds []int64) *IntHistogram {
	if bounds == nil {
		bounds = PowerOfTwoBounds(4096)
	}
	return &IntHistogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *IntHistogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// IntBucket is one IntHistogram bucket on the wire; Le < 0 marks the
// +Inf bucket.
type IntBucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// IntSnapshot is a point-in-time JSON-friendly view of an
// IntHistogram.
type IntSnapshot struct {
	Count   uint64      `json:"count"`
	Sum     int64       `json:"sum"`
	Mean    float64     `json:"mean"`
	Max     int64       `json:"max_le"` // upper bound of the highest non-empty bucket; -1 for +Inf
	Buckets []IntBucket `json:"buckets,omitempty"`
}

// Snapshot returns the current state; withBuckets includes the raw
// bucket counts.
func (h *IntHistogram) Snapshot(withBuckets bool) IntSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := IntSnapshot{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if i < len(h.bounds) {
			s.Max = h.bounds[i]
		} else {
			s.Max = -1
		}
	}
	if withBuckets {
		s.Buckets = make([]IntBucket, 0, len(h.counts))
		for i, c := range h.counts {
			b := IntBucket{Le: -1, Count: c}
			if i < len(h.bounds) {
				b.Le = h.bounds[i]
			}
			s.Buckets = append(s.Buckets, b)
		}
	}
	return s
}
