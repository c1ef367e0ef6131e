package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds samples v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 40 buckets cover 1ns to ~9 minutes of latency (or any count up to
// ~5e11) without clamping in practice.
const histBuckets = 40

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound of bucket i, for report
// rendering (bucket 0 holds non-positive samples).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// slot is the atomic state of one (metric, label) series. One slot
// type serves all kinds: counters and gauges use val; high-water marks
// use max; histograms use val (count), sum, max and buckets.
type slot struct {
	val     atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets *[histBuckets]atomic.Int64 // histograms only
}

func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry is the concrete Recorder: a fixed array of per-metric
// series, each a copy-on-write slice of atomic slots indexed by label.
// Updates are lock-free once a label exists; growing a series for a
// new label takes the registry lock and allocates, which happens a
// bounded number of times per run (labels are rank/target/tenant
// indices).
type Registry struct {
	mu     sync.Mutex
	series [NumMetrics]atomic.Pointer[[]*slot]
}

// NewRegistry returns an empty recording registry.
func NewRegistry() *Registry { return &Registry{} }

// Enabled implements Recorder. A nil *Registry reports disabled, so a
// typed-nil pointer passed through the Recorder interface (which
// defeats OrDisabled's nil check) stays inert instead of crashing the
// first recorded update.
func (r *Registry) Enabled() bool { return r != nil }

// slot returns the (m, label) slot, growing the series on first use.
func (r *Registry) slot(m Metric, label int) *slot {
	if m >= NumMetrics {
		m = NumMetrics - 1
	}
	if label < 0 {
		label = 0
	}
	if p := r.series[m].Load(); p != nil && label < len(*p) {
		return (*p)[label]
	}
	return r.grow(m, label)
}

// grow extends metric m's series to cover label. Existing slots keep
// their identity (the slice holds pointers), so concurrent updaters of
// old labels are unaffected by the copy.
func (r *Registry) grow(m Metric, label int) *slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*slot
	if p := r.series[m].Load(); p != nil {
		cur = *p
	}
	if label < len(cur) { // raced with another grower
		return cur[label]
	}
	next := make([]*slot, label+1)
	copy(next, cur)
	hist := m.Kind() == KindHistogram
	for i := len(cur); i < len(next); i++ {
		s := &slot{}
		if hist {
			s.buckets = new([histBuckets]atomic.Int64)
		}
		next[i] = s
	}
	r.series[m].Store(&next)
	return next[label]
}

// Add implements Recorder.
func (r *Registry) Add(m Metric, label int, delta int64) {
	r.slot(m, label).val.Add(delta)
}

// Set implements Recorder.
func (r *Registry) Set(m Metric, label int, v int64) {
	r.slot(m, label).val.Store(v)
}

// SetMax implements Recorder.
func (r *Registry) SetMax(m Metric, label int, v int64) {
	casMax(&r.slot(m, label).max, v)
}

// Observe implements Recorder.
func (r *Registry) Observe(m Metric, label int, v int64) {
	s := r.slot(m, label)
	s.val.Add(1)
	s.sum.Add(v)
	casMax(&s.max, v)
	if s.buckets != nil {
		s.buckets[bucketOf(v)].Add(1)
	}
}

// Value returns the current scalar of (m, label): the sum for counters
// and gauges, the high-water mark for KindHighWater, the sample count
// for histograms. Missing labels read as zero.
func (r *Registry) Value(m Metric, label int) int64 {
	if m >= NumMetrics || label < 0 {
		return 0
	}
	p := r.series[m].Load()
	if p == nil || label >= len(*p) {
		return 0
	}
	s := (*p)[label]
	if m.Kind() == KindHighWater {
		return s.max.Load()
	}
	return s.val.Load()
}

// Total sums Value over every recorded label of m.
func (r *Registry) Total(m Metric) int64 {
	if m >= NumMetrics {
		return 0
	}
	p := r.series[m].Load()
	if p == nil {
		return 0
	}
	var total int64
	for label := range *p {
		total += r.Value(m, label)
	}
	return total
}

// Snapshot renders every non-empty series into the report schema, in
// metric-enum order with ascending labels — deterministic output for
// diffing and golden tests.
func (r *Registry) Snapshot() []MetricSnapshot {
	var out []MetricSnapshot
	for m := Metric(0); m < NumMetrics; m++ {
		p := r.series[m].Load()
		if p == nil {
			continue
		}
		snap := MetricSnapshot{Name: m.Name(), Kind: m.Kind().String(), LabelDim: m.LabelDim()}
		for label, s := range *p {
			pt := SeriesPoint{Label: label}
			switch m.Kind() {
			case KindHighWater:
				pt.Value = s.max.Load()
			case KindHistogram:
				pt.Value = s.val.Load()
				pt.Sum = s.sum.Load()
				pt.Max = s.max.Load()
				if s.buckets != nil {
					for i := range s.buckets {
						if n := s.buckets[i].Load(); n > 0 {
							pt.Buckets = append(pt.Buckets, BucketCount{Low: BucketLow(i), Count: n})
						}
					}
				}
			default:
				pt.Value = s.val.Load()
			}
			if pt.Value == 0 && pt.Sum == 0 && pt.Max == 0 && len(pt.Buckets) == 0 {
				continue // label never recorded anything
			}
			snap.Series = append(snap.Series, pt)
		}
		if len(snap.Series) > 0 {
			out = append(out, snap)
		}
	}
	return out
}

var _ Recorder = (*Registry)(nil)
