package obs

import (
	"sync"
	"testing"
)

func TestRegistryScalars(t *testing.T) {
	r := NewRegistry()
	r.Add(EngineReceived, 0, 3)
	r.Add(EngineReceived, 0, 4)
	r.Add(EngineReceived, 2, 1)
	if got := r.Value(EngineReceived, 0); got != 7 {
		t.Errorf("counter label 0 = %d, want 7", got)
	}
	if got := r.Value(EngineReceived, 1); got != 0 {
		t.Errorf("untouched label 1 = %d, want 0", got)
	}
	if got := r.Total(EngineReceived); got != 8 {
		t.Errorf("total = %d, want 8", got)
	}

	r.SetMax(StoreNodes, 1, 10)
	r.SetMax(StoreNodes, 1, 4) // lower: ignored
	r.SetMax(StoreNodes, 1, 12)
	if got := r.Value(StoreNodes, 1); got != 12 {
		t.Errorf("high water = %d, want 12", got)
	}

	r.Set(EngineQueueDepth, 0, 9)
	r.Set(EngineQueueDepth, 0, 5)
	// EngineQueueDepth is a high-water metric; Value reads max, which
	// Set does not touch. Use a counter-kind gauge read instead.
	r.Add(StoreInserts, 3, 2)
	if got := r.Value(StoreInserts, 3); got != 2 {
		t.Errorf("store inserts = %d, want 2", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1, 2, 3, 1000, 1 << 20} {
		r.Observe(EpochNanos, 1, v)
	}
	if got := r.Value(EpochNanos, 1); got != 5 {
		t.Errorf("histogram count = %d, want 5", got)
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Name != "epoch_nanos" || s.Kind != "histogram" || s.LabelDim != "rank" {
		t.Fatalf("bad snapshot header: %+v", s)
	}
	if len(s.Series) != 1 || s.Series[0].Label != 1 {
		t.Fatalf("bad series: %+v", s.Series)
	}
	pt := s.Series[0]
	if pt.Value != 5 || pt.Max != 1<<20 || pt.Sum != 1+2+3+1000+1<<20 {
		t.Errorf("bad histogram point: %+v", pt)
	}
	var bucketTotal int64
	for _, b := range pt.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 5 {
		t.Errorf("bucket counts sum to %d, want 5", bucketTotal)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1 << 38, 39}, {1 << 50, histBuckets - 1}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketLow(0) != 0 || BucketLow(1) != 1 || BucketLow(4) != 8 {
		t.Error("BucketLow boundaries wrong")
	}
}

// TestRegistryConcurrent hammers every update kind, including series
// growth, from many goroutines; run with -race this is the data-race
// proof of the registry.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				label := (w + i) % 16 // force growth races
				r.Add(EngineReceived, label, 1)
				r.SetMax(StoreNodes, label, int64(i))
				r.Observe(EpochNanos, label, int64(i%1024+1))
				if i%64 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got, want := r.Total(EngineReceived), int64(workers*iters); got != want {
		t.Errorf("received total = %d, want %d (lost updates)", got, want)
	}
	if got, want := r.Total(EpochNanos), int64(workers*iters); got != want {
		t.Errorf("observe count = %d, want %d", got, want)
	}
}

// TestDisabledRecorderAllocations proves the no-op recorder keeps the
// hot path allocation-free, and that a warmed registry records without
// allocating either.
func TestDisabledRecorderAllocations(t *testing.T) {
	rec := Disabled
	if n := testing.AllocsPerRun(100, func() {
		rec.Add(EngineReceived, 0, 1)
		rec.SetMax(StoreNodes, 0, 7)
		rec.Observe(EpochNanos, 0, 42)
	}); n != 0 {
		t.Errorf("Disabled recorder allocates %.1f per call set", n)
	}

	reg := NewRegistry()
	// Warm the labels so the series exist.
	reg.Add(EngineReceived, 3, 1)
	reg.SetMax(StoreNodes, 3, 1)
	reg.Observe(EpochNanos, 3, 1)
	var rec2 Recorder = reg
	if n := testing.AllocsPerRun(100, func() {
		rec2.Add(EngineReceived, 3, 1)
		rec2.SetMax(StoreNodes, 3, 9)
		rec2.Observe(EpochNanos, 3, 42)
	}); n != 0 {
		t.Errorf("warmed registry allocates %.1f per call set", n)
	}
}

func TestMetricMetadata(t *testing.T) {
	seen := map[string]bool{}
	for m := Metric(0); m < NumMetrics; m++ {
		name := m.Name()
		if name == "" || name == "unknown" {
			t.Errorf("metric %d has no name", m)
		}
		if seen[name] {
			t.Errorf("duplicate metric name %q", name)
		}
		seen[name] = true
		back, ok := MetricByName(name)
		if !ok || back != m {
			t.Errorf("MetricByName(%q) = %v, %v", name, back, ok)
		}
		if m.LabelDim() == "" {
			t.Errorf("metric %q has no label dimension", name)
		}
	}
	if _, ok := MetricByName("no-such-metric"); ok {
		t.Error("MetricByName accepted an unknown name")
	}
}

func TestOrDisabled(t *testing.T) {
	if OrDisabled(nil) != Disabled {
		t.Error("OrDisabled(nil) != Disabled")
	}
	reg := NewRegistry()
	if OrDisabled(reg) != Recorder(reg) {
		t.Error("OrDisabled dropped a real recorder")
	}
	if Disabled.Enabled() {
		t.Error("Disabled reports Enabled")
	}
	if !reg.Enabled() {
		t.Error("Registry reports disabled")
	}
}

// TestNilRegistryDisabled: a typed-nil *Registry passed through the
// Recorder interface defeats OrDisabled's nil check; Enabled must
// report false so guarded call sites stay inert (regression: replay
// without -report crashed in store.Instrument on a nil registry).
func TestNilRegistryDisabled(t *testing.T) {
	var reg *Registry
	var rec Recorder = reg
	if rec == nil {
		t.Fatal("typed nil compared equal to nil interface")
	}
	if OrDisabled(rec).Enabled() {
		t.Error("nil *Registry reports enabled")
	}
}
