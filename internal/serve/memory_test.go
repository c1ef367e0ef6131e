package serve

import (
	"bytes"
	"runtime"
	"testing"

	"rmarace/internal/detector"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// replayBinAllocBound is the bytes one pass over the trace below
// allocated with the augmented AVL tree as the store: at most 665,440
// on linux/amd64 with Go 1.24. The store that replaced it must not
// allocate more, or perfbench's peak_rss_bytes on replay-bin, which
// collects the heap before each pass, regresses with it.
const replayBinAllocBound = 665_440

// TestReplayBinAllocation replays a small trace of perfbench's
// replay-bin shape (64 owners at skew 0.98, adjacency 0.6, race-free)
// through the documented bounded-memory options and bounds what the
// pass allocates, as TestBatchMemoryFollowsUse does for batches. A
// store that drops its free leaves at every Compact reallocates the
// hot owner's tree once per epoch and fails here.
func TestReplayBinAllocation(t *testing.T) {
	cfg := trace.GenConfig{
		Ranks: 64, Owners: 64, OwnerSkew: 0.98, Adjacency: 0.6, SafeOnly: true,
		Events: 2_000, Epochs: 4, Seed: 3,
	}
	var buf bytes.Buffer
	w, err := tracebin.NewWriter(&buf, trace.Header{Ranks: cfg.Ranks, Window: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.GenerateTo(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	src, _, err := tracebin.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	factory, _, err := NewAnalyzerFactory(detector.OurContribution, src.Head().Ranks, "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.ReplayStream(src, factory, trace.ReplayOpts{Batch: 64, EvictCold: 2, Compact: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Race != nil || res.Events != events {
		t.Fatalf("replayed %d of %d events, race %v; want all, none", res.Events, events, res.Race)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > replayBinAllocBound {
		t.Errorf("replay allocated %d bytes, want at most %d", got, replayBinAllocBound)
	}
}
