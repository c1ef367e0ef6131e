package cfdproxy

import (
	"runtime"
	"testing"

	"rmarace/internal/detector"
	"rmarace/internal/rma"
)

func TestRunCleanUnderAllMethods(t *testing.T) {
	for _, m := range detector.Methods() {
		res, err := Run(Small(), m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Race != nil {
			t.Fatalf("%v: unexpected race: %v", m, res.Race)
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{Ranks: 1}, detector.Baseline); err == nil {
		t.Fatal("1-rank config accepted")
	}
}

// TestAccessAccounting checks the workload emits exactly the calibrated
// access volume: 3 accesses per (neighbour, iteration, point) per
// process per window (pack store, origin-side read, target-side write).
func TestAccessAccounting(t *testing.T) {
	cfg := Small()
	res, err := Run(cfg, detector.OurContribution)
	if err != nil {
		t.Fatal(err)
	}
	nb := cfg.Ranks - 1
	half := cfg.Iters / 2
	want := uint64(2 * cfg.Ranks * nb * half * cfg.Points * 2)
	if res.TotalAccesses != want {
		t.Fatalf("accesses = %d, want %d", res.TotalAccesses, want)
	}
}

// TestNodeReduction is the §5.3 claim at test scale: the legacy tree
// holds one node per access while the merged tree stays within a few
// nodes per neighbour.
func TestNodeReduction(t *testing.T) {
	cfg := Small()
	legacy, err := Run(cfg, detector.RMAAnalyzer)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := Run(cfg, detector.OurContribution)
	if err != nil {
		t.Fatal(err)
	}
	nb := cfg.Ranks - 1
	half := cfg.Iters / 2
	wantLegacy := 2 * 2 * nb * half * cfg.Points // per process, both windows
	if legacy.MaxNodesPerProcess != wantLegacy {
		t.Errorf("legacy nodes per process = %d, want %d", legacy.MaxNodesPerProcess, wantLegacy)
	}
	// Merged: a handful of nodes per neighbour per window.
	limit := 2 * nb * 6
	if ours.MaxNodesPerProcess > limit {
		t.Errorf("merged nodes per process = %d, want <= %d", ours.MaxNodesPerProcess, limit)
	}
	if ours.MaxNodesPerProcess*10 > legacy.MaxNodesPerProcess {
		t.Errorf("node reduction too small: %d -> %d", legacy.MaxNodesPerProcess, ours.MaxNodesPerProcess)
	}
}

func TestEpochTimeMeasured(t *testing.T) {
	res, err := Run(Small(), detector.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochTime <= 0 {
		t.Fatal("no epoch time measured")
	}
}

// TestMustSeesFilteredInteriorWork: the MUST simulator analyses the
// alias-filtered interior accesses the tree analyzers skip.
func TestMustSeesFilteredInteriorWork(t *testing.T) {
	cfg := Small()
	ours, err := Run(cfg, detector.OurContribution)
	if err != nil {
		t.Fatal(err)
	}
	must, err := Run(cfg, detector.MustRMAMethod)
	if err != nil {
		t.Fatal(err)
	}
	if must.TotalAccesses <= ours.TotalAccesses {
		t.Fatalf("MUST analysed %d accesses, tree analyzers %d; interior work missing",
			must.TotalAccesses, ours.TotalAccesses)
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := Default()
	if cfg.Ranks != 12 || cfg.Iters != 50 {
		t.Fatalf("default config = %+v; the paper uses 12 ranks and 50 iterations", cfg)
	}
	// The calibration targets the published ≈90k legacy nodes per
	// process: 2 windows × 3 accesses × 11 neighbours × 25 iters × 54
	// points = 89,100.
	nodes := 2 * 2 * (cfg.Ranks - 1) * (cfg.Iters / 2) * cfg.Points
	if nodes < 85000 || nodes > 95000 {
		t.Fatalf("default calibration gives %d legacy nodes per process, want ≈90,004", nodes)
	}
}

// TestWarmRunAllocatesUnderOneMB: a warm live-halo-sized run under the
// contribution allocates under 1 MB. The alias-filtered interior
// accesses build no event, LoadU64 reads in place, batch slices come
// back from the process-wide free list, and the world makes no mailbox
// the run never sends to.
func TestWarmRunAllocatesUnderOneMB(t *testing.T) {
	cfg := Config{Ranks: 4, Iters: 20, Points: 40, InteriorOps: 200}
	rc := rma.Config{Method: detector.OurContribution}
	if _, err := RunOpts(cfg, rc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunOpts(cfg, rc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Race != nil {
		t.Fatalf("unexpected race: %v", res.Race)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("warm run allocated %d bytes in %d allocations, want under 1 MiB", got, after.Mallocs-before.Mallocs)
	}
}
