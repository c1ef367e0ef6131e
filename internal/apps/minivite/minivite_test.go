package minivite

import (
	"strings"
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
		if res.Wall <= 0 || res.PerProcessTime <= 0 {
			t.Fatalf("%v: no time measured", m)
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{Ranks: 1, Vertices: 100}, detector.Baseline); err == nil {
		t.Fatal("1-rank config accepted")
	}
	if _, err := Run(Config{Ranks: 8, Vertices: 4}, detector.Baseline); err == nil {
		t.Fatal("fewer vertices than ranks accepted")
	}
}

// TestInjectedRaceDetected reproduces Fig. 9: the duplicated MPI_Put is
// caught by both tree-based analyzers with the dspl.hpp:612/614 report.
func TestInjectedRaceDetected(t *testing.T) {
	cfg := Small()
	cfg.InjectRace = true
	for _, m := range []detector.Method{detector.RMAAnalyzer, detector.OurContribution} {
		res, err := Run(cfg, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Race == nil {
			t.Fatalf("%v missed the injected duplicate-Put race", m)
		}
		msg := res.Race.Message()
		if !strings.Contains(msg, "./dspl.hpp:614") || !strings.Contains(msg, "./dspl.hpp:612") {
			t.Errorf("%v: race message lacks the Fig. 9 locations: %s", m, msg)
		}
		if !strings.Contains(msg, "RMA_WRITE") {
			t.Errorf("%v: race message should name RMA_WRITE: %s", m, msg)
		}
	}
}

// TestNodeCountsNearlyEqual is Table 4's story: merging saves only the
// header runs, so legacy and contribution node counts differ by a few
// percent at most.
func TestNodeCountsNearlyEqual(t *testing.T) {
	cfg := Small()
	legacy, err := Run(cfg, detector.RMAAnalyzer)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := Run(cfg, detector.OurContribution)
	if err != nil {
		t.Fatal(err)
	}
	if ours.MaxNodesPerProcess >= legacy.MaxNodesPerProcess {
		t.Fatalf("no reduction: legacy %d, ours %d", legacy.MaxNodesPerProcess, ours.MaxNodesPerProcess)
	}
	reduction := float64(legacy.MaxNodesPerProcess-ours.MaxNodesPerProcess) / float64(legacy.MaxNodesPerProcess)
	if reduction > 0.15 {
		t.Fatalf("reduction %.2f%% too large for MiniVite's non-adjacent accesses (legacy %d, ours %d)",
			100*reduction, legacy.MaxNodesPerProcess, ours.MaxNodesPerProcess)
	}
}

// TestNodeCountDecreasesWithRanks mirrors Table 4's rows: more ranks →
// fewer vertices per rank → smaller per-process trees.
func TestNodeCountDecreasesWithRanks(t *testing.T) {
	base := Config{Vertices: 8000, EdgesPerVertex: 2, Seed: 1}
	var prev int
	for i, ranks := range []int{4, 8, 16} {
		cfg := base
		cfg.Ranks = ranks
		res, err := Run(cfg, detector.RMAAnalyzer)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MaxNodesPerProcess >= prev {
			t.Fatalf("nodes did not shrink: %d ranks -> %d, previous %d", ranks, res.MaxNodesPerProcess, prev)
		}
		prev = res.MaxNodesPerProcess
	}
}

// TestDeterministicAcrossMethods: the communication pattern depends
// only on the seed, so access counts agree between the tree analyzers.
func TestDeterministicAcrossMethods(t *testing.T) {
	cfg := Small()
	a, err := Run(cfg, detector.RMAAnalyzer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, detector.OurContribution)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalAccesses != b.TotalAccesses {
		t.Fatalf("access counts differ: %d vs %d", a.TotalAccesses, b.TotalAccesses)
	}
}

func TestCalibrationFormulaAgainstTable4(t *testing.T) {
	// The analytic model behind the calibration: per-process accesses ≈
	// 4·nv + 2·nv·λ(P) + headerRuns·headerSlots. Check it against the
	// published Table 4 legacy node counts within 10%.
	cases := []struct {
		ranks, vertices int
		want            float64
	}{
		{32, 640000, 88528}, {64, 640000, 48180}, {128, 640000, 26383}, {256, 640000, 15544},
		{32, 1280000, 177223}, {64, 1280000, 97347}, {128, 1280000, 52105}, {256, 1280000, 29129},
	}
	for _, c := range cases {
		nv := float64(c.vertices / c.ranks)
		model := 4*nv + 2*nv*commRate(c.ranks) + float64(headerRuns(c.ranks)*headerSlots)
		if diff := (model - c.want) / c.want; diff > 0.10 || diff < -0.10 {
			t.Errorf("P=%d V=%d: model %.0f vs paper %.0f (%.1f%%)", c.ranks, c.vertices, model, c.want, 100*diff)
		}
	}
}

// TestStridedMergingCollapsesAttributeAccesses validates the paper's
// §6(3) hypothesis on MiniVite itself: with regular-section compression
// the strided attribute accesses — which plain merging cannot touch —
// collapse, cutting the per-process store far below the plain
// contribution's.
func TestStridedMergingCollapsesAttributeAccesses(t *testing.T) {
	cfg := Small()
	plain, err := Run(cfg, detector.OurContribution)
	if err != nil {
		t.Fatal(err)
	}
	strided, err := RunOpts(cfg, rma.Config{Method: detector.OurContribution, Store: "strided"})
	if err != nil {
		t.Fatal(err)
	}
	if strided.Race != nil {
		t.Fatalf("strided store raced: %v", strided.Race)
	}
	if strided.MaxNodesPerProcess*2 > plain.MaxNodesPerProcess {
		t.Fatalf("strided merging did not compress MiniVite: %d vs %d nodes",
			strided.MaxNodesPerProcess, plain.MaxNodesPerProcess)
	}
}

// TestStridedMergingStillCatchesInjectedRace: compression must not cost
// detection.
func TestStridedMergingStillCatchesInjectedRace(t *testing.T) {
	cfg := Small()
	cfg.InjectRace = true
	res, err := RunOpts(cfg, rma.Config{Method: detector.OurContribution, Store: "strided"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race == nil {
		t.Fatal("strided store missed the injected race")
	}
}
