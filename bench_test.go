package rmarace

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. The
// benches run scaled-down workloads so a full -bench pass stays fast;
// the cmd/ tools regenerate every experiment at paper scale (see
// EXPERIMENTS.md for paper-vs-measured numbers). Set
// RMARACE_BENCH_VERTICES to raise the MiniVite benchmark input.
import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/apps/minivite"
	"rmarace/internal/benchkit"
	"rmarace/internal/codes"
	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/figure3"
	"rmarace/internal/interval"
	"rmarace/internal/micro"
	"rmarace/internal/store"
	"rmarace/internal/trace"
)

func benchVertices() int {
	if s := os.Getenv("RMARACE_BENCH_VERTICES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 64000
}

// BenchmarkFigure3Matrix derives the full Fig. 3 race-situation matrix.
func BenchmarkFigure3Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := figure3.Table(); len(got) != 2 || len(got[0]) != 10 {
			b.Fatal("bad matrix shape")
		}
	}
}

// BenchmarkPaperCodes runs the paper's example programs (Figs. 2, 8, 9)
// under the contribution once per iteration.
func BenchmarkPaperCodes(b *testing.B) {
	programs := codes.All()
	for i := 0; i < b.N; i++ {
		for _, pr := range programs {
			detected, _, err := pr.Run(OurContribution)
			if err != nil {
				b.Fatal(err)
			}
			if detected != pr.Racy {
				b.Fatalf("%s verdict drifted", pr.Name)
			}
		}
	}
}

// BenchmarkTable2Validation runs the four Table 2 codes under the three
// tools once per iteration.
func BenchmarkTable2Validation(b *testing.B) {
	cases := micro.Suite()
	for i := 0; i < b.N; i++ {
		for _, name := range micro.Table2Cases {
			c := micro.Find(cases, name)
			for _, m := range micro.Table2Methods {
				if _, err := c.Run(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTable3Suite evaluates the full 154-code suite under the
// three tools per iteration and reports the confusion matrices as
// metrics.
func BenchmarkTable3Suite(b *testing.B) {
	cases := micro.Suite()
	var confs [3]micro.Confusion
	for i := 0; i < b.N; i++ {
		for j, m := range micro.Table2Methods {
			conf, _, err := micro.Evaluate(m, cases)
			if err != nil {
				b.Fatal(err)
			}
			confs[j] = conf
		}
	}
	b.ReportMetric(float64(confs[0].FP), "legacy-FP")
	b.ReportMetric(float64(confs[1].FN), "must-FN")
	b.ReportMetric(float64(confs[2].TP), "ours-TP")
}

// BenchmarkFigure5Code1 measures detecting the Code 1 race end to end.
func BenchmarkFigure5Code1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, _ := Run(2, OurContribution, code1)
		if rep.Race == nil {
			b.Fatal("Code 1 race missed")
		}
	}
}

// BenchmarkFigure8bCode2Loop drives Code 2's access stream through the
// contribution analyzer; the nodes metric shows the merged tree size
// (2 in the paper vs 5,002 legacy).
func BenchmarkFigure8bCode2Loop(b *testing.B) {
	var nodes int
	for i := 0; i < b.N; i++ {
		z := core.New()
		iAddr := uint64(1 << 20)
		var tick uint64
		for it := 0; it < 1000; it++ {
			for k := 0; k < 4; k++ {
				tp := access.LocalRead
				if k == 3 {
					tp = access.LocalWrite
				}
				tick++
				z.Access(detector.Event{Acc: access.Access{
					Interval: interval.Span(iAddr, 8), Type: tp, Rank: 0,
					Debug: access.Debug{File: "code2.c", Line: 2 + k},
				}, Time: tick})
			}
			tick++
			z.Access(detector.Event{Acc: access.Access{
				Interval: interval.At(uint64(it)), Type: access.RMAWrite, Rank: 0,
				Debug: access.Debug{File: "code2.c", Line: 3},
			}, Time: tick, CallTime: tick})
		}
		nodes = z.Nodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkFigure9InjectedRace measures MiniVite with the duplicated
// MPI_Put until the abort.
func BenchmarkFigure9InjectedRace(b *testing.B) {
	cfg := minivite.Small()
	cfg.InjectRace = true
	for i := 0; i < b.N; i++ {
		res, err := minivite.Run(cfg, detector.OurContribution)
		if err != nil {
			b.Fatal(err)
		}
		if res.Race == nil {
			b.Fatal("injected race missed")
		}
	}
}

// BenchmarkFigure10CFDProxy measures the CFD-Proxy epoch time per
// method; the epoch_ms and nodes metrics correspond to the figure's
// bars and the §5.3 node claim.
func BenchmarkFigure10CFDProxy(b *testing.B) { runSeries(b, "figure10-cfdproxy/") }

func benchMiniVite(b *testing.B, vertices int, ranks int) {
	for _, m := range detector.Methods() {
		b.Run(fmt.Sprintf("%s/r%d", m, ranks), func(b *testing.B) {
			var res minivite.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = minivite.Run(minivite.Default(ranks, vertices), m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PerProcessTime.Microseconds())/1000, "proc_ms")
			b.ReportMetric(float64(res.MaxNodesPerProcess), "nodes")
		})
	}
}

// BenchmarkFigure11MiniVite is the strong-scaling series at the small
// input (640,000 vertices in the paper; scaled here, see
// RMARACE_BENCH_VERTICES).
func BenchmarkFigure11MiniVite(b *testing.B) {
	v := benchVertices()
	for _, ranks := range []int{8, 32} {
		benchMiniVite(b, v, ranks)
	}
}

// BenchmarkFigure12MiniViteLarge doubles the input size (1,280,000 in
// the paper).
func BenchmarkFigure12MiniViteLarge(b *testing.B) {
	benchMiniVite(b, 2*benchVertices(), 32)
}

// BenchmarkTable4NodeCounts reports the per-process node counts of the
// two tree-based analyzers on MiniVite at 8 ranks (the 32-rank counts
// are BenchmarkFigure11MiniVite's nodes metric).
func BenchmarkTable4NodeCounts(b *testing.B) { runSeries(b, "table4-nodes/") }

// BenchmarkAblationFragmentationOnly compares the full algorithm with
// the merging pass disabled (§4.1's node explosion) on the CFD-like
// adjacent stream.
func BenchmarkAblationFragmentationOnly(b *testing.B) {
	stream := benchkit.AdjacentStream(20000)
	for _, variant := range []struct {
		name string
		mk   func() *core.Analyzer
	}{
		{"full", func() *core.Analyzer { return core.New() }},
		{"no-merge", func() *core.Analyzer { return core.New(core.WithoutMerging()) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				z := variant.mk()
				for _, ev := range stream {
					if r := z.Access(ev); r != nil {
						b.Fatal(r)
					}
				}
				nodes = z.Nodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblationNoAliasFilter measures the contribution with the
// alias filter disabled: every interior access reaches the tree, the
// cost MUST-RMA always pays.
func BenchmarkAblationNoAliasFilter(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "filtered"
		if disable {
			name = "instrument-all"
		}
		b.Run(name, func(b *testing.B) {
			body := func(p *Proc) error {
				win, err := p.WinCreate("X", 64)
				if err != nil {
					return err
				}
				scratch := p.Alloc("scratch", 4096, Untracked())
				if err := win.LockAll(); err != nil {
					return err
				}
				for k := 0; k < 2048; k++ {
					off := (k * 8) % (scratch.Size() - 8)
					v, err := scratch.LoadU64(off, Debug{File: "interior.c", Line: 9})
					if err != nil {
						return err
					}
					if err := scratch.StoreU64(off, v+1, Debug{File: "interior.c", Line: 10}); err != nil {
						return err
					}
				}
				return win.UnlockAll()
			}
			for i := 0; i < b.N; i++ {
				rep, err := RunConfig(4, Config{Method: OurContribution, DisableAliasFilter: disable}, body)
				if err != nil || rep.Race != nil {
					b.Fatal(err, rep.Race)
				}
			}
		})
	}
}

// BenchmarkAblationAdjacency replays synthetic traces of varying
// adjacency through the contribution, the Fig. 10-vs-Fig. 11 contrast
// in one knob.
func BenchmarkAblationAdjacency(b *testing.B) {
	for _, adj := range []float64{0.0, 0.5, 0.95} {
		b.Run(fmt.Sprintf("adj%.2f", adj), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pr, pw := io.Pipe()
				go func() {
					_, err := trace.Generate(pw, trace.GenConfig{
						Ranks: 4, Events: 20000, Epochs: 1,
						Adjacency: adj, WriteFraction: 0.4, SafeOnly: true, Seed: 3,
					})
					pw.CloseWithError(err)
				}()
				r, err := trace.NewReader(pr)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := trace.ReplayStream(r, func(int) detector.Analyzer { return core.New() }, trace.ReplayOpts{})
				if err != nil || res.Race != nil {
					b.Fatal(err, res.Race)
				}
				nodes = res.MaxNodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblationStridedMerging runs MiniVite under the plain
// contribution and under the §6(3) regular-section extension; the nodes
// metric shows the compression the paper hypothesises for non-adjacent
// accesses.
func BenchmarkAblationStridedMerging(b *testing.B) {
	cfg := minivite.Default(8, benchVertices()/4)
	variants := []struct {
		name  string
		store string
	}{
		{"plain", ""},
		{"strided", "strided"},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				res, err := minivite.RunOpts(cfg, Config{Method: OurContribution, Store: v.store})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.MaxNodesPerProcess
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblationUnbalanced contrasts the stabbing query across the
// pluggable store backends at equal size — the balanced B+tree of the
// avl store against the legacy lower-bound descent (the §4.2
// complexity claim), plus the shadow-memory and regular-section
// representations.
func BenchmarkAblationUnbalanced(b *testing.B) {
	const n = 1 << 14
	for _, name := range store.Names() {
		st, err := store.New(name)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			st.Insert(access.Access{Interval: interval.Span(uint64(i)*16, 8), Type: access.RMARead})
		}
		b.Run(name+"-stab", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				iv := interval.Span(uint64(i%n)*16, 8)
				found := 0
				st.Stab(iv, func(access.Access) bool { found++; return true })
				if found == 0 {
					b.Fatal("stab miss")
				}
			}
		})
	}
}

// BenchmarkNotificationThroughput drives a CFD-Proxy-shaped stream of
// adjacent target-side accesses through the analysis engine's serial
// receiver, unbatched (one channel message per access) versus
// coalesced into batches of 64.
func BenchmarkNotificationThroughput(b *testing.B) { runSeries(b, "notification-throughput/") }

// BenchmarkInsert compares per-access analyzer cost, the contribution
// against the legacy BST, on the two access patterns of the
// evaluation: adjacent (CFD-Proxy-like) and strided (MiniVite-like).
func BenchmarkInsert(b *testing.B) { runSeries(b, "insert/") }

// runSeries runs the benchkit series whose names start with prefix as
// sub-benchmarks named by the rest, so `go test -bench` and
// `rmarace bench` measure the same bodies.
func runSeries(b *testing.B, prefix string) {
	for _, s := range benchkit.Table(benchVertices()) {
		if name, ok := strings.CutPrefix(s.Name, prefix); ok {
			b.Run(name, s.Bench)
		}
	}
}
