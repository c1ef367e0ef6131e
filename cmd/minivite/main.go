// Command minivite regenerates the paper's MiniVite experiments:
//
//   - Figure 9: -inject-race duplicates an MPI_Put and prints the race
//     report with its dspl.hpp:612/614 debug locations;
//   - Figures 11 and 12: -sweep runs the strong-scaling comparison of
//     the four methods over 32..256 ranks for a given input size;
//   - Table 4: -sweep -nodes prints the per-process BST node counts of
//     the two tree-based analyzers.
//
// Usage:
//
//	minivite -inject-race
//	minivite -sweep -vertices 640000
//	minivite -sweep -vertices 1280000
//	minivite -sweep -nodes            # Table 4 (both input sizes)
//	minivite -ranks 32 -vertices 640000   # one point, all methods
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"rmarace/internal/apps/minivite"
	"rmarace/internal/detector"
	"rmarace/internal/harness"
	"rmarace/internal/rma"
)

func main() {
	// The simulator allocates one tree/shadow entry per access; with the
	// default GC target the run time becomes dominated by collector
	// pacing rather than analysis work. A relaxed target (uniform across
	// all methods) makes the measured ratios reflect the algorithms.
	debug.SetGCPercent(300)
	debug.SetMemoryLimit(11 << 30) // hard backstop for the largest sweeps
	log.SetFlags(0)
	log.SetPrefix("minivite: ")
	vertices := flag.Int("vertices", 640000, "global vertex count")
	ranks := flag.Int("ranks", 32, "rank count for a single run")
	rankList := flag.String("rank-list", "32,64,128,256", "comma-separated rank counts for -sweep")
	sweep := flag.Bool("sweep", false, "run the strong-scaling sweep (Figs. 11/12)")
	nodes := flag.Bool("nodes", false, "with -sweep: print Table 4 for both input sizes")
	inject := flag.Bool("inject-race", false, "duplicate an MPI_Put (Fig. 9) and print the report")
	stridedCmp := flag.Bool("strided", false, "compare the plain contribution against the §6(3) strided-merging extension (node counts)")
	flag.Parse()

	if *stridedCmp {
		cfg := minivite.Default(*ranks, *vertices)
		plain, err := minivite.RunOpts(cfg, rma.Config{Method: detector.OurContribution})
		if err != nil {
			log.Fatal(err)
		}
		str, err := minivite.RunOpts(cfg, rma.Config{Method: detector.OurContribution, Store: "strided"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("BST nodes per process at %d ranks, %d vertices:\n", *ranks, *vertices)
		fmt.Printf("  contribution (adjacent merging only)  %8d\n", plain.MaxNodesPerProcess)
		fmt.Printf("  + strided regular sections (§6(3))    %8d (reduction %.2f%%)\n",
			str.MaxNodesPerProcess,
			100*float64(plain.MaxNodesPerProcess-str.MaxNodesPerProcess)/float64(plain.MaxNodesPerProcess))
		return
	}

	switch {
	case *inject:
		// The paper runs `mpiexec -n 2 ./miniVite -l -n 100`.
		race, err := harness.Figure9(2, max(*vertices, 1000), detector.OurContribution)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(race.Message())
		fmt.Println(race.Message()) // both conflicting ranks report, as in Fig. 9
	case *sweep && *nodes:
		rl, err := parseRanks(*rankList)
		if err != nil {
			log.Fatal(err)
		}
		p640, err := harness.MiniViteNodesSweep(640000, rl)
		if err != nil {
			log.Fatal(err)
		}
		p1280, err := harness.MiniViteNodesSweep(1280000, rl)
		if err != nil {
			log.Fatal(err)
		}
		harness.WriteTable4(os.Stdout, p640, p1280)
	case *sweep:
		rl, err := parseRanks(*rankList)
		if err != nil {
			log.Fatal(err)
		}
		points, err := harness.MiniViteSweep(*vertices, rl)
		if err != nil {
			log.Fatal(err)
		}
		harness.WriteFigure11(os.Stdout, *vertices, points)
	default:
		for _, m := range detector.Methods() {
			debug.FreeOSMemory()
			res, err := minivite.Run(minivite.Default(*ranks, *vertices), m)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-16s per-process %8.1f ms   nodes/process %d\n",
				m, float64(res.PerProcessTime.Microseconds())/1000.0, res.MaxNodesPerProcess)
		}
	}
}

func parseRanks(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad rank count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
