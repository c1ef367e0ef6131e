// Tracereplay: record a synthetic workload's accesses to a trace file,
// then replay the trace under all four detection methods and compare
// their tree sizes and timings — the workflow the rmarace CLI automates
// for real traces.
//
// Run with: go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/trace"
)

func main() {
	log.SetFlags(0)

	path := filepath.Join(os.TempDir(), "rmarace-example-trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	n, err := trace.Generate(f, trace.GenConfig{
		Ranks:         4,
		Events:        50000,
		Epochs:        2,
		Adjacency:     0.8, // CFD-like: mostly mergeable
		WriteFraction: 0.4,
		SafeOnly:      true,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d accesses to %s\n", n, path)

	for _, method := range detector.Methods() {
		rf, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		r, err := trace.NewReader(rf)
		if err != nil {
			log.Fatal(err)
		}
		shared := detector.NewMustShared(r.Header.Ranks)
		start := time.Now()
		res, err := trace.ReplayStream(r, func(owner int) detector.Analyzer {
			switch method {
			case detector.Baseline:
				return detector.NewBaseline()
			case detector.RMAAnalyzer:
				return detector.NewLegacy()
			case detector.MustRMAMethod:
				return detector.NewMustRMA(shared, owner)
			default:
				return core.New()
			}
		}, trace.ReplayOpts{})
		elapsed := time.Since(start)
		rf.Close()
		if err != nil {
			log.Fatal(err)
		}
		status := "clean"
		if res.Race != nil {
			status = "RACE: " + res.Race.Message()
		}
		fmt.Printf("  %-16s %8d max nodes  %10v  %s\n", method, res.MaxNodes, elapsed, status)
	}
}
