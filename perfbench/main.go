// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time from a seed, checks every verdict the
// program returns against one computed independently in set-up, and
// prints its metrics as the last line of standard output:
//
//	go -C perfbench run . --workload replay-bin --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with every layer timed from the benchmark's
// side of the layer's public interface and reports the per-layer
// metrics instead. run.sh builds the binary inside the checkout first.
// README.md lists the workloads, the metrics and which per-layer
// metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts is one invocation's configuration.
type opts struct {
	seed    int64
	measure time.Duration
	traced  bool
}

// outcome is what a workload hands back: the ops it attempted and
// failed, its metrics (end-to-end or per-layer, by opts.traced), the
// sample count behind every latency, and the input configuration to
// print beside them.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
	config            map[string]any
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so two slow set-ups do not move it.
const setupReps = 5

// procs is the GOMAXPROCS every workload runs at. With more Ps, a
// goroutine that blocks hands its peer to another vCPU and waits for a
// shared host to wake it, and the garbage collector's mark worker runs on
// a vCPU the host may be lending elsewhere. On a 2-vCPU shared VM, one P
// against two: the serve-json session p50 spread 6% between quartiles
// over ten seeds against 34%, the live-halo run p95 17% over six seeds
// against 41%, and over five interleaved seeds the replay-bin pass p75 8%
// against 27%, and 11% faster.
const procs = 1

// maxMeasure caps a measured phase that keeps going to collect the
// samples its percentiles need, so a run still ends within three
// minutes.
const maxMeasure = 90 * time.Second

var workloads = map[string]func(opts) (*outcome, error){
	"replay-bin": replayBin,
	"serve-json": serveJSON,
	"live-halo":  liveHalo,
}

func main() {
	workload := flag.String("workload", "", "workload to run (replay-bin, serve-json, live-halo)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload of %v, --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	o := opts{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
	}
	runtime.GOMAXPROCS(procs)
	calib := calibrate()
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if o.traced {
		out.metrics["host.calib_ms"] = metric{calib, "ms"}
	}
	cfg := map[string]any{
		"workload":      *workload,
		"seed":          o.seed,
		"seconds":       *seconds,
		"trace":         *traceFlag,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"host.calib_ms": calib,
	}
	for k, v := range out.config {
		cfg[k] = v
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"config": cfg, "samples": out.samples}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// calibLoop is the fixed CPU loop behind host.calib_ms: integer work
// with a loop-carried dependency the compiler cannot remove.
func calibLoop() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibSink keeps calibLoop's result observable.
var calibSink uint64

// calibrate times calibLoop five times and returns the median in ms,
// so a slow host shows beside a slow result.
func calibrate() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		calibSink += calibLoop()
		ms = append(ms, msSince(t0))
	}
	return median(ms)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// timeSetup runs setup setupReps times, tearing down every instance but
// the last, and returns the last instance with the median set-up time
// in seconds.
func timeSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(inst)
		}
		t0 := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, median(secs), nil
}

// op is one unit of a workload's work (a replay pass, a session, an app
// run). It returns how many events it analysed and whether its result
// matched the expected one.
type op func() (events int, ok bool, err error)

// measured is what measureLoop collects: each op's latency in ms and
// events per second, and how many ops reported a wrong result; and per
// group of ops, the fastest op's latency in ms and the process's
// resident set size right after the group.
type measured struct {
	lat, rate    []float64
	fastest, rss []float64
	bad          int
}

// measureLoop runs groups of best ops back to back for at least d and
// until it has minGroups groups, stopping at maxMeasure regardless.
// Each op starts from a collected heap, so where a garbage collection
// falls inside an op does not depend on what earlier ops left behind;
// the collection is not timed. An op that returns an error or a wrong
// result counts as failed and the loop goes on; the first error goes to
// standard error. Only failing to read the resident set size aborts the
// loop.
func measureLoop(d time.Duration, minGroups, best int, run op) (measured, error) {
	var m measured
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= maxMeasure || (el >= d && len(m.fastest) >= minGroups) {
			return m, nil
		}
		fastest := math.Inf(1)
		for i := 0; i < best; i++ {
			runtime.GC()
			t0 := time.Now()
			events, ok, err := run()
			t := msSince(t0)
			m.lat = append(m.lat, t)
			m.rate = append(m.rate, float64(events)/t*1e3)
			fastest = min(fastest, t)
			if err != nil && m.bad == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", len(m.lat), err)
			}
			if err != nil || !ok {
				m.bad++
			}
		}
		m.fastest = append(m.fastest, fastest)
		rss, err := residentBytes()
		if err != nil {
			return m, err
		}
		m.rss = append(m.rss, float64(rss))
	}
}

// endToEnd fills the end-to-end metrics every workload reports the
// same way from its measured ops: ops_ok_frac; events_per_s, the p25 of
// the per-op event rates (the rate three ops in four reach), and the
// p75 latency, both over every op; the p95 latency over groups, each
// group's fastest op; and peak_rss_bytes, the p95 of the resident set
// sizes read after each group. README.md says why these quantiles. Each
// percentile's sample count goes to samples. A percentile without ten
// samples beyond it is an error: the run was too short.
func (out *outcome) endToEnd(ms measured, setupS float64) error {
	out.attempted, out.failed = len(ms.lat), ms.bad
	m := out.metrics
	m["setup_s"] = metric{setupS, "s"}
	m["ops_ok_frac"] = opsOK(out.attempted, out.failed)
	out.samples["setup_s"] = setupReps
	for _, q := range []struct {
		name, unit string
		p          float64
		xs         []float64
	}{
		{"events_per_s", "1/s", 0.25, ms.rate},
		{"latency_p75_ms", "ms", 0.75, ms.lat},
		{"latency_p95_ms", "ms", 0.95, ms.fastest},
		{"peak_rss_bytes", "bytes", 0.95, ms.rss},
	} {
		v, ok := percentile(q.xs, q.p)
		if !ok {
			return fmt.Errorf("%s needs %d samples, have %d", q.name, minSamples(q.p), len(q.xs))
		}
		m[q.name] = metric{v, q.unit}
		out.samples[q.name] = len(q.xs)
	}
	return nil
}

// opsOK is ops_ok_frac: ops whose result matched ÷ ops attempted.
func opsOK(attempted, failed int) metric {
	if attempted == 0 {
		return metric{0, "frac"}
	}
	return metric{float64(attempted-failed) / float64(attempted), "frac"}
}
