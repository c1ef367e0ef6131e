package benchkit

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// The trace-ingest sweep (PR 7): one many-rank trace rendered in both
// formats, scanned and replayed under identical conditions, so the
// snapshot records the codec's ingest throughput (MB/s, records/s),
// the end-to-end replay throughput, and the bounded-memory policy's
// peak-RSS profile. Series:
//
//	trace-ingest/rN/{json,bin}  decode-only scan, median pass; bin
//	                            carries speedup_x
//	trace-replay/rN/{json,bin}  full streaming replay, eviction on
//	trace-rss/rN/growth         same trace at 1x and 4x the epochs:
//	                            peak live heap must stay ~flat
//
// The quick sweep keeps CI under a minute; the full sweep is the
// 10k-rank, 5M-event strong-scaling run behind BENCH_PR7.json.
type sweepScale struct {
	ranks, owners  int
	eventsPerEpoch int
	epochs         int
	scanPasses     int // decode-only passes per format
	// rss growth run: constant events/epoch, 1x vs 4x epochs
	rssEventsPerEpoch int
	rssEpochs         int
}

func sweepScaleFor(quick bool) sweepScale {
	if quick {
		return sweepScale{ranks: 256, owners: 256, eventsPerEpoch: 25_000, epochs: 4, scanPasses: 9,
			rssEventsPerEpoch: 12_500, rssEpochs: 2}
	}
	return sweepScale{ranks: 10_000, owners: 10_000, eventsPerEpoch: 1_250_000, epochs: 4, scanPasses: 3,
		rssEventsPerEpoch: 625_000, rssEpochs: 2}
}

// sweepReplayOpts is the bounded-memory configuration every replay of
// the sweep uses: engine-shaped event batches, cold owners retired
// after two accessless epochs, capacity released at epoch boundaries.
func sweepReplayOpts(rec obs.Recorder) trace.ReplayOpts {
	return trace.ReplayOpts{Batch: 64, EvictCold: 2, Compact: true, Recorder: rec}
}

func sweepGenConfig(s sweepScale) trace.GenConfig {
	return trace.GenConfig{
		Ranks: s.ranks, Events: s.eventsPerEpoch, Epochs: s.epochs,
		Owners: s.owners,
		// Skew 0.98 concentrates ~80% of the traffic on owner 0 and
		// leaves the owner tail cold for whole epochs at a time — the
		// workload the cold-owner eviction policy is built for.
		OwnerSkew: 0.98,
		Adjacency: 0.6, SafeOnly: true, Seed: 7,
	}
}

// traceIngestResults generates the sweep trace in both formats under a
// temp directory, then measures decode-only and full-replay passes.
func traceIngestResults(quick bool) []Result {
	s := sweepScaleFor(quick)
	dir, err := os.MkdirTemp("", "rmarace-sweep-")
	if err != nil {
		panic(fmt.Errorf("benchkit: trace sweep temp dir: %w", err))
	}
	defer os.RemoveAll(dir)

	jsonPath := dir + "/sweep.jsonl"
	binPath := dir + "/sweep.bin"
	genJSON(jsonPath, sweepGenConfig(s))
	convertJSONToBin(jsonPath, binPath)
	jsonBytes := fileSize(jsonPath)
	binBytes := fileSize(binPath)

	var out []Result

	// Decode-only: the codec's ingest rate with no analysis attached.
	// The formats take turns for scanPasses passes each and report their
	// median pass, so a slow stretch of a shared host or one preempted
	// pass cannot decide the binary-over-JSON ratio bench -check bounds.
	jsonPasses := make([]int64, s.scanPasses)
	binPasses := make([]int64, s.scanPasses)
	var records, binRecords int64
	for i := range jsonPasses {
		jsonPasses[i], records = scanTrace(jsonPath)
		binPasses[i], binRecords = scanTrace(binPath)
	}
	jsonScanNs, binScanNs := medianNs(jsonPasses), medianNs(binPasses)
	if records != binRecords {
		panic(fmt.Errorf("benchkit: sweep decode disagrees: %d JSON records, %d binary", records, binRecords))
	}
	out = append(out,
		scanResult(fmt.Sprintf("trace-ingest/r%d/json", s.ranks), s.scanPasses, jsonScanNs, jsonBytes, records, 0),
		scanResult(fmt.Sprintf("trace-ingest/r%d/bin", s.ranks), s.scanPasses, binScanNs, binBytes, records,
			float64(jsonScanNs)/float64(binScanNs)))

	// Full replay, bounded-memory options on, identical for both formats.
	jres, jNs, jPeak := replayTrace(jsonPath)
	bres, bNs, bPeak := replayTrace(binPath)
	if jres.Events != bres.Events || jres.Epochs != bres.Epochs || (jres.Race == nil) != (bres.Race == nil) {
		panic(fmt.Errorf("benchkit: sweep replays diverged: JSON %+v, binary %+v", jres, bres))
	}
	out = append(out,
		replayResult(fmt.Sprintf("trace-replay/r%d/json", s.ranks), jNs, jres, jPeak, 0),
		replayResult(fmt.Sprintf("trace-replay/r%d/bin", s.ranks), bNs, bres, bPeak,
			float64(jNs)/float64(bNs)))

	out = append(out, rssGrowthResult(s, dir))
	return out
}

// rssGrowthResult replays the same binary workload at 1x and 4x the
// epoch count (constant events per epoch, so 4x the events) and
// records the peak live heap of each: with eviction and compaction on,
// resident state tracks the hot owner set, not the stream length, so
// the growth factor is gated ~flat (<= 2x at 4x the events).
func rssGrowthResult(s sweepScale, dir string) Result {
	small := sweepGenConfig(s)
	small.Events, small.Epochs = s.rssEventsPerEpoch, s.rssEpochs
	large := small
	large.Epochs = small.Epochs * 4

	smallPath := dir + "/rss-small.bin"
	largePath := dir + "/rss-large.bin"
	genBin(smallPath, small)
	genBin(largePath, large)

	sres, _, sPeak := replayTrace(smallPath)
	lres, lNs, lPeak := replayTrace(largePath)
	m := map[string]float64{
		"events_small":    float64(sres.Events),
		"events_large":    float64(lres.Events),
		"rss_small_bytes": float64(sPeak),
		"rss_large_bytes": float64(lPeak),
		"evictions":       float64(lres.Evictions),
		"scale_x":         4,
	}
	if sPeak > 0 {
		m["growth_x"] = float64(lPeak) / float64(sPeak)
	}
	return Result{
		Name:       fmt.Sprintf("trace-rss/r%d/growth", s.ranks),
		Iterations: 1,
		NsPerOp:    float64(lNs),
		Metrics:    m,
	}
}

func genJSON(path string, cfg trace.GenConfig) {
	f, err := os.Create(path)
	if err != nil {
		panic(fmt.Errorf("benchkit: trace sweep: %w", err))
	}
	if _, err := trace.Generate(f, cfg); err != nil {
		panic(fmt.Errorf("benchkit: generating sweep trace: %w", err))
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
}

func genBin(path string, cfg trace.GenConfig) {
	f, err := os.Create(path)
	if err != nil {
		panic(fmt.Errorf("benchkit: trace sweep: %w", err))
	}
	bw, err := tracebin.NewWriter(f, trace.Header{Ranks: cfg.Ranks, Window: "synthetic"})
	if err != nil {
		panic(err)
	}
	if _, err := trace.GenerateTo(bw, cfg); err != nil {
		panic(fmt.Errorf("benchkit: generating binary sweep trace: %w", err))
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
}

func convertJSONToBin(jsonPath, binPath string) {
	in, err := os.Open(jsonPath)
	if err != nil {
		panic(err)
	}
	defer in.Close()
	src, _, err := tracebin.Open(in)
	if err != nil {
		panic(err)
	}
	out, err := os.Create(binPath)
	if err != nil {
		panic(err)
	}
	bw, err := tracebin.NewWriter(out, src.Head())
	if err != nil {
		panic(err)
	}
	if _, err := tracebin.Convert(bw, src); err != nil {
		panic(fmt.Errorf("benchkit: converting sweep trace: %w", err))
	}
	if err := out.Close(); err != nil {
		panic(err)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	return fi.Size()
}

// scanTrace decodes every record of the trace without analysing it and
// returns the elapsed wall time — the pure ingest cost of the format.
func scanTrace(path string) (ns int64, records int64) {
	f, err := os.Open(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	src, _, err := tracebin.Open(f)
	if err != nil {
		panic(err)
	}
	var rec trace.Record
	start := time.Now()
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(fmt.Errorf("benchkit: scanning %s: %w", path, err))
		}
		records++
	}
	return time.Since(start).Nanoseconds(), records
}

// replayTrace runs the full bounded-memory streaming replay and
// returns the result, wall time, and the peak live heap the replay's
// recorder sampled.
func replayTrace(path string) (trace.ReplayResult, int64, int64) {
	f, err := os.Open(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	src, _, err := tracebin.Open(f)
	if err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	newA := func(int) detector.Analyzer { return core.New() }
	runtime.GC() // clean baseline for the peak-heap high-water mark
	start := time.Now()
	res, err := trace.ReplayStream(src, newA, sweepReplayOpts(reg))
	if err != nil {
		panic(fmt.Errorf("benchkit: replaying %s: %w", path, err))
	}
	return res, time.Since(start).Nanoseconds(), reg.Total(obs.PeakRSS)
}

func scanResult(name string, passes int, ns, bytes, records int64, speedup float64) Result {
	sec := float64(ns) / 1e9
	m := map[string]float64{
		"mb_per_s":      float64(bytes) / 1e6 / sec,
		"records_per_s": float64(records) / sec,
		"trace_bytes":   float64(bytes),
		"records":       float64(records),
	}
	if speedup > 0 {
		m["speedup_x"] = speedup
	}
	return Result{Name: name, Iterations: passes, NsPerOp: float64(ns), Metrics: m}
}

// medianNs returns the median of the pass times, sorting them.
func medianNs(passes []int64) int64 {
	slices.Sort(passes)
	return passes[len(passes)/2]
}

func replayResult(name string, ns int64, res trace.ReplayResult, peak int64, speedup float64) Result {
	sec := float64(ns) / 1e9
	m := map[string]float64{
		"events_per_s":   float64(res.Events) / sec,
		"events":         float64(res.Events),
		"epochs":         float64(res.Epochs),
		"max_nodes":      float64(res.MaxNodes),
		"evictions":      float64(res.Evictions),
		"peak_rss_bytes": float64(peak),
	}
	if speedup > 0 {
		m["speedup_x"] = speedup
	}
	return Result{Name: name, Iterations: 1, NsPerOp: float64(ns), Metrics: m}
}
