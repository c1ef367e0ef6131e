package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// replay-bin: the documented large-trace path, `rmarace replay -batch 64
// -evict 2 -compact` (tracebin.Open → serve.NewAnalyzerFactory →
// trace.ReplayStream), over an in-memory RMTB trace shaped like
// benchkit's trace sweep: ~a thousand owners at owner skew 0.98,
// adjacency 0.6, race-free. Chosen because the store and the analyzer's
// batch path do most of the work and the binary decoder little, so it
// loads the store and core layers; it plants no race because a
// race-stopped replay reports a partial max_nodes. An op is one replay
// pass over the whole trace.

// replayBinGen is the shape of every trace; Seed comes from --seed.
var replayBinGen = trace.GenConfig{
	Ranks: 1024, Owners: 1024, OwnerSkew: 0.98, Adjacency: 0.6, SafeOnly: true,
	Events: 25_000, Epochs: 4,
}

// replayBinTraces is how many traces of that shape a run cycles
// through, so one seed's draw of the skewed owner mix does not set the
// run's result alone.
const replayBinTraces = 4

// replayBinBest is one, so every pass is its own sample: a pass takes
// about 140 ms on a 2-vCPU shared VM, and the 200 samples a p95 needs
// already fill a 30-second run.
const replayBinBest = 1

// replayBinOpts are the replay options of the documented path.
var replayBinOpts = trace.ReplayOpts{Batch: 64, EvictCold: 2, Compact: true}

// replayBinInput is one trace and the verdict every pass over it must
// reproduce.
type replayBinInput struct {
	data    []byte
	events  int // generated access events
	records int
	owners  int // distinct owners in the trace
	want    trace.ReplayResult
}

func setupReplayBin(seed int64) ([]*replayBinInput, error) {
	var ins []*replayBinInput
	for i := 0; i < replayBinTraces; i++ {
		cfg := replayBinGen
		cfg.Seed = seed*replayBinTraces + int64(i)
		in, err := setupReplayBinTrace(cfg)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

func setupReplayBinTrace(cfg trace.GenConfig) (*replayBinInput, error) {
	var buf bytes.Buffer
	w, err := tracebin.NewWriter(&buf, trace.Header{Ranks: cfg.Ranks, Window: "synthetic"})
	if err != nil {
		return nil, err
	}
	events, err := trace.GenerateTo(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	in := &replayBinInput{data: buf.Bytes(), events: events}

	// Ground truth from the generator and a decode-only scan: every
	// access is analysed, each owner closes every epoch, nothing races.
	src, _, err := tracebin.Open(bytes.NewReader(in.data))
	if err != nil {
		return nil, err
	}
	owners := map[int]bool{}
	var rec trace.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("scanning trace: %w", err)
		}
		in.records++
		owners[rec.Owner] = true
	}
	in.owners = len(owners)

	// Two warm-up passes: the first fixes max_nodes, the second must
	// repeat it exactly.
	for i := 0; i < 2; i++ {
		res, err := replay(in.data, replayBinOpts, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
		if res.Race != nil || res.Events != events || res.Epochs != cfg.Epochs*in.owners {
			return nil, fmt.Errorf("warm-up replay: %d events, %d epochs, race %v; want %d, %d, none",
				res.Events, res.Epochs, res.Race, events, cfg.Epochs*in.owners)
		}
		if i == 1 && res.MaxNodes != in.want.MaxNodes {
			return nil, fmt.Errorf("warm-up replay: max_nodes %d then %d", in.want.MaxNodes, res.MaxNodes)
		}
		in.want = res
	}
	return in, nil
}

func replayBin(o opts) (*outcome, error) {
	ins, setupS, err := timeSetup(func() ([]*replayBinInput, error) { return setupReplayBin(o.seed) }, func([]*replayBinInput) {})
	if err != nil {
		return nil, err
	}
	var events, records, size, owners []int
	for _, in := range ins {
		events = append(events, in.events)
		records = append(records, in.records)
		size = append(size, len(in.data))
		owners = append(owners, in.owners)
	}
	out := &outcome{
		metrics: map[string]metric{},
		samples: map[string]int{},
		config: map[string]any{
			"ranks": replayBinGen.Ranks, "owners": owners, "owner_skew": replayBinGen.OwnerSkew,
			"adjacency": replayBinGen.Adjacency, "epochs": replayBinGen.Epochs,
			"events": events, "records": records, "trace_bytes": size,
			"replay": "batch 64, evict 2, compact",
		},
	}
	if o.traced {
		return out, replayBinTraced(o, ins, out)
	}

	maxNodes, next := 0, 0
	ms, err := measureLoop(o.measure, minSamples(0.95), replayBinBest, func() (int, bool, error) {
		in := ins[next%len(ins)]
		next++
		res, err := replay(in.data, replayBinOpts, nil)
		if err != nil {
			return 0, false, err
		}
		maxNodes = max(maxNodes, res.MaxNodes)
		return res.Events, sameVerdict(res, in.want), nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["max_nodes"] = metric{float64(maxNodes), "count"}
	return out, out.endToEnd(ms, setupS)
}

// replayBinTraced alternates untimed and traced passes over each trace,
// so host drift hits both alike, and reports the per-layer split of the
// traced ones.
func replayBinTraced(o opts, ins []*replayBinInput, out *outcome) error {
	if err := checkTimeable(); err != nil {
		return err
	}
	var clk layerClock
	var plain, timed []float64
	var tracedNs, tracedEvents, evictions, owners int64
	next := 0
	ms, err := measureLoop(o.measure, 4*len(ins), 1, func() (int, bool, error) {
		in := ins[next/2%len(ins)]
		traced := next%2 == 1
		next++
		t0 := time.Now()
		if !traced {
			res, err := replay(in.data, replayBinOpts, nil)
			plain = append(plain, msSince(t0))
			return res.Events, err == nil && sameVerdict(res, in.want), err
		}
		res, err := replayTraced(in.data, replayBinOpts, nil, &clk)
		ns := since(t0)
		timed = append(timed, float64(ns)/1e6)
		tracedNs += ns
		tracedEvents += int64(res.Events)
		evictions += res.Evictions
		owners += int64(in.owners)
		return res.Events, err == nil && sameVerdict(res, in.want), err
	})
	if err != nil {
		return err
	}
	out.attempted, out.failed = len(ms.lat), ms.bad
	m := out.metrics
	if err := layerMetrics(m, "tracebin", &clk, tracedNs, tracedEvents); err != nil {
		return err
	}
	passes := float64(len(timed))
	m["trace.analyzer_builds"] = metric{float64(clk.builds) / passes, "count"}
	m["trace.owners"] = metric{float64(owners) / passes, "count"}
	m["trace.evictions"] = metric{float64(evictions) / passes, "count"}
	m["traced_overhead_x"] = metric{median(timed) / median(plain), "x"}
	out.samples["traced_passes"] = len(timed)
	out.samples["untimed_passes"] = len(plain)
	fillAbsent(m)
	return nil
}
