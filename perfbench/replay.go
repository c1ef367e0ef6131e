package main

import (
	"bytes"
	"fmt"
	"time"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/serve"
	"rmarace/internal/store"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// replay analyses one in-memory trace (JSON or RMTB, sniffed) the way
// `rmarace replay` and the daemon's sessions do: tracebin.Open, then
// serve.NewAnalyzerFactory for the contribution on the default store,
// then trace.ReplayStream. rec switches the analyzers' recording on, as
// the daemon's per-session registry does.
func replay(data []byte, ro trace.ReplayOpts, rec obs.Recorder) (trace.ReplayResult, error) {
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		return trace.ReplayResult{}, err
	}
	factory, _, err := serve.NewAnalyzerFactory(detector.OurContribution, src.Head().Ranks, "", 1, rec)
	if err != nil {
		return trace.ReplayResult{}, err
	}
	ro.Recorder = rec
	return trace.ReplayStream(src, factory, ro)
}

// checkTimeable fails when the decorators would not forward every
// capability of the analyzer and store replayTraced builds, i.e. when
// timing them would change the program's code path.
func checkTimeable() error {
	if _, err := timeStore(store.NewAVL(), &layerTime{}); err != nil {
		return err
	}
	_, err := timeAnalyzer(core.Build(core.WithOwner(0)), &layerTime{})
	return err
}

// replayTraced is replay with the decoder, every analyzer and every
// store timed into clk. The analyzers are built as
// serve.NewAnalyzerFactory builds the contribution's (owner, AVL store,
// one shard, recorder when rec is enabled); only the store comes from a
// factory, so it can be wrapped beneath the recorder's decorator. Call
// checkTimeable once first.
func replayTraced(data []byte, ro trace.ReplayOpts, rec obs.Recorder, clk *layerClock) (trace.ReplayResult, error) {
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		return trace.ReplayResult{}, err
	}
	recording := rec != nil && rec.Enabled()
	newStore := func() store.AccessStore {
		// checkTimeable proved the AVL store's capabilities are all
		// forwarded, so wrapping cannot fail.
		s, _ := timeStore(store.NewAVL(), &clk.store)
		return s
	}
	factory := func(owner int) detector.Analyzer {
		clk.builds++
		opts := []core.Option{core.WithOwner(owner), core.WithStoreFactory(newStore)}
		if recording {
			opts = append(opts, core.WithRecorder(rec, owner))
		}
		a, _ := timeAnalyzer(core.Build(opts...), &clk.analyzer)
		return a
	}
	ro.Recorder = rec
	return trace.ReplayStream(timedSource{src, &clk.read}, factory, ro)
}

// sameVerdict reports whether two replays of one trace agree on
// everything a verdict carries: events, epochs, max_nodes and the race.
func sameVerdict(a, b trace.ReplayResult) bool {
	if a.Events != b.Events || a.Epochs != b.Epochs || a.MaxNodes != b.MaxNodes {
		return false
	}
	if (a.Race == nil) != (b.Race == nil) {
		return false
	}
	return a.Race == nil || a.Race.Message() == b.Race.Message()
}

// layerMetrics turns the timers of traced replays covering wallNs of
// wall time and events analysed events into the per-layer metrics:
// decoder time under decoder (tracebin or trace), the replay loop's
// remainder, and the analyzer's self time net of its store.
func layerMetrics(m map[string]metric, decoder string, clk *layerClock, wallNs int64, events int64) error {
	if wallNs <= 0 || events <= 0 || clk.read.items == 0 || clk.analyzer.calls == 0 || clk.store.calls == 0 {
		return fmt.Errorf("traced replay recorded no work (wall %d ns, %d events)", wallNs, events)
	}
	wall := float64(wallNs)
	self := float64(clk.analyzer.ns - clk.store.ns)
	m[decoder+".read_ns_per_record"] = metric{float64(clk.read.ns) / float64(clk.read.items), "ns"}
	m[decoder+".read_share"] = metric{float64(clk.read.ns) / wall, "frac"}
	m["trace.loop_share"] = metric{(wall - float64(clk.read.ns) - float64(clk.analyzer.ns)) / wall, "frac"}
	m["core.self_ns_per_event"] = metric{self / float64(events), "ns"}
	m["core.share"] = metric{self / wall, "frac"}
	m["core.events_per_call"] = metric{float64(clk.analyzer.items) / float64(clk.analyzer.calls), "count"}
	m["store.ns_per_op"] = metric{float64(clk.store.ns) / float64(clk.store.calls), "ns"}
	m["store.ops_per_event"] = metric{float64(clk.store.calls) / float64(events), "count"}
	m["store.share"] = metric{float64(clk.store.ns) / wall, "frac"}
	return nil
}

// since is the wall time since t0 in ns.
func since(t0 time.Time) int64 { return int64(time.Since(t0)) }
