package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"rmarace/internal/obs"
	"rmarace/internal/obs/telemetry"
	"rmarace/internal/serve"
	"rmarace/internal/trace"
)

// serve-json: a closed loop of one client on one kept-alive connection
// submitting through serve.Submit (the `rmarace submit` client) to an
// in-process serve.NewDaemon over loopback HTTP. It sends a fixed
// round-robin of same-size JSON traces, half with a planted race, with
// no query parameters, as `rmarace submit` does by default. Chosen
// because JSON decode is most of a session and the analyzer runs its
// per-event path with recording on, where replay-bin runs the batch
// path with recording off; it loads the JSON reader and the serve
// layer. One client, one format and one size keep the latency
// distribution unimodal. An op is one session, submit to verdict read.

// serveBest is how many consecutive sessions of the round-robin make one
// group; latency_p95_ms is taken over each group's fastest session.
// Every trace has the same size and shape (within a run, per-trace
// median latencies agree within a few percent, racy and safe alike), so
// the three are one session's cost drawn three times, and a stall of
// the host rarely hits all three: over six 30-second seeds the p95 of
// single sessions spread 26% between quartiles and that of the fastest
// of three 4%.
const serveBest = 3

// serveGen is the shape of every session trace: the daemon sweep's 8
// ranks and 2 epochs, but 1,000 events (about 150 KB, a 3–6 ms session)
// rather than its 8,000; Seed and PlantRace vary per trace. On a 2-vCPU
// shared VM, where a neighbour slows this JSON path by up to 1.7× for
// stretches of milliseconds to seconds, a 26 ms session averaged those
// stretches into its latency and the session p50 of six interleaved
// seeds spread 31% between quartiles; short sessions mostly miss them,
// and the p50 spread 4%.
var serveGen = trace.GenConfig{
	Ranks: 8, Owners: 8, Events: 500, Epochs: 2, Adjacency: 0.5, SafeOnly: true,
}

// serveTraces is the round-robin's length: half safe, half racy. A
// run's max_nodes is the largest over these traces, so more of them
// keep one seed's draw from setting it: at 8 traces of this size it
// spread 9% between quartiles over five seeds.
const serveTraces = 16

// serveWarmRounds is how many times a set-up submits every trace before
// the first timed session: about a quarter second, so set-up time does
// not rest on a handful of sessions.
const serveWarmRounds = 4

// serveInput is one trace of the round-robin and its offline verdict.
type serveInput struct {
	data []byte
	want trace.ReplayResult
}

// serveBench is one set-up: the traces, a running daemon and the
// client's connection to it.
type serveBench struct {
	inputs []serveInput
	daemon *serve.Daemon
	srv    *telemetry.Server
	client *http.Client
	bytes  int
}

func setupServe(seed int64) (*serveBench, error) {
	b := &serveBench{}
	for i := 0; i < serveTraces; i++ {
		cfg := serveGen
		cfg.Seed = seed*serveTraces + int64(i)
		cfg.PlantRace = i%2 == 1
		var buf bytes.Buffer
		if _, err := trace.Generate(&buf, cfg); err != nil {
			return nil, fmt.Errorf("generating session trace: %w", err)
		}
		// Ground truth: the offline replay of the same bytes with the
		// daemon's default options.
		want, err := replay(buf.Bytes(), trace.ReplayOpts{}, nil)
		if err != nil {
			return nil, fmt.Errorf("offline replay: %w", err)
		}
		if (want.Race != nil) != cfg.PlantRace {
			return nil, fmt.Errorf("offline replay of trace %d: race %v, planted %v", i, want.Race, cfg.PlantRace)
		}
		b.inputs = append(b.inputs, serveInput{buf.Bytes(), want})
		b.bytes += buf.Len()
	}
	d, srv, err := serve.Start("127.0.0.1:0", serve.Config{})
	if err != nil {
		return nil, err
	}
	b.daemon, b.srv = d, srv
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	// Warm-up: every trace serveWarmRounds times, through the connection
	// the loop reuses.
	for n := 0; n < serveWarmRounds*len(b.inputs); n++ {
		i := n % len(b.inputs)
		ok, _, err := b.submit(i)
		if err == nil && !ok {
			err = fmt.Errorf("warm-up session %d: verdict differs from the offline replay", i)
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	_ = b.srv.Close() // a failed shutdown of a finished daemon changes no result
}

// submit sends trace i as one session and reports whether the served
// verdict equals the offline one, with the session's elapsed time as the
// daemon measured it (admission to verdict, every stage included). A
// non-200 answer is a wrong result; a transport failure is an error,
// which the measured loop counts as a failed session too.
func (b *serveBench) submit(i int) (bool, time.Duration, error) {
	in := b.inputs[i]
	code, v, err := serve.Submit(context.Background(), b.srv.URL(),
		func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(in.data)), nil },
		serve.SubmitOpts{Client: b.client})
	if err != nil {
		return false, 0, fmt.Errorf("session %d: %w", i, err)
	}
	elapsed := time.Duration(v.ElapsedNs)
	if code != http.StatusOK || v.Events != in.want.Events || v.Epochs != in.want.Epochs || v.MaxNodes != in.want.MaxNodes {
		return false, elapsed, nil
	}
	if in.want.Race == nil {
		return v.Race == nil, elapsed, nil
	}
	return v.Race != nil && v.Race.Message == in.want.Race.Message(), elapsed, nil
}

func serveJSON(o opts) (*outcome, error) {
	b, setupS, err := timeSetup(func() (*serveBench, error) { return setupServe(o.seed) }, (*serveBench).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	out := &outcome{
		metrics: map[string]metric{},
		samples: map[string]int{},
		config: map[string]any{
			"ranks": serveGen.Ranks, "events_per_trace": serveGen.Epochs * serveGen.Events,
			"traces": serveTraces, "racy_traces": serveTraces / 2, "trace_bytes": b.bytes,
			"format": "json", "clients": 1,
		},
	}
	if o.traced {
		return out, serveTraced(o, b, out)
	}

	next, maxNodes := 0, 0
	ms, err := measureLoop(o.measure, minSamples(0.95), serveBest, func() (int, bool, error) {
		i := next % len(b.inputs)
		next++
		ok, _, err := b.submit(i)
		if !ok {
			return 0, false, err
		}
		maxNodes = max(maxNodes, b.inputs[i].want.MaxNodes)
		return b.inputs[i].want.Events, true, err
	})
	if err != nil {
		return nil, err
	}
	out.config["sessions"] = len(ms.lat)
	out.metrics["max_nodes"] = metric{float64(maxNodes), "count"}
	return out, out.endToEnd(ms, setupS)
}

// serveTraced spends half the measured time on sessions, read back as
// the daemon's stage histograms, and half on offline replays of the
// same traces with the daemon's options (per-event, recording on),
// alternating untimed and timed ones, for the decoder, core and store
// split of a session's work.
func serveTraced(o opts, b *serveBench, out *outcome) error {
	if err := checkTimeable(); err != nil {
		return err
	}
	reg := b.daemon.Registry()
	before := reg.Snapshot()
	var httpMs []float64 // per session: client latency minus the daemon's elapsed time
	next := 0
	ms, err := measureLoop(o.measure/2, minSamples(0.5), 1, func() (int, bool, error) {
		i := next % len(b.inputs)
		next++
		t0 := time.Now()
		ok, elapsed, err := b.submit(i)
		if err == nil {
			httpMs = append(httpMs, float64(time.Since(t0)-elapsed)/1e6)
		}
		return b.inputs[i].want.Events, ok, err
	})
	if err != nil {
		return err
	}
	out.attempted, out.failed = len(ms.lat), ms.bad
	out.config["sessions"] = len(ms.lat)
	m := out.metrics
	for _, s := range []struct {
		name string
		m    obs.Metric
	}{
		{"serve.queue_ms_p50", obs.ServeStageQueueNanos},
		{"serve.ingest_ms_p50", obs.ServeStageIngestNanos},
		{"serve.drain_ms_p50", obs.ServeStageDrainNanos},
		{"serve.report_ms_p50", obs.ServeStageReportNanos},
	} {
		ns, n := histP50(before, reg.Snapshot(), s.m)
		m[s.name] = metric{ns / 1e6, "ms"}
		out.samples[s.name] = int(n)
	}
	m["serve.http_ms_p50"] = metric{median(httpMs), "ms"}
	out.samples["serve.http_ms_p50"] = len(httpMs)
	m["serve.quota_rejects"] = metric{float64(reg.Total(obs.ServeQuotaRejects)), "count"}
	m["serve.limit_aborts"] = metric{float64(reg.Total(obs.ServeLimitAborts)), "count"}

	var clk layerClock
	var plainNs, tracedNs, tracedEvents, evictions int64
	replays, next := 0, 0
	traced := false
	rs, err := measureLoop(o.measure/2, 2*len(b.inputs), 1, func() (int, bool, error) {
		traced = !traced
		in := b.inputs[next%len(b.inputs)]
		if !traced {
			next++
		}
		t0 := time.Now()
		if !traced {
			res, err := replay(in.data, trace.ReplayOpts{}, obs.NewRegistry())
			plainNs += since(t0)
			return res.Events, err == nil && sameVerdict(res, in.want), err
		}
		res, err := replayTraced(in.data, trace.ReplayOpts{}, obs.NewRegistry(), &clk)
		tracedNs += since(t0)
		tracedEvents += int64(res.Events)
		evictions += res.Evictions
		replays++
		return res.Events, err == nil && sameVerdict(res, in.want), err
	})
	if err != nil {
		return err
	}
	out.attempted += len(rs.lat)
	out.failed += rs.bad
	if err := layerMetrics(m, "trace", &clk, tracedNs, tracedEvents); err != nil {
		return err
	}
	m["trace.analyzer_builds"] = metric{float64(clk.builds) / float64(replays), "count"}
	m["trace.owners"] = metric{float64(serveGen.Owners), "count"}
	m["trace.evictions"] = metric{float64(evictions) / float64(replays), "count"}
	m["traced_overhead_x"] = metric{float64(tracedNs) / float64(plainNs), "x"}
	out.samples["traced_replays"] = replays
	fillAbsent(m)
	return nil
}

// histP50 is the median of histogram metric hm over the samples
// recorded between two registry snapshots, with the sample count.
func histP50(before, after []obs.MetricSnapshot, hm obs.Metric) (float64, int64) {
	counts := map[int64]int64{}
	for i, snaps := range [][]obs.MetricSnapshot{before, after} {
		sign := int64(2*i - 1) // before subtracts, after adds
		for _, s := range snaps {
			if s.Name != hm.Name() {
				continue
			}
			for _, pt := range s.Series {
				for _, bc := range pt.Buckets {
					counts[bc.Low] += sign * bc.Count
				}
			}
		}
	}
	return bucketP50(counts)
}
