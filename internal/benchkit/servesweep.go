package benchkit

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/serve"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// The serve sweep (PR 8): a daemon hosted in-process behind an HTTP
// test server, hit with a fan-out of concurrent sessions streaming
// mixed JSON/binary traces across several tenants. The snapshot
// records the daemon's aggregate ingest throughput and — the gated
// part — that every served verdict matched an offline replay of the
// same trace and that a tenant over its concurrency quota observably
// got a 429. Series:
//
//	serve-agg/sN        N concurrent sessions: aggregate MB/s,
//	                    sessions/s, verdict_mismatches (gated == 0)
//	serve-quota/rejects admission control: quota_rejects (gated >= 1)
func serveSweepResults(quick bool) []Result {
	sessions := 256
	if quick {
		sessions = 64
	}
	return []Result{serveAggResult(sessions), serveQuotaResult()}
}

// serveBase is one pre-rendered trace plus its offline ground truth.
type serveBase struct {
	data []byte
	want trace.ReplayResult
}

func serveBases() []serveBase {
	var bases []serveBase
	for seed := int64(0); seed < 2; seed++ {
		for _, planted := range []bool{false, true} {
			cfg := trace.GenConfig{
				Ranks: 8, Events: 4_000, Epochs: 2, Owners: 8,
				Adjacency: 0.5, SafeOnly: true, PlantRace: planted, Seed: 40 + seed,
			}
			for _, format := range []string{"json", "bin"} {
				var buf bytes.Buffer
				var sink trace.Sink
				var err error
				h := trace.Header{Ranks: cfg.Ranks, Window: "synthetic"}
				if format == "bin" {
					sink, err = tracebin.NewWriter(&buf, h)
				} else {
					sink, err = trace.NewWriter(&buf, h)
				}
				if err != nil {
					panic(fmt.Errorf("benchkit: serve sweep writer: %w", err))
				}
				if _, err := trace.GenerateTo(sink, cfg); err != nil {
					panic(fmt.Errorf("benchkit: generating serve sweep trace: %w", err))
				}
				bases = append(bases, serveBase{buf.Bytes(), serveOffline(buf.Bytes())})
			}
		}
	}
	return bases
}

// serveOffline replays a trace the way `rmarace replay` would — the
// ground truth every served verdict is compared against.
func serveOffline(data []byte) trace.ReplayResult {
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		panic(err)
	}
	factory, _, err := serve.NewAnalyzerFactory(detector.OurContribution, src.Head().Ranks, "", 1, nil)
	if err != nil {
		panic(err)
	}
	res, err := trace.ReplayStream(src, factory, trace.ReplayOpts{})
	if err != nil {
		panic(fmt.Errorf("benchkit: serve sweep offline replay: %w", err))
	}
	return res
}

// serveSubmit posts one trace body for tenant through serve.Submit,
// the client `rmarace submit` uses.
func serveSubmit(client *http.Client, url, tenant string, body io.Reader) (int, *serve.Verdict, error) {
	return serve.Submit(context.Background(), url,
		func() (io.ReadCloser, error) { return io.NopCloser(body), nil },
		serve.SubmitOpts{Tenant: tenant, Client: client})
}

// serveAggResult fans out the concurrent-session load and measures the
// daemon's aggregate throughput plus verdict fidelity.
func serveAggResult(sessions int) Result {
	bases := serveBases()
	d := serve.NewDaemon(serve.Config{Workers: 8, MaxSessions: sessions, TenantSessions: sessions})
	srv := httptest.NewServer(d)
	defer srv.Close()

	var bytesIn, mismatches, failures atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sessions; i++ {
		b := bases[i%len(bases)]
		tenant := fmt.Sprintf("tenant-%d", i%5)
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, v, err := serveSubmit(srv.Client(), srv.URL, tenant, bytes.NewReader(b.data))
			if err != nil || code != http.StatusOK {
				failures.Add(1)
				return
			}
			bytesIn.Add(int64(len(b.data)))
			switch {
			case (b.want.Race == nil) != (v.Race == nil):
				mismatches.Add(1)
			case b.want.Race != nil && v.Race.Message != b.want.Race.Message():
				mismatches.Add(1)
			case v.Events != b.want.Events || v.Epochs != b.want.Epochs || v.MaxNodes != b.want.MaxNodes:
				mismatches.Add(1)
			}
		}()
	}
	wg.Wait()
	ns := time.Since(start).Nanoseconds()
	if n := failures.Load(); n > 0 {
		panic(fmt.Errorf("benchkit: serve sweep: %d of %d sessions failed", n, sessions))
	}
	sec := float64(ns) / 1e9
	return Result{
		Name:       fmt.Sprintf("serve-agg/s%d", sessions),
		Iterations: 1,
		NsPerOp:    float64(ns) / float64(sessions),
		Metrics: map[string]float64{
			"sessions":           float64(sessions),
			"sessions_per_s":     float64(sessions) / sec,
			"agg_mb_per_s":       float64(bytesIn.Load()) / 1e6 / sec,
			"ingest_bytes":       float64(bytesIn.Load()),
			"verdict_mismatches": float64(mismatches.Load()),
			"races_served":       float64(d.Registry().Total(obs.ServeRaces)),
		},
	}
}

// serveQuotaResult exercises admission control: one tenant holds its
// single session slot open mid-stream while a second submission from
// the same tenant must bounce with 429, observable in the daemon's
// quota-reject counter.
func serveQuotaResult() Result {
	d := serve.NewDaemon(serve.Config{Workers: 2, MaxSessions: 4, TenantSessions: 1})
	srv := httptest.NewServer(d)
	defer srv.Close()

	bases := serveBases()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		code, _, err := serveSubmit(srv.Client(), srv.URL, "hog", pr)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("held session finished with %d", code)
		}
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for d.Registry().Total(obs.ServeActiveSessions) == 0 {
		if time.Now().After(deadline) {
			panic(fmt.Errorf("benchkit: serve quota sweep: held session never admitted"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	code, _, err := serveSubmit(srv.Client(), srv.URL, "hog", bytes.NewReader(bases[0].data))
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		panic(fmt.Errorf("benchkit: serve quota sweep: %w", err))
	}
	if code != http.StatusTooManyRequests {
		panic(fmt.Errorf("benchkit: serve quota sweep: over-quota session got %d, want 429", code))
	}
	// Release the hog with a real stream so the held session completes.
	if _, err := pw.Write(bases[0].data); err != nil {
		panic(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		panic(fmt.Errorf("benchkit: serve quota sweep: %w", err))
	}
	return Result{
		Name:       "serve-quota/rejects",
		Iterations: 1,
		NsPerOp:    float64(ns),
		Metrics: map[string]float64{
			"quota_rejects": float64(d.Registry().Total(obs.ServeQuotaRejects)),
			"limit_aborts":  float64(d.Registry().Total(obs.ServeLimitAborts)),
		},
	}
}
