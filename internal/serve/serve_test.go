package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/store"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// genTrace renders one synthetic trace in the requested wire format.
func genTrace(t testing.TB, cfg trace.GenConfig, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	var sink trace.Sink
	var err error
	h := trace.Header{Ranks: cfg.Ranks, Window: "synthetic"}
	switch format {
	case "json":
		sink, err = trace.NewWriter(&buf, h)
	case "bin":
		sink, err = tracebin.NewWriter(&buf, h)
	default:
		t.Fatalf("unknown format %q", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.GenerateTo(sink, cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func safeCfg(seed int64) trace.GenConfig {
	return trace.GenConfig{Ranks: 4, Events: 120, Epochs: 2, Owners: 4,
		Adjacency: 0.5, SafeOnly: true, Seed: seed}
}

func racyCfg(seed int64) trace.GenConfig {
	c := safeCfg(seed)
	c.PlantRace = true
	return c
}

// offline replays a trace exactly like `rmarace replay` would, with
// the default (contribution) analyzer — the ground truth every served
// verdict must match.
func offline(t testing.TB, data []byte) trace.ReplayResult {
	t.Helper()
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	factory, _, err := NewAnalyzerFactory(detector.OurContribution, src.Head().Ranks, "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.ReplayStream(src, factory, trace.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// submit posts one trace body and decodes the verdict.
func submit(t testing.TB, client *http.Client, url, tenant string, body io.Reader, query string) (int, *Verdict) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/analyze"+query, body)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		// Error documents are {"error": ...}; return the status either way.
		return resp.StatusCode, nil
	}
	return resp.StatusCode, &v
}

func newTestDaemon(t testing.TB, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	d := NewDaemon(cfg)
	srv := httptest.NewServer(d)
	t.Cleanup(srv.Close)
	return d, srv
}

// TestVerdictsMatchOffline: one safe and one racy trace, both formats,
// served verdicts must agree with offline replay — same race message
// (byte-identical Fig. 9 line), same event/epoch/node counts.
func TestVerdictsMatchOffline(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	for _, tc := range []struct {
		name string
		cfg  trace.GenConfig
	}{
		{"safe", safeCfg(3)},
		{"racy", racyCfg(4)},
	} {
		for _, format := range []string{"json", "bin"} {
			data := genTrace(t, tc.cfg, format)
			want := offline(t, data)
			code, v := submit(t, srv.Client(), srv.URL, "t0", bytes.NewReader(data), "")
			if code != http.StatusOK || v == nil {
				t.Fatalf("%s/%s: status %d", tc.name, format, code)
			}
			if v.Format != format {
				t.Errorf("%s/%s: sniffed format %q", tc.name, format, v.Format)
			}
			if v.Events != want.Events || v.Epochs != want.Epochs || v.MaxNodes != want.MaxNodes {
				t.Errorf("%s/%s: served %d ev / %d ep / %d nodes, offline %d / %d / %d",
					tc.name, format, v.Events, v.Epochs, v.MaxNodes, want.Events, want.Epochs, want.MaxNodes)
			}
			switch {
			case want.Race == nil && v.Race != nil:
				t.Errorf("%s/%s: served race %q, offline clean", tc.name, format, v.Race.Message)
			case want.Race != nil && v.Race == nil:
				t.Errorf("%s/%s: served clean, offline raced %q", tc.name, format, want.Race.Message())
			case want.Race != nil && v.Race.Message != want.Race.Message():
				t.Errorf("%s/%s: race message diverged:\n served  %s\n offline %s",
					tc.name, format, v.Race.Message, want.Race.Message())
			}
		}
	}
}

// TestConcurrentSessionsMatchOffline is the scale stress: >= 100
// concurrent sessions, mixed JSON/binary and mixed memory policies,
// every verdict identical to offline replay, under -race.
func TestConcurrentSessionsMatchOffline(t *testing.T) {
	const sessions = 104
	d, srv := newTestDaemon(t, Config{Workers: 8, MaxSessions: sessions, TenantSessions: sessions})

	// Four base traces (safe/racy × two seeds), each in both formats,
	// with offline ground truth computed once.
	type base struct {
		data []byte
		want trace.ReplayResult
	}
	var bases []base
	for seed := int64(0); seed < 2; seed++ {
		for _, cfg := range []trace.GenConfig{safeCfg(10 + seed), racyCfg(20 + seed)} {
			for _, format := range []string{"json", "bin"} {
				data := genTrace(t, cfg, format)
				bases = append(bases, base{data, offline(t, data)})
			}
		}
	}

	queries := []string{"", "?batch=64&evict=2&compact=true", "?evict=1", "?batch=16"}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		b := bases[i%len(bases)]
		q := queries[i%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", i%7)
			code, v := submit(t, srv.Client(), srv.URL, tenant, bytes.NewReader(b.data), q)
			if code != http.StatusOK || v == nil {
				errs <- fmt.Errorf("session %d: status %d", i, code)
				return
			}
			if (b.want.Race == nil) != (v.Race == nil) {
				errs <- fmt.Errorf("session %d (%s): verdict diverged from offline (offline race: %v, served race: %v)",
					i, q, b.want.Race != nil, v.Race != nil)
				return
			}
			if b.want.Race != nil && v.Race.Message != b.want.Race.Message() {
				errs <- fmt.Errorf("session %d (%s): race message diverged:\n served  %s\n offline %s",
					i, q, v.Race.Message, b.want.Race.Message())
				return
			}
			// The unbatched, no-eviction sessions must also reproduce the
			// counts exactly (batched racy replays may stop later).
			if q == "" && (v.Events != b.want.Events || v.Epochs != b.want.Epochs || v.MaxNodes != b.want.MaxNodes) {
				errs <- fmt.Errorf("session %d: counts diverged: served %d/%d/%d, offline %d/%d/%d",
					i, v.Events, v.Epochs, v.MaxNodes, b.want.Events, b.want.Epochs, b.want.MaxNodes)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := d.Registry().Total(obs.ServeSessions); got != sessions {
		t.Errorf("serve_sessions_total = %d, want %d", got, sessions)
	}
	if got := d.Registry().Total(obs.ServeActiveSessions); got != 0 {
		t.Errorf("serve_active_sessions = %d after drain, want 0", got)
	}
	if got := d.Registry().Total(obs.TraceIngestRecords); got <= 0 {
		t.Errorf("daemon registry saw no aggregate ingest records")
	}
}

// TestTenantQuotaRejects: a tenant at its concurrency quota gets 429
// before any body is read, the rejection is counted per tenant, and an
// unrelated tenant is unaffected.
func TestTenantQuotaRejects(t *testing.T) {
	d, srv := newTestDaemon(t, Config{Workers: 4, MaxSessions: 8, TenantSessions: 1})

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, _ := submit(t, srv.Client(), srv.URL, "hog", pr, "")
		if code != http.StatusOK {
			t.Errorf("held-open session finished with %d", code)
		}
	}()
	// Wait until the hog's session is admitted (active gauge moves).
	deadline := time.Now().Add(5 * time.Second)
	for d.Registry().Total(obs.ServeActiveSessions) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held-open session never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, _ := submit(t, srv.Client(), srv.URL, "hog", bytes.NewReader(genTrace(t, safeCfg(1), "bin")), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant got %d, want 429", code)
	}
	if got := d.Registry().Total(obs.ServeQuotaRejects); got != 1 {
		t.Errorf("serve_quota_rejects = %d, want 1", got)
	}
	// A different tenant still gets in.
	code, v := submit(t, srv.Client(), srv.URL, "polite", bytes.NewReader(genTrace(t, safeCfg(1), "json")), "")
	if code != http.StatusOK || v == nil || v.Race != nil {
		t.Fatalf("unrelated tenant rejected: %d", code)
	}

	// Release the hog: stream it a real trace so it completes cleanly.
	if _, err := pw.Write(genTrace(t, safeCfg(2), "json")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done

	// The rejection is scrapeable, labelled with the hog's tenant name
	// (the daemon's snapshot resolves interned ids to names).
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), `rmarace_serve_quota_rejects{tenant="hog"} 1`) {
		t.Errorf("/metrics missing quota rejection:\n%s", prom)
	}
	// And /v1/tenants resolves the label back to the name.
	resp, err = srv.Client().Get(srv.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tenants map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id, ok := tenants["hog"]; !ok || id != 0 {
		t.Errorf("tenant mapping %v, want hog=0", tenants)
	}
}

// TestDaemonCapacityRejects: the daemon-wide cap rejects even a fresh
// tenant.
func TestDaemonCapacityRejects(t *testing.T) {
	d, srv := newTestDaemon(t, Config{Workers: 2, MaxSessions: 1, TenantSessions: 1})
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		submit(t, srv.Client(), srv.URL, "a", pr, "")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.Registry().Total(obs.ServeActiveSessions) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, _ := submit(t, srv.Client(), srv.URL, "b", bytes.NewReader(genTrace(t, safeCfg(1), "bin")), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity session got %d, want 429", code)
	}
	if _, err := pw.Write(genTrace(t, safeCfg(2), "json")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
}

// TestSessionQuotas: per-session byte and record limits abort the
// stream with 413 and count serve_limit_aborts.
func TestSessionQuotas(t *testing.T) {
	big := genTrace(t, trace.GenConfig{Ranks: 4, Events: 2000, Epochs: 2, Adjacency: 0.5, SafeOnly: true, Seed: 9}, "bin")

	d, srv := newTestDaemon(t, Config{MaxSessionRecords: 100})
	code, _ := submit(t, srv.Client(), srv.URL, "t", bytes.NewReader(big), "")
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("record-quota session got %d, want 413", code)
	}
	if got := d.Registry().Total(obs.ServeLimitAborts); got != 1 {
		t.Errorf("serve_limit_aborts = %d, want 1", got)
	}

	d2, srv2 := newTestDaemon(t, Config{MaxSessionBytes: 512})
	code, _ = submit(t, srv2.Client(), srv2.URL, "t", bytes.NewReader(big), "")
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("byte-quota session got %d, want 413", code)
	}
	if got := d2.Registry().Total(obs.ServeLimitAborts); got != 1 {
		t.Errorf("serve_limit_aborts = %d, want 1", got)
	}
}

// TestSessionAPI: verdict, report, postmortem and listing endpoints
// over a racy flight-recorded session and a failed one.
func TestSessionAPI(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	client := srv.Client()

	racy := genTrace(t, racyCfg(5), "bin")
	code, v := submit(t, client, srv.URL, "api", bytes.NewReader(racy), "?flight=16")
	if code != http.StatusOK || v == nil || v.Race == nil {
		t.Fatalf("racy session: %d %+v", code, v)
	}

	get := func(path string) (int, string) {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Verdict by id.
	code, body := get("/v1/sessions/" + v.Session)
	if code != http.StatusOK || !strings.Contains(body, v.Race.Message) {
		t.Fatalf("session verdict endpoint: %d %s", code, body)
	}
	// Structured report parses under the strict reader.
	code, body = get("/v1/sessions/" + v.Session + "/report")
	if code != http.StatusOK {
		t.Fatalf("report endpoint: %d", code)
	}
	rep, err := obs.ReadReport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("session report invalid: %v", err)
	}
	if rep.Source != "serve" || len(rep.Races) != 1 {
		t.Fatalf("report source %q, %d races", rep.Source, len(rep.Races))
	}
	// Postmortem renders the flight recording with conflict markers.
	code, body = get("/v1/sessions/" + v.Session + "/postmortem")
	if code != http.StatusOK || !strings.Contains(body, "RACE:") || !strings.Contains(body, ">>") {
		t.Fatalf("postmortem endpoint: %d\n%s", code, body)
	}

	// A failed session keeps its error and serves 503 for the report.
	code, fv := submit(t, client, srv.URL, "api", strings.NewReader("not a trace\n"), "")
	if code != http.StatusBadRequest {
		t.Fatalf("garbage body got %d, want 400", code)
	}
	_ = fv
	code, body = get("/v1/sessions")
	if code != http.StatusOK || !strings.Contains(body, `"failed"`) || !strings.Contains(body, v.Session) {
		t.Fatalf("session listing: %d\n%s", code, body)
	}
	var list []*Verdict
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	var failedID string
	for _, s := range list {
		if s.State == "failed" {
			failedID = s.Session
		}
	}
	if failedID == "" {
		t.Fatal("failed session missing from listing")
	}
	code, _ = get("/v1/sessions/" + failedID + "/report")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed session report: %d, want 503", code)
	}
	code, _ = get("/v1/sessions/" + failedID + "/postmortem")
	if code != http.StatusNotFound {
		t.Fatalf("failed session postmortem: %d, want 404", code)
	}

	// Bad parameters are 400s before admission.
	if code, _ := submit(t, client, srv.URL, "api", bytes.NewReader(racy), "?method=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad method param: %d, want 400", code)
	}
	if code, _ := submit(t, client, srv.URL, "api", bytes.NewReader(racy), "?shards=0"); code != http.StatusBadRequest {
		t.Fatalf("bad shards param: %d, want 400", code)
	}
	if code, _ := submit(t, client, srv.URL, "api", bytes.NewReader(racy), "?store=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad store param: %d, want 400", code)
	}
}

// TestRetention: completed sessions beyond Retain are evicted oldest
// first.
func TestRetention(t *testing.T) {
	_, srv := newTestDaemon(t, Config{Retain: 2})
	data := genTrace(t, safeCfg(6), "json")
	var ids []string
	for i := 0; i < 3; i++ {
		code, v := submit(t, srv.Client(), srv.URL, "r", bytes.NewReader(data), "")
		if code != http.StatusOK {
			t.Fatal(code)
		}
		ids = append(ids, v.Session)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/sessions/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still served: %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		resp, err := srv.Client().Get(srv.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retained session %s: %d", id, resp.StatusCode)
		}
	}
}

// TestMethodAndShardParams: sessions can pick the analysis method and
// shard count per request; a sharded contribution session still agrees
// with the unsharded offline verdict.
func TestMethodAndShardParams(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	racy := genTrace(t, racyCfg(7), "bin")
	want := offline(t, racy)
	if want.Race == nil {
		t.Fatal("planted race not detected offline")
	}
	code, v := submit(t, srv.Client(), srv.URL, "m", bytes.NewReader(racy), "?shards=4")
	if code != http.StatusOK || v.Race == nil {
		t.Fatalf("sharded session: %d, race %v", code, v.Race)
	}
	code, v = submit(t, srv.Client(), srv.URL, "m", bytes.NewReader(racy), "?method=must-rma")
	if code != http.StatusOK || v == nil {
		t.Fatalf("must-rma session: %d", code)
	}
	if v.Method != detector.MustRMAMethod.String() {
		t.Fatalf("method %q", v.Method)
	}
}

// TestBadShardCount: a shard count the sharded analyzer cannot take —
// not a power of two, or above MaxShards — is refused by the factory
// before any analyzer is built, so a session asking for one gets a 400
// (not a dropped connection from a handler panic) and is not left
// listed as running.
func TestBadShardCount(t *testing.T) {
	bad := []int{3, 2 * MaxShards}
	for _, k := range bad {
		if _, _, err := NewAnalyzerFactory(detector.OurContribution, 2, "", k, nil); err == nil {
			t.Errorf("factory accepted shard count %d", k)
		}
	}
	if _, _, err := NewAnalyzerFactory(detector.OurContribution, 2, "", MaxShards, nil); err != nil {
		t.Errorf("factory refused the cap itself: %v", err)
	}

	_, srv := newTestDaemon(t, Config{})
	data := genTrace(t, safeCfg(8), "bin")
	for _, k := range bad {
		if code, _ := submit(t, srv.Client(), srv.URL, "s", bytes.NewReader(data), fmt.Sprintf("?shards=%d", k)); code != http.StatusBadRequest {
			t.Fatalf("?shards=%d: status %d, want 400", k, code)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []*Verdict
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(bad) {
		t.Fatalf("%d sessions listed, want %d", len(list), len(bad))
	}
	for _, v := range list {
		if v.State != "failed" {
			t.Errorf("session %s left in state %q, want failed", v.Session, v.State)
		}
	}
}

// TestStoreRefusedForRMAAnalyzer: the store selects the contribution's
// backend, so rma-analyzer, which always runs over its own lower-bound
// BST, refuses every store name: the factory errs, and a session asking
// for one gets a 400 and is left failed. The other methods still take
// a store.
func TestStoreRefusedForRMAAnalyzer(t *testing.T) {
	for _, name := range store.Names() {
		_, _, err := NewAnalyzerFactory(detector.RMAAnalyzer, 2, name, 1, nil)
		if err == nil || !strings.Contains(err.Error(), "selects the contribution's backend") {
			t.Errorf("factory with rma-analyzer over store %q: error %v", name, err)
		}
		if _, _, err := NewAnalyzerFactory(detector.OurContribution, 2, name, 1, nil); err != nil {
			t.Errorf("factory refused the contribution over store %q: %v", name, err)
		}
	}
	_, srv := newTestDaemon(t, Config{})
	data := genTrace(t, safeCfg(8), "bin")
	code, v := submit(t, srv.Client(), srv.URL, "s", bytes.NewReader(data), "?method=rma-analyzer&store=avl")
	if code != http.StatusBadRequest || v == nil || v.State != "failed" || !strings.Contains(v.Error, "selects the contribution's backend") {
		t.Fatalf("?method=rma-analyzer&store=avl: status %d, verdict %+v; want 400 and a failed session", code, v)
	}
	if code, _ := submit(t, srv.Client(), srv.URL, "s", bytes.NewReader(data), "?method=rma-analyzer"); code != http.StatusOK {
		t.Fatalf("?method=rma-analyzer: status %d, want 200", code)
	}
}

// TestOversizedRequestsRejected: a flight depth, a span ring or a
// header world size that would size an allocation past its cap fails
// the session with 400 before the allocation, and the daemon goes on
// serving: a later session still gets the offline verdict.
func TestOversizedRequestsRejected(t *testing.T) {
	_, srv := newTestDaemon(t, Config{})
	data := genTrace(t, racyCfg(5), "bin")
	huge := `{"kind":"header","ranks":2000000000,"window":"w"}
{"kind":"access","owner":0,"rank":1,"lo":0,"hi":8,"type":"rma_write"}
{"kind":"epoch_end","owner":0,"rank":0}
`
	for _, tc := range []struct {
		query string
		body  []byte
	}{
		{"?flight=134217728", data},
		{"?spans=1&spandepth=134217728", data},
		{"?method=must-rma", []byte(huge)},
	} {
		code, v := submit(t, srv.Client(), srv.URL, "big", bytes.NewReader(tc.body), tc.query)
		if code != http.StatusBadRequest || v == nil || v.State != "failed" {
			t.Errorf("%s: status %d, verdict %+v; want 400 and a failed session", tc.query, code, v)
		}
	}

	want := offline(t, data)
	if want.Race == nil {
		t.Fatal("planted race not detected offline")
	}
	code, v := submit(t, srv.Client(), srv.URL, "ok", bytes.NewReader(data), "?flight=64")
	if code != http.StatusOK || v.Race == nil || v.Race.Message != want.Race.Message() {
		t.Fatalf("later session: status %d, verdict %+v; want offline race %q", code, v, want.Race.Message())
	}
}

// TestNamedStoreCountedOnce: naming the default backend leaves every
// store metric unchanged. The factory hands the contribution a bare
// store, and the analyzer's recorder instruments it once.
func TestNamedStoreCountedOnce(t *testing.T) {
	data := genTrace(t, safeCfg(3), "bin")
	metrics := func(storeName string) [3]int64 {
		src, _, err := tracebin.Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		factory, _, err := NewAnalyzerFactory(detector.OurContribution, src.Head().Ranks, storeName, 1, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReplayStream(src, factory, trace.ReplayOpts{}); err != nil {
			t.Fatal(err)
		}
		return [3]int64{reg.Total(obs.StoreInserts), reg.Total(obs.StoreDeletes), reg.Total(obs.StabVisited)}
	}
	want := metrics("")
	if want[0] == 0 {
		t.Fatal("default store recorded no inserts")
	}
	if got := metrics("avl"); got != want {
		t.Errorf("store \"avl\": inserts, deletes, stabs = %v, want %v as with the default", got, want)
	}
}
