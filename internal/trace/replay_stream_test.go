package trace

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
)

// genBuf generates a trace into a buffer.
func genBuf(t *testing.T, cfg GenConfig) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Generate(&buf, cfg); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return &buf
}

func newCore(int) detector.Analyzer { return core.New() }

// replayBuf replays a buffered JSON trace with the given options.
func replayBuf(t *testing.T, raw []byte, opts ReplayOpts) ReplayResult {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	res, err := ReplayStream(r, newCore, opts)
	if err != nil {
		t.Fatalf("ReplayStream: %v", err)
	}
	return res
}

func TestDecodeErrorCarriesPosition(t *testing.T) {
	// A malformed record mid-trace must report its line and byte offset.
	buf := genBuf(t, GenConfig{Ranks: 2, Events: 5, Epochs: 1, SafeOnly: true, Seed: 1})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	lines[3] = `{"kind":"access","lo":`
	raw := strings.Join(lines, "\n")

	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	_, err = ReplayStream(r, newCore, ReplayOpts{})
	if err == nil {
		t.Fatal("malformed record replayed without error")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error %q does not carry line/offset position", err)
	}
}

func TestUnknownKindErrorCarriesPosition(t *testing.T) {
	raw := `{"kind":"header","ranks":2,"window":"w"}
{"kind":"access","owner":0,"rank":0,"lo":0,"hi":7,"type":"rma_write","epoch":0,"time":1}
{"kind":"frobnicate","owner":0}`
	r, err := NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReplayStream(r, newCore, ReplayOpts{})
	if err == nil || !strings.Contains(err.Error(), "frobnicate") || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v does not name the unknown kind and its line", err)
	}
}

func TestMultiOwnerGeneration(t *testing.T) {
	buf := genBuf(t, GenConfig{Ranks: 16, Events: 200, Epochs: 3, Owners: 8, OwnerSkew: 0.5, Adjacency: 0.5, SafeOnly: true, Seed: 7})
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	epochEnds := map[int]int{}
	var rec Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Kind {
		case "access":
			seen[rec.Owner] = true
		case "epoch_end":
			epochEnds[rec.Owner]++
		}
	}
	if len(seen) < 2 {
		t.Fatalf("only %d owners saw accesses, want several", len(seen))
	}
	for o := 0; o < 8; o++ {
		if epochEnds[o] != 3 {
			t.Fatalf("owner %d got %d epoch boundaries, want 3", o, epochEnds[o])
		}
	}
	// Skew concentrates on owner 0.
	res := replayBuf(t, buf.Bytes(), ReplayOpts{})
	if res.Race != nil {
		t.Fatalf("safe multi-owner trace replayed a race: %v", res.Race)
	}
}

func TestEvictionPreservesVerdictsAndCounts(t *testing.T) {
	// High skew leaves tail owners cold for whole epochs; eviction must
	// fire and every summary stat must match the unevicted replay.
	cfg := GenConfig{Ranks: 32, Events: 200, Epochs: 6, Owners: 16, OwnerSkew: 0.95, Adjacency: 0.3, SafeOnly: true, Seed: 3}
	buf := genBuf(t, cfg)

	plain := replayBuf(t, buf.Bytes(), ReplayOpts{})
	evict := replayBuf(t, buf.Bytes(), ReplayOpts{EvictCold: 2})
	if evict.Evictions == 0 {
		t.Fatal("eviction policy never fired on a skewed trace")
	}
	if plain.Events != evict.Events || plain.Epochs != evict.Epochs {
		t.Fatalf("evicted replay counts (%d ev, %d ep) differ from plain (%d ev, %d ep)",
			evict.Events, evict.Epochs, plain.Events, plain.Epochs)
	}
	if (plain.Race == nil) != (evict.Race == nil) {
		t.Fatalf("eviction changed the verdict: plain=%v evict=%v", plain.Race, evict.Race)
	}

	// A planted race must survive every memory policy.
	rcfg := cfg
	rcfg.PlantRace = true
	rbuf := genBuf(t, rcfg)
	for _, opts := range []ReplayOpts{{}, {EvictCold: 1}, {EvictCold: 1, Compact: true}, {Batch: 64, EvictCold: 2}} {
		res := replayBuf(t, rbuf.Bytes(), opts)
		if res.Race == nil {
			t.Fatalf("planted race missed under opts %+v", opts)
		}
		if res.Race.Cur.Lo != plantedLo {
			t.Fatalf("wrong race under opts %+v: %+v", opts, res.Race)
		}
	}
}

// TestRacyReplayReportsMaxNodes: a replay that stops at a race still
// folds every resident owner's node high-water mark into MaxNodes, not
// only the evicted owners'.
func TestRacyReplayReportsMaxNodes(t *testing.T) {
	cfg := GenConfig{Ranks: 8, Events: 1000, Epochs: 1, Owners: 4, Adjacency: 0.6, SafeOnly: true, PlantRace: true, Seed: 17}
	buf := genBuf(t, cfg)
	for _, batch := range []int{1, 64} {
		var built []detector.Analyzer
		newA := func(int) detector.Analyzer {
			a := core.New()
			built = append(built, a)
			return a
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayStream(r, newA, ReplayOpts{Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if res.Race == nil || res.Race.Cur.Lo != plantedLo {
			t.Fatalf("batch %d: planted race not reported: %v", batch, res.Race)
		}
		want := 0
		for _, a := range built {
			want = max(want, a.MaxNodes())
		}
		if want == 0 {
			t.Fatalf("batch %d: no owner stored anything", batch)
		}
		if res.MaxNodes != want {
			t.Fatalf("batch %d: MaxNodes = %d, want the owners' maximum %d", batch, res.MaxNodes, want)
		}
	}
}

func TestCompactPreservesVerdicts(t *testing.T) {
	cfg := GenConfig{Ranks: 8, Events: 300, Epochs: 4, Owners: 4, Adjacency: 0.6, SafeOnly: true, Seed: 11}
	buf := genBuf(t, cfg)
	plain := replayBuf(t, buf.Bytes(), ReplayOpts{})
	compact := replayBuf(t, buf.Bytes(), ReplayOpts{Compact: true})
	if plain.Events != compact.Events || plain.Epochs != compact.Epochs || (plain.Race == nil) != (compact.Race == nil) {
		t.Fatalf("compacting replay diverged: %+v vs %+v", compact, plain)
	}
}

func TestReplayRecordsIngestMetrics(t *testing.T) {
	cfg := GenConfig{Ranks: 8, Events: 500, Epochs: 3, Owners: 4, OwnerSkew: 0.8, SafeOnly: true, Seed: 5}
	buf := genBuf(t, cfg)
	size := int64(buf.Len())

	reg := obs.NewRegistry()
	res := replayBuf(t, buf.Bytes(), ReplayOpts{Recorder: reg, EvictCold: 1})

	if got := reg.Total(obs.TraceIngestBytes); got != size {
		t.Errorf("trace_ingest_bytes = %d, want %d", got, size)
	}
	// Records: events + per-owner epoch boundaries.
	want := int64(res.Events + 4*cfg.Epochs)
	if got := reg.Total(obs.TraceIngestRecords); got != want {
		t.Errorf("trace_ingest_records = %d, want %d", got, want)
	}
	if got := reg.Total(obs.AnalyzerEvictions); got != res.Evictions {
		t.Errorf("analyzer_evictions = %d, want %d", got, res.Evictions)
	}
	if got := reg.Total(obs.PeakRSS); got <= 0 {
		t.Errorf("peak_rss_bytes = %d, want > 0", got)
	}
}

// TestBatchMemoryFollowsUse: an owner's pending batch grows with its
// accesses, so a thousand owners that see one access per epoch hold a
// thousand one-event batches, not a thousand full-size ones. A 128-slot
// batch of 104-byte events is 13 KB, so full-size batches for 1,000
// owners would allocate about 13 MB.
func TestBatchMemoryFollowsUse(t *testing.T) {
	const owners, epochs = 1000, 3
	var recs []Record
	for e := 0; e < epochs; e++ {
		for o := 0; o < owners; o++ {
			recs = append(recs, Record{Kind: "access", Owner: o, Rank: o % 4, Lo: uint64(8 * o), Hi: uint64(8*o + 7), Type: "rma_write", Epoch: uint64(e)})
		}
		for o := 0; o < owners; o++ {
			recs = append(recs, Record{Kind: "epoch_end", Owner: o})
		}
	}
	src := NewRecordSource(Header{Ranks: 4, Window: "w"}, recs)
	newBaseline := func(int) detector.Analyzer { return detector.NewBaseline() }

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ReplayStream(src, newBaseline, ReplayOpts{Batch: 64})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != owners*epochs || res.Epochs != owners*epochs {
		t.Fatalf("replayed %d events and %d epochs, want %d of each", res.Events, res.Epochs, owners*epochs)
	}
	const bound = 1 << 20 // one-event batches total ~0.2 MB here
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("replay allocated %d bytes, want at most %d", got, bound)
	}
}
