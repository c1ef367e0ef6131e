package main

import (
	"bytes"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
	"rmarace/internal/rma"
	"rmarace/internal/store"
	"rmarace/internal/trace"
)

// analyzerCaps is the set of optional detector interfaces a implements,
// one bit each.
func analyzerCaps(a detector.Analyzer) int {
	c := 0
	if _, ok := a.(detector.BatchAnalyzer); ok {
		c |= 1
	}
	if _, ok := a.(detector.Compacter); ok {
		c |= 2
	}
	if _, ok := a.(detector.RequestCompleter); ok {
		c |= 4
	}
	if _, ok := a.(detector.Sharder); ok {
		c |= 8
	}
	return c
}

// storeCaps is the set of optional store interfaces s implements.
func storeCaps(s store.AccessStore) int {
	c := 0
	if _, ok := s.(store.NeighborStabber); ok {
		c |= 1
	}
	if _, ok := s.(store.Extender); ok {
		c |= 2
	}
	if _, ok := s.(store.BatchInserter); ok {
		c |= 4
	}
	if _, ok := s.(store.Compacter); ok {
		c |= 8
	}
	if _, ok := s.(store.RankRemover); ok {
		c |= 16
	}
	if _, ok := s.(store.RemoteRemover); ok {
		c |= 32
	}
	if _, ok := s.(store.SpanRemover); ok {
		c |= 64
	}
	return c
}

// bareAnalyzer implements detector.Analyzer and no optional interface;
// the has* types add one capability each. Their methods are never
// called.
type bareAnalyzer struct{}

func (bareAnalyzer) Name() string                         { return "bare" }
func (bareAnalyzer) Access(detector.Event) *detector.Race { return nil }
func (bareAnalyzer) EpochEnd()                            {}
func (bareAnalyzer) Flush(int)                            {}
func (bareAnalyzer) Release(int)                          {}
func (bareAnalyzer) Nodes() int                           { return 0 }
func (bareAnalyzer) MaxNodes() int                        { return 0 }
func (bareAnalyzer) Accesses() uint64                     { return 0 }

type hasBatch struct{}

func (hasBatch) AccessBatch([]detector.Event) *detector.Race { return nil }

type hasCompact struct{}

func (hasCompact) Compact() {}

type hasComplete struct{}

func (hasComplete) CompleteRequest(int, interval.Interval) {}

// fakeAnalyzers holds one analyzer per capability set, indexed by
// analyzerCaps.
var fakeAnalyzers = []detector.Analyzer{
	bareAnalyzer{},
	struct {
		bareAnalyzer
		hasBatch
	}{},
	struct {
		bareAnalyzer
		hasCompact
	}{},
	struct {
		bareAnalyzer
		hasBatch
		hasCompact
	}{},
	struct {
		bareAnalyzer
		hasComplete
	}{},
	struct {
		bareAnalyzer
		hasBatch
		hasComplete
	}{},
	struct {
		bareAnalyzer
		hasCompact
		hasComplete
	}{},
	struct {
		bareAnalyzer
		hasBatch
		hasCompact
		hasComplete
	}{},
}

func TestTimedAnalyzerForwardsExactlyItsCapabilities(t *testing.T) {
	actual := []detector.Analyzer{
		core.New(), detector.NewBaseline(), detector.NewLegacy(),
		detector.NewMustRMA(detector.NewMustShared(2), 0),
	}
	for i, a := range append(append([]detector.Analyzer(nil), fakeAnalyzers...), actual...) {
		if i < len(fakeAnalyzers) && analyzerCaps(a) != i {
			t.Fatalf("fake analyzer %d has capabilities %b", i, analyzerCaps(a))
		}
		w, err := timeAnalyzer(a, &layerTime{})
		if err != nil {
			t.Fatalf("%s (caps %b): %v", a.Name(), analyzerCaps(a), err)
		}
		if got, want := analyzerCaps(w), analyzerCaps(a); got != want {
			t.Errorf("%s: timed analyzer has capabilities %b, wrapped one %b", a.Name(), got, want)
		}
	}
	if _, err := timeAnalyzer(core.Build(core.WithShards(4)), &layerTime{}); err == nil {
		t.Error("a sharded analyzer was wrapped without its Sharder capability")
	}
}

// bareStore implements store.AccessStore and no optional interface.
type bareStore struct{}

func (bareStore) Name() string                                          { return "bare" }
func (bareStore) Insert(access.Access)                                  {}
func (bareStore) Delete(interval.Interval) bool                         { return false }
func (bareStore) Stab(interval.Interval, func(access.Access) bool) bool { return true }
func (bareStore) Walk(func(access.Access) bool)                         {}
func (bareStore) Clear()                                                {}
func (bareStore) Len() int                                              { return 0 }

type hasStab struct{}

func (hasStab) StabNeighbors(interval.Interval, *[]access.Access) (l, r access.Access, hl, hr bool) {
	return l, r, false, false
}

type hasExtend struct{}

func (hasExtend) ExtendHi(interval.Interval, uint64) bool { return false }
func (hasExtend) ExtendLo(interval.Interval, uint64) bool { return false }

type hasInsertBatch struct{}

func (hasInsertBatch) InsertBatch([]access.Access) {}

type hasStoreCompact struct{}

func (hasStoreCompact) Compact() {}

// fakeStores holds one store per capability set, indexed by storeCaps.
var fakeStores = []store.AccessStore{
	bareStore{},
	struct {
		bareStore
		hasStab
	}{},
	struct {
		bareStore
		hasExtend
	}{},
	struct {
		bareStore
		hasStab
		hasExtend
	}{},
	struct {
		bareStore
		hasInsertBatch
	}{},
	struct {
		bareStore
		hasStab
		hasInsertBatch
	}{},
	struct {
		bareStore
		hasExtend
		hasInsertBatch
	}{},
	struct {
		bareStore
		hasStab
		hasExtend
		hasInsertBatch
	}{},
	struct {
		bareStore
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasStab
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasExtend
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasStab
		hasExtend
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasInsertBatch
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasStab
		hasInsertBatch
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasExtend
		hasInsertBatch
		hasStoreCompact
	}{},
	struct {
		bareStore
		hasStab
		hasExtend
		hasInsertBatch
		hasStoreCompact
	}{},
}

func TestTimedStoreForwardsExactlyItsCapabilities(t *testing.T) {
	actual := []store.AccessStore{store.NewAVL(), store.NewLegacyBST()}
	for i, s := range append(append([]store.AccessStore(nil), fakeStores...), actual...) {
		if i < len(fakeStores) && storeCaps(s) != i {
			t.Fatalf("fake store %d has capabilities %b", i, storeCaps(s))
		}
		w, err := timeStore(s, &layerTime{})
		if err != nil {
			t.Fatalf("%s (caps %b): %v", s.Name(), storeCaps(s), err)
		}
		if got, want := storeCaps(w), storeCaps(s); got != want {
			t.Errorf("%s: timed store has capabilities %b, wrapped one %b", s.Name(), got, want)
		}
	}
	// Retirement capabilities are not forwarded, so stores having one
	// must be refused rather than silently demoted to the fallback path.
	for _, s := range []store.AccessStore{
		store.NewShadow(), store.NewStrided(), store.Instrument(store.NewAVL(), obs.NewRegistry(), 0),
	} {
		if _, err := timeStore(s, &layerTime{}); err == nil {
			t.Errorf("%s (caps %b) was wrapped without its retirement capabilities", s.Name(), storeCaps(s))
		}
	}
}

func TestTimedLayersCountTheirCalls(t *testing.T) {
	var st, an layerTime
	s, err := timeStore(store.NewAVL(), &st)
	if err != nil {
		t.Fatal(err)
	}
	a, err := timeAnalyzer(core.New(core.WithStore(s)), &an)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]detector.Event, 8)
	for i := range evs {
		evs[i] = detector.Event{Acc: access.Access{
			Interval: interval.Span(uint64(8*i), 8), Type: access.RMAWrite, Rank: 1,
			Debug: access.Debug{File: "t.c", Line: 1},
		}}
	}
	if race := detector.AccessBatch(a, evs); race != nil {
		t.Fatalf("adjacent writes of one rank raced: %v", race)
	}
	other := evs[0]
	other.Acc.Rank = 2
	if race := a.Access(other); race == nil {
		t.Fatal("a rank-2 write over a stored rank-1 write did not race")
	}
	if an.calls != 2 || an.items != 9 {
		t.Errorf("analyzer counted %d calls, %d events; want 2, 9", an.calls, an.items)
	}
	if st.calls == 0 || st.ns <= 0 || an.ns < st.ns {
		t.Errorf("store %d calls in %d ns, analyzer %d ns: store time must be counted and lie within the analyzer's", st.calls, st.ns, an.ns)
	}
}

// smallReplayBin is the replay-bin shape at a size a test can afford.
var smallReplayBin = trace.GenConfig{
	Ranks: 64, Owners: 64, OwnerSkew: 0.98, Adjacency: 0.6, SafeOnly: true, Events: 2_000, Epochs: 4, Seed: 3,
}

func TestTracedReplayMatchesUntimed(t *testing.T) {
	if err := checkTimeable(); err != nil {
		t.Fatal(err)
	}
	in, err := setupReplayBinTrace(smallReplayBin)
	if err != nil {
		t.Fatal(err)
	}
	var clk layerClock
	got, err := replayTraced(in.data, replayBinOpts, nil, &clk)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVerdict(got, in.want) || got.Evictions != in.want.Evictions {
		t.Errorf("traced replay-bin pass %+v, untimed %+v", got, in.want)
	}
	if clk.builds < int64(in.owners) || clk.read.items != int64(in.records) {
		t.Errorf("traced pass built %d analyzers for %d owners and read %d of %d records", clk.builds, in.owners, clk.read.items, in.records)
	}
	if clk.analyzer.items != int64(in.events) {
		t.Errorf("traced pass analysed %d events, trace has %d", clk.analyzer.items, in.events)
	}

	// serve-json's offline replays: per-event, recording on, racy.
	cfg := serveGen
	cfg.PlantRace, cfg.Seed = true, 5
	var buf bytes.Buffer
	if _, err := trace.Generate(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	want, err := replay(buf.Bytes(), trace.ReplayOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Race == nil {
		t.Fatal("planted race not detected")
	}
	plain, err := replay(buf.Bytes(), trace.ReplayOpts{}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := replayTraced(buf.Bytes(), trace.ReplayOpts{}, obs.NewRegistry(), &layerClock{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameVerdict(plain, want) || !sameVerdict(traced, want) {
		t.Errorf("session trace: offline %+v, recording %+v, traced %+v", want, plain, traced)
	}
}

func TestServeSessionsMatchOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon and submits every session trace")
	}
	// setupServe submits every trace once and fails on any verdict that
	// differs from the offline replay of the same bytes.
	b, err := setupServe(2)
	if err != nil {
		t.Fatal(err)
	}
	b.close()
}

func TestRecordedHaloRunMatchesUntimed(t *testing.T) {
	for _, rc := range []rma.Config{
		{Method: detector.OurContribution},
		{Method: detector.OurContribution, Recorder: obs.NewRegistry()},
	} {
		res, ok, err := haloRun(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("recorder %v: race %v, %d accesses, want none and %d", rc.Recorder != nil, res.Race, res.TotalAccesses, haloAccesses(haloCfg))
		}
	}
}
