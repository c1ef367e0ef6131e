package fuzz

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rmarace/internal/detector"
	"rmarace/internal/oracle"
	"rmarace/internal/rma"
	"rmarace/internal/trace"
)

// testSchedules is the default schedule set: program order plus two
// seeded permutations.
var testSchedules = []int64{0, 7, 13}

func seedByName(t *testing.T, name string) Seed {
	t.Helper()
	for _, s := range Seeds() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no seed named %q", name)
	return Seed{}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range Seeds() {
		if got := Decode(Encode(s.P)); !reflect.DeepEqual(got, s.P) {
			t.Errorf("%s: decode(encode) != p\n got %+v\nwant %+v", s.Name, got, s.P)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		p := Gen(rng)
		if got := Decode(Encode(p)); !reflect.DeepEqual(got, p) {
			t.Fatalf("gen #%d: decode(encode) != p\n got %+v\nwant %+v", i, got, p)
		}
	}
}

func TestDecodeIsTotalAndNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		p := Decode(data)
		if got := Normalize(p); !reflect.DeepEqual(got, p) {
			t.Fatalf("decode of %d random bytes is not normalized:\n got %+v\nnorm %+v", len(data), p, got)
		}
	}
}

func TestGenProducesNormalizedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := Gen(rng)
		if got := Normalize(p); !reflect.DeepEqual(got, p) {
			t.Fatalf("gen #%d not normalized: %+v", i, p)
		}
		for _, op := range p.Ops {
			if op.Kind.IsRMA() && op.Target == op.Origin {
				t.Fatalf("gen #%d: self-targeting RMA op %+v", i, op)
			}
		}
	}
}

// TestScheduleOrderPreservesRankStreams: every permuted schedule keeps
// each (rank, thread) stream's ops in program order and schedules every
// op exactly once, in its effective epoch (a thread-1 op runs under its
// thread's last resynchronisation epoch) — the properties that make the
// oracle verdict schedule-invariant for thread-free programs.
func TestScheduleOrderPreservesRankStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		p := Gen(rng)
		for _, seed := range testSchedules {
			eff := p.effEpochs()
			last := make(map[int]int)
			n := 0
			for e, idxs := range scheduleOrder(p, seed) {
				for _, idx := range idxs {
					if eff[idx] != e {
						t.Fatalf("schedule %d leaked op %d (effective epoch %d) into epoch %d", seed, idx, eff[idx], e)
					}
					stream := p.Ops[idx].Origin*2 + p.Ops[idx].Thread
					if prev, ok := last[stream]; ok && idx < prev {
						t.Fatalf("schedule %d reordered stream %d: op %d after %d", seed, stream, idx, prev)
					}
					last[stream] = idx
					n++
				}
			}
			if n != len(p.Ops) {
				t.Fatalf("schedule %d scheduled %d of %d ops", seed, n, len(p.Ops))
			}
		}
	}
}

// TestScheduleInvariantGate pins the one grammar corner whose verdicts
// legitimately depend on the interleaving: a SyncLock program mixing
// shared and exclusive locks. The oracle's verdict set differs across
// schedules (lock-acquisition order decides whether the shared access
// is retired before the exclusive one probes), so Diff must not flag
// that as a divergence — while still differentially checking every
// subject against the matching schedule's oracle.
func TestScheduleInvariantGate(t *testing.T) {
	mixed := Normalize(Program{Ranks: 3, Sync: SyncLock, Ops: []Op{
		func() Op { op := rmaOp(OpPut, 0, 1, 0, 0, 2); op.Shared = true; return op }(),
		rmaOp(OpPut, 2, 1, 0, 0, 2),
	}})
	if mixed.ScheduleInvariant() {
		t.Fatal("mixed shared/exclusive SyncLock program reported invariant")
	}
	for _, name := range []string{"lock-exclusive-safe", "lock-shared-race", "fig5-lowerbound"} {
		if p := seedByName(t, name).P; !p.ScheduleInvariant() {
			t.Errorf("%s reported schedule-dependent", name)
		}
	}
	// shared-first order stores the shared access before the exclusive
	// holder retires anything: the oracle must see the race there...
	oShared, err := oracle.FromRecords(Render(mixed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !oShared.Raced() {
		t.Fatal("identity schedule (shared first) found no race")
	}
	// ...and the differential driver must tolerate permutations where
	// the exclusive unlock lands first and the race vanishes.
	res, err := Diff(mixed, []int64{0, 7, 13}, Configs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("subjects diverged from their matching schedules' oracles: %v", res.Divergences)
	}
}

func TestSeedCorpusOracleVerdicts(t *testing.T) {
	for _, s := range Seeds() {
		o, err := oracle.FromRecords(Render(s.P, 0))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if o.Raced() != s.Raced {
			t.Errorf("%s: oracle raced=%v, want %v (verdicts: %v)", s.Name, o.Raced(), s.Raced, o.Keys())
		}
	}
}

// TestSeedCorpusDifferential: every sound configuration must agree with
// the oracle on every seed program under every schedule.
func TestSeedCorpusDifferential(t *testing.T) {
	for _, s := range Seeds() {
		res, err := Diff(s.P, testSchedules, Configs())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, d := range res.Divergences {
			t.Errorf("%s: %s", s.Name, d)
		}
	}
}

// TestOracleCompleteSplitRegression pins the minimised reproducer of a
// schedule-dependent oracle verdict (`rmarace fuzz -seed 1`, program
// #2825): a waitall completion splitting one stored access made the
// oracle overwrite the next stored access, losing the 100/106 and
// 105/106 pairs under schedule 1001589682. The verdict set must be the
// same seven races under every schedule.
func TestOracleCompleteSplitRegression(t *testing.T) {
	p := Normalize(Program{Ranks: 2, Epochs: 1, Sync: SyncLockAll, Ops: []Op{
		strided(rmaOp(OpPut, 0, 1, 4, 3, 2), 2, 3),
		strided(rmaOp(OpGet, 1, 0, 3, 2, 2), 3, 4),
		rmaOp(OpRput, 1, 0, 2, 6, 1),
		{Kind: OpWaitAll, Origin: 1},
		rmaOp(OpPut, 1, 0, 0, 5, 2),
		strided(rmaOp(OpRget, 0, 1, 7, 2, 2), 2, 2),
		strided(rmaOp(OpPut, 0, 1, 7, 1, 3), 2, 3),
	}})
	scheds := []int64{0, 1001589682, 1340860682}
	for _, seed := range scheds {
		o, err := oracle.FromRecords(Render(p, seed))
		if err != nil {
			t.Fatal(err)
		}
		if o.Len() != 7 {
			t.Errorf("schedule %d: oracle found %d races, want 7: %v", seed, o.Len(), o.Keys())
		}
	}
	res, err := Diff(p, scheds, Configs())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Divergences {
		t.Error(d)
	}
}

// TestShadowExtendRegression pins the minimised reproducer of a shadow
// store false negative (`rmarace fuzz -seed 1`, program #2904). The
// thread-1 get runs under epoch 0; its second block merges into its
// first through Algorithm 1's extend fast path, and the shadow store,
// which never deletes by interval, dropped the extension, so the store
// of epoch 0 missed the second block under schedule 727034498.
func TestShadowExtendRegression(t *testing.T) {
	get := strided(rmaOp(OpGet, 0, 2, 7, 0, 3), 2, 3)
	get.Thread = 1
	p := Normalize(Program{Ranks: 3, Epochs: 2, Sync: SyncLockAll, Ops: []Op{
		local(OpStore, 2, 10, 1, true),
		get,
		strided(rmaOp(OpPut, 0, 2, 7, 0, 1), 2, 3),
	}})
	res, err := Diff(p, []int64{0, 1942979, 727034498}, Configs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle.Len() == 0 {
		t.Fatal("oracle found no race in the reproducer")
	}
	for _, d := range res.Divergences {
		t.Error(d)
	}
}

// TestRandomDifferential is the deterministic mini-fuzz that runs in
// every plain `go test`: generated programs through the full sound
// matrix.
func TestRandomDifferential(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		p := Gen(rng)
		res, err := Diff(p, testSchedules, Configs())
		if err != nil {
			t.Fatalf("gen #%d: %v", i, err)
		}
		if res.Failed() {
			t.Fatalf("gen #%d diverged: %v\nprogram:\n%s", i, res.Divergences, p)
		}
	}
}

// TestLegacyBackendCaughtAsFaulty is the acceptance canary: the
// differential driver must flag the legacy lower-bound store as a
// false-negative subject on the fig5 seed.
func TestLegacyBackendCaughtAsFaulty(t *testing.T) {
	s := seedByName(t, "fig5-lowerbound")
	res, err := Diff(s.P, []int64{0}, []Config{CanaryConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("legacy canary not caught; oracle found %d race(s)", res.Oracle.Len())
	}
	if res.Divergences[0].Kind != "false-negative" {
		t.Fatalf("canary divergence kind = %q, want false-negative (%s)", res.Divergences[0].Kind, res.Divergences[0])
	}
	// The same program must pass on every sound configuration.
	sound, err := Diff(s.P, []int64{0}, Configs())
	if err != nil {
		t.Fatal(err)
	}
	if sound.Failed() {
		t.Fatalf("sound configurations diverged on the canary program: %v", sound.Divergences)
	}
}

// TestMinimizeShrinksCanaryRepro: the fig5 canary program buried in
// read-only noise minimises back to (at most) its three essential ops.
func TestMinimizeShrinksCanaryRepro(t *testing.T) {
	s := seedByName(t, "fig5-lowerbound")
	noisy := s.P
	// Noise in window slots the canary ops never touch. A Get is only
	// read-only on the target side — it writes its origin buffer — so
	// the local slots (4..6 per origin) must be mutually disjoint and
	// clear of the canary ops' origin buffers (slots 0..2) or the noise
	// would race for real and mask the false negative.
	for i := 0; i < 6; i++ {
		noisy.Ops = append(noisy.Ops, rmaOp(OpGet, i%2, 2, 8+i, 4+i/2, 1))
	}
	noisy = Normalize(noisy)
	fails := func(q Program) bool {
		res, err := Diff(q, []int64{0}, []Config{CanaryConfig()})
		return err == nil && res.Failed()
	}
	if !fails(noisy) {
		t.Fatal("noisy canary program does not fail; bad test setup")
	}
	min := Minimize(noisy, fails)
	if !fails(min) {
		t.Fatal("minimized program no longer fails")
	}
	if len(min.Ops) > 3 {
		t.Fatalf("minimized to %d ops, want <= 3:\n%s", len(min.Ops), min)
	}
}

func TestWriteReproRoundTrips(t *testing.T) {
	s := seedByName(t, "fig5-lowerbound")
	res, err := Diff(s.P, []int64{0}, []Config{CanaryConfig()})
	if err != nil || !res.Failed() {
		t.Fatalf("canary diff: err=%v failed=%v", err, res.Failed())
	}
	dir, err := WriteRepro(filepath.Join(t.TempDir(), "repro"), res)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(filepath.Join(dir, "program.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(bin); !reflect.DeepEqual(got, res.Program) {
		t.Fatal("program.bin does not decode back to the reproducer program")
	}
	f, err := os.Open(filepath.Join(dir, "repro.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.FromTrace(r)
	if err != nil {
		t.Fatal(err)
	}
	if !o.SameVerdicts(res.Oracle) {
		t.Fatal("replayed reproducer trace yields different oracle verdicts")
	}
	if _, err := os.Stat(filepath.Join(dir, "README.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMatchesOracle runs seed programs on the full simulated
// runtime under deterministic interleavings and checks the live verdict
// against the oracle of the identically-scheduled rendering.
func TestLiveMatchesOracle(t *testing.T) {
	scheds := []int64{0, 5}
	batches := []int{1, 64}
	if testing.Short() {
		scheds, batches = scheds[:1], batches[:1]
	}
	for _, s := range Seeds() {
		for _, batch := range batches {
			for _, sched := range scheds {
				race, err := RunLive(s.P, sched, rma.Config{
					Method: detector.OurContribution, NotifBatch: batch,
				})
				if err != nil {
					t.Fatalf("%s sched=%d batch=%d: %v", s.Name, sched, batch, err)
				}
				q := LiveVariant(s.P)
				o, oerr := oracle.FromRecords(Render(q, sched))
				if oerr != nil {
					t.Fatal(oerr)
				}
				if (race != nil) != o.Raced() {
					t.Errorf("%s sched=%d batch=%d: live raced=%v, oracle raced=%v (%d verdicts)",
						s.Name, sched, batch, race != nil, o.Raced(), o.Len())
					continue
				}
				if race != nil && !o.Has(detector.DedupKey(race)) {
					t.Errorf("%s sched=%d batch=%d: live pair %+v not in oracle set %v",
						s.Name, sched, batch, detector.DedupKey(race), o.Keys())
				}
			}
		}
	}
}

// FuzzDifferential is the native fuzz target of the tentpole: raw bytes
// decode into a program which every sound configuration must analyse
// identically to the oracle, under the identity and two permuted
// schedules.
func FuzzDifferential(f *testing.F) {
	for _, s := range Seeds() {
		f.Add(Encode(s.P))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := Decode(data)
		res, err := Diff(p, testSchedules, Configs())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			dir, werr := WriteRepro(filepath.Join(t.TempDir(), "repro"), res)
			t.Fatalf("divergence (repro: %s, write err %v): %v\nprogram:\n%s",
				dir, werr, res.Divergences, res.Program)
		}
	})
}

// FuzzScheduleInterleavings replays decoded programs on the live
// runtime under fuzzer-chosen interleavings (the StepBarrier schedule
// seed is a fuzz input) and cross-checks the session verdict against
// the oracle.
func FuzzScheduleInterleavings(f *testing.F) {
	for i, s := range Seeds() {
		f.Add(int64(i), Encode(s.P))
	}
	f.Fuzz(func(t *testing.T, schedSeed int64, data []byte) {
		p := Decode(data)
		if len(p.Ops) > 24 {
			p.Ops = p.Ops[:24] // keep live goroutine runs fast
			p = Normalize(p)
		}
		race, err := RunLive(p, schedSeed, rma.Config{Method: detector.OurContribution})
		if err != nil {
			t.Fatalf("live run failed: %v\nprogram:\n%s", err, p)
		}
		q := LiveVariant(p)
		o, oerr := oracle.FromRecords(Render(q, schedSeed))
		if oerr != nil {
			t.Fatal(oerr)
		}
		if (race != nil) != o.Raced() {
			t.Fatalf("live raced=%v, oracle raced=%v (%d verdicts)\nprogram:\n%s",
				race != nil, o.Raced(), o.Len(), q)
		}
		if race != nil && !o.Has(detector.DedupKey(race)) {
			t.Fatalf("live pair %+v not in oracle set %v\nprogram:\n%s",
				detector.DedupKey(race), o.Keys(), q)
		}
	})
}

// TestClockRepAgreesOnCorpus pins the epoch-vs-vector subject directly:
// on every seed program and schedule, MUST-RMA under the adaptive clock
// representation must return the same verdict (and pair) as under
// always-vector clocks.
func TestClockRepAgreesOnCorpus(t *testing.T) {
	for _, s := range Seeds() {
		p := Normalize(s.P)
		for _, sched := range testSchedules {
			recs := Render(p, sched)
			if d, ok, err := diffClockReps(recs, p.Ranks); err != nil {
				t.Fatalf("%s sched=%d: %v", s.Name, sched, err)
			} else if ok {
				t.Errorf("%s sched=%d: %s", s.Name, sched, d)
			}
		}
	}
}

// TestTraceCodecAgreesOnCorpus pins the binary trace codec directly: on
// every seed program and schedule, JSON→binary→JSON must round-trip
// byte-identically and the streaming binary replay must return the same
// verdict (and pair) as the JSON replay.
func TestTraceCodecAgreesOnCorpus(t *testing.T) {
	for _, s := range Seeds() {
		p := Normalize(s.P)
		for _, sched := range testSchedules {
			recs := Render(p, sched)
			if d, ok, err := diffTraceCodec(recs, p.Ranks); err != nil {
				t.Fatalf("%s sched=%d: %v", s.Name, sched, err)
			} else if ok {
				t.Errorf("%s sched=%d: %s", s.Name, sched, d)
			}
		}
	}
}
