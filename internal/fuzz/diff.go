package fuzz

import (
	"fmt"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/oracle"
	"rmarace/internal/store"
	"rmarace/internal/trace"
)

// Config is one production detector configuration under differential
// test: a storage backend × shard count × notification batch size.
type Config struct {
	Store  string
	Shards int
	Batch  int
}

// String renders the configuration compactly ("avl/s4/b64").
func (c Config) String() string {
	return fmt.Sprintf("%s/s%d/b%d", c.Store, c.Shards, c.Batch)
}

// Configs returns the sound matrix: every backend that must agree with
// the oracle, under unsharded and sharded analyzers and under scalar
// and batched notification delivery. The legacy backend is excluded —
// it reproduces the published RMA-Analyzer's lower-bound search bug by
// design and serves as the canary that proves the driver can catch a
// faulty subject (CanaryConfig).
func Configs() []Config {
	var out []Config
	for _, st := range []string{"avl", "strided", "shadow"} {
		for _, sh := range []int{1, 4} {
			for _, b := range []int{1, 64} {
				out = append(out, Config{Store: st, Shards: sh, Batch: b})
			}
		}
	}
	return out
}

// CanaryConfig is the deliberately faulty subject: Algorithm 1 over the
// legacy lower-bound BST, whose Stab misses stored intervals that start
// left of the probe. The differential driver must flag it; the
// acceptance test pins that.
func CanaryConfig() Config { return Config{Store: "legacy", Shards: 1, Batch: 1} }

// shardGranule forces sharded subjects to actually split generated
// accesses: the window is WinSlots*Slot bytes, so a 16-byte granule
// stripes it across all four shards and multi-slot accesses cross
// granule boundaries.
const shardGranule = 16

// newSubject builds the per-owner analyzer factory for a configuration.
func newSubject(cfg Config) func(owner int) detector.Analyzer {
	return func(owner int) detector.Analyzer {
		opts := []core.Option{
			core.WithOwner(owner),
			core.WithStoreFactory(func() store.AccessStore {
				st, err := store.New(cfg.Store)
				if err != nil {
					panic(err)
				}
				return st
			}),
		}
		if cfg.Shards > 1 {
			opts = append(opts, core.WithShards(cfg.Shards), core.WithShardGranule(shardGranule))
		}
		return core.Build(opts...)
	}
}

// RunSubject drives one rendered record stream through a production
// configuration with trace.ReplayStream — the loop `rmarace replay` and
// the daemon run — batching access events per owner like the engine's
// notification pipeline does (synchronisation records flush their
// owner's pending batch first). It stops at the first race, like the
// production tools.
func RunSubject(recs []trace.Record, cfg Config) (*detector.Race, error) {
	src := trace.NewRecordSource(trace.Header{Window: "fuzz"}, recs)
	res, err := trace.ReplayStream(src, newSubject(cfg), trace.ReplayOpts{Batch: cfg.Batch})
	return res.Race, err
}

// Divergence is one disagreement between a production configuration
// and the oracle.
type Divergence struct {
	Config    Config
	SchedSeed int64
	// Kind classifies the disagreement: "false-negative" (oracle races,
	// subject silent), "false-positive" (subject races, oracle silent),
	// "wrong-pair" (both race but the subject's pair is not a true
	// race), or "schedule-dependent-oracle" (the oracle's own verdict
	// set changed under a permuted schedule — a renderer or generator
	// bug, since the grammar guarantees invariance for every program
	// Program.ScheduleInvariant admits; mixed shared/exclusive SyncLock
	// programs are exempt because lock-acquisition order genuinely
	// decides their verdicts).
	Kind   string
	Detail string
}

// String renders the divergence for reports.
func (d Divergence) String() string {
	return fmt.Sprintf("[%s sched=%d] %s: %s", d.Config, d.SchedSeed, d.Kind, d.Detail)
}

// Result is the outcome of one differential run.
type Result struct {
	Program   Program
	Schedules []int64
	// Oracle holds the reference verdicts of the first schedule.
	Oracle      *oracle.Oracle
	Divergences []Divergence
}

// Failed reports whether any configuration diverged.
func (r Result) Failed() bool { return len(r.Divergences) > 0 }

// Diff renders p under every schedule, runs the oracle and every
// configuration on the identical record stream, and collects every
// verdict divergence. The comparison is the abort-tolerant one: a
// subject stops at its first race, so it agrees with the oracle iff it
// raced exactly when the oracle's verdict set is non-empty and its
// reported pair is a member of that set.
func Diff(p Program, schedSeeds []int64, cfgs []Config) (Result, error) {
	p = Normalize(p)
	if len(schedSeeds) == 0 {
		schedSeeds = []int64{0}
	}
	res := Result{Program: p, Schedules: schedSeeds}
	invariant := p.ScheduleInvariant()
	for si, seed := range schedSeeds {
		recs := Render(p, seed)
		o, err := oracle.FromRecords(recs)
		if err != nil {
			return res, err
		}
		if si == 0 {
			res.Oracle = o
		} else if invariant && !o.SameVerdicts(res.Oracle) {
			res.Divergences = append(res.Divergences, Divergence{
				SchedSeed: seed,
				Kind:      "schedule-dependent-oracle",
				Detail: fmt.Sprintf("verdict set changed under permutation: %d races vs %d at schedule %d",
					o.Len(), res.Oracle.Len(), schedSeeds[0]),
			})
			continue
		}
		for _, cfg := range cfgs {
			race, err := RunSubject(recs, cfg)
			if err != nil {
				return res, err
			}
			if d, ok := compare(o, race); ok {
				d.Config, d.SchedSeed = cfg, seed
				res.Divergences = append(res.Divergences, d)
			}
		}
		// The MUST-RMA subject under both clock representations: the
		// adaptive scheme must be bit-identical to always-vector.
		if d, ok, err := diffClockReps(recs, p.Ranks); err != nil {
			return res, err
		} else if ok {
			d.SchedSeed = seed
			res.Divergences = append(res.Divergences, d)
		}
		// The binary trace codec: JSON→binary→JSON must be lossless and
		// the streaming binary replay verdict-identical to JSON replay.
		// The header advertises one stream per (rank, window) pair.
		if d, ok, err := diffTraceCodec(recs, p.Ranks*p.Windows); err != nil {
			return res, err
		} else if ok {
			d.SchedSeed = seed
			res.Divergences = append(res.Divergences, d)
		}
	}
	return res, nil
}

// diffClockReps proves the adaptive epoch⇄vector clock representation
// verdict-identical to the always-vector baseline on one record
// stream: same race/no-race outcome and, when both race, the same
// access pair. Both replay the stream through trace.ReplayStream with
// one MUST-RMA analyzer per owner, as conformance's must-rma row does;
// replayed records carry no clocks, so every analyzer snapshots at
// processing time, which is deterministic for a fixed record order.
// Returns a "clock-rep" divergence otherwise.
func diffClockReps(recs []trace.Record, ranks int) (Divergence, bool, error) {
	replay := func(shared *detector.MustShared) (*detector.Race, error) {
		src := trace.NewRecordSource(trace.Header{Ranks: ranks, Window: "fuzz"}, recs)
		res, err := trace.ReplayStream(src, func(owner int) detector.Analyzer {
			return detector.NewMustRMA(shared, owner)
		}, trace.ReplayOpts{})
		return res.Race, err
	}
	adaptive, err := replay(detector.NewMustShared(ranks))
	if err != nil {
		return Divergence{}, false, err
	}
	vector, err := replay(detector.NewMustSharedVector(ranks))
	if err != nil {
		return Divergence{}, false, err
	}
	switch {
	case (adaptive == nil) != (vector == nil):
		return Divergence{Kind: "clock-rep",
			Detail: fmt.Sprintf("adaptive race=%v, vector race=%v", adaptive != nil, vector != nil)}, true, nil
	case adaptive != nil && detector.DedupKey(adaptive) != detector.DedupKey(vector):
		return Divergence{Kind: "clock-rep",
			Detail: fmt.Sprintf("adaptive pair %+v, vector pair %+v", detector.DedupKey(adaptive), detector.DedupKey(vector))}, true, nil
	}
	return Divergence{}, false, nil
}

// compare classifies a subject verdict against the oracle's set.
func compare(o *oracle.Oracle, race *detector.Race) (Divergence, bool) {
	switch {
	case race == nil && o.Raced():
		return Divergence{Kind: "false-negative",
			Detail: fmt.Sprintf("oracle found %d race(s), e.g. %+v; subject found none", o.Len(), o.Keys()[0])}, true
	case race != nil && !o.Raced():
		return Divergence{Kind: "false-positive",
			Detail: fmt.Sprintf("subject reported %s; oracle found nothing", race.Message())}, true
	case race != nil && !o.Has(detector.DedupKey(race)):
		return Divergence{Kind: "wrong-pair",
			Detail: fmt.Sprintf("subject pair %+v not in the oracle's %d verdict(s)", detector.DedupKey(race), o.Len())}, true
	}
	return Divergence{}, false
}
