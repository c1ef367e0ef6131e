package trace

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"

	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
	"rmarace/internal/obs/span"
)

// ReplayResult summarises a replay.
type ReplayResult struct {
	Events   int
	Epochs   int
	MaxNodes int
	Race     *detector.Race
	// Evictions counts cold (owner, window) analyzers the bounded-memory
	// policy retired mid-stream (ReplayOpts.EvictCold).
	Evictions int64
}

// ReplayOpts selects the optional observability and the memory policy
// of a replay.
type ReplayOpts struct {
	// Spans, when non-nil, receives one logical-time span per replayed
	// record — a timeline of the trace for Perfetto. Build it with
	// span.NewLogicalTracer(header.Ranks, depth).
	Spans *span.Tracer
	// FlightN, when positive, keeps per-owner flight recorders of the
	// last FlightN replayed events; a detected race carries the owner's
	// snapshot like the live engine's does. At most MaxFlight.
	FlightN int
	// Batch coalesces up to Batch consecutive access events per owner
	// into one event batch fed through detector.AccessBatch — the
	// engine's notification-batch shape, one analyzer call per batch
	// instead of per event. Values below 2 keep the per-event path.
	// Batches are flushed before any
	// synchronisation record of their owner, so verdicts are identical
	// to unbatched replay. Span tracing and the flight recorder are
	// per-event observers, so either forces the per-event path.
	Batch int
	// EvictCold, when positive, retires the analyzer state of a cold
	// (owner, window): an owner whose analyzer went EvictCold
	// consecutive epochs without seeing a single access — and whose
	// store is empty, which an epoch boundary guarantees for the
	// tree-based analyzers — is dropped and lazily rebuilt on its next
	// record. Eviction is verdict-preserving exactly because only empty
	// post-epoch state is dropped; it bounds the resident analyzer set
	// to the stream's hot owners on many-rank traces.
	EvictCold int
	// Compact, when set, releases retained analyzer capacity at every
	// epoch boundary through the detector.Compacter capability: scratch
	// buffers, and the avl store's free leaves and spare inner nodes
	// beyond constant reserves per tree (itree.ReleaseFree). The
	// reserves refill a hot owner's tree in the next epoch without
	// allocating; everything past them is traded for a flat memory
	// profile — the bounded-RSS mode of the 10k-rank sweep.
	Compact bool
	// Recorder receives the replay's ingest metrics: trace_ingest_bytes
	// and trace_ingest_records counters, the analyzer_evictions counter
	// and the peak_rss_bytes high-water mark (sampled live heap). Nil
	// disables recording.
	Recorder obs.Recorder
	// Progress, when non-nil, is the lock-free probe the replay
	// publishes live progress through: bytes/records consumed, events
	// analysed, epochs completed, races and evictions so far, plus the
	// Ingesting -> Draining stage transition at source EOF (or an early
	// race stop). The daemon's SSE event stream reads it; sampling is
	// a handful of atomic stores every progressEvery records, so an
	// unwatched replay pays one nil check per record.
	Progress *obs.Progress
	// Log, when non-nil, receives the replay's structured log events,
	// all at Debug: a race stop, eviction and compaction, and the final
	// summary. Callers wanting session correlation pass a logger that
	// carries it (slog.Logger.With); nil logs nothing.
	Log *slog.Logger
}

// MaxFlight caps ReplayOpts.FlightN. Every owner's flight log
// allocates its whole ring up front (88 bytes an entry), so the depth
// is a memory request; 1,024 is 16× the default of 64.
const MaxFlight = 1024

// MaxOwners bounds a record's owner. Replay indexes its per-owner state
// by owner, and owners number (window, rank) streams, not ranks
// (fuzz.Render writes win*Ranks + rank), so the cap is its own: 2^20
// keeps the owner table at most 8 MiB.
const MaxOwners = 1 << 20

// replayTick is the exported logical-time width of one replayed record
// in nanoseconds: records render 1µs apart so Perfetto shows a readable
// timeline regardless of the trace's own counters.
const replayTick = 1000

// ingestFlushEvery is how many records the replay loop batches between
// recorder updates, and peakSampleEvery how many between live-heap
// samples (runtime.ReadMemStats briefly stops the world, so it runs at
// a coarser cadence).
const (
	ingestFlushEvery = 4096
	peakSampleEvery  = 1 << 16
)

// progressEvery is how many records the replay loop lets pass between
// progress-probe publications. Finer than the recorder cadence so a
// watcher of a slow chunked upload sees the counters move, still
// coarse enough that the publication (a few atomic stores) vanishes in
// the decode cost.
const progressEvery = 256

// ownerState is one owner's resident replay state: its analyzer, the
// optional flight recorder, the pending event batch, and the cold-epoch
// counter of the eviction policy.
type ownerState struct {
	a      detector.Analyzer
	flight *detector.FlightLog
	// pending grows by append as the owner's accesses arrive, up to the
	// batch size, so an owner that sees few accesses holds a small batch.
	pending []detector.Event
	// sawAccess records whether the owner saw any access since its last
	// epoch boundary; coldEpochs counts consecutive accessless epochs.
	sawAccess  bool
	coldEpochs int
}

// ReplayStream feeds a record stream — JSON or binary, anything
// implementing Source — through per-owner analyzers built by
// newAnalyzer, stopping at the first race like the on-the-fly tools.
// The stream is consumed with bounded memory: one reusable record
// buffer, per-owner event batches sized by use (ReplayOpts.Batch), and
// optionally the cold-owner eviction and epoch-boundary compaction
// policies. Per-rank timestamps and per-owner state live in slices
// indexed by rank and owner.
//
// Replayed records get their timestamps normalised per issuing rank:
// traces written without Time/CallTime (or with stale counters) would
// otherwise give every access the same program-order time, collapsing
// the happens-before information span export and the MUST-RMA replay
// rely on. A record whose Time does not advance its rank's last seen
// value is bumped to lastTime+1, and a zero CallTime inherits Time, so
// per-rank timestamps are always strictly monotonic after replay.
//
// A record no analyzer can take ends the replay with an error naming
// its position: a rank that is negative or not below the header's rank
// count (MaxRanks when the header declares none), an owner that is
// negative or not below MaxOwners, and a complete record with lo above
// hi.
func ReplayStream(src Source, newAnalyzer func(owner int) detector.Analyzer, opts ReplayOpts) (ReplayResult, error) {
	if opts.FlightN > MaxFlight {
		return ReplayResult{}, fmt.Errorf("trace: flight depth %d above the cap of %d", opts.FlightN, MaxFlight)
	}
	batch := opts.Batch
	if batch < 1 || opts.FlightN > 0 || opts.Spans.Enabled() {
		// Spans and the flight recorder observe record order; batching
		// would reorder analysis relative to them.
		batch = 1
	}
	rec := obs.OrDisabled(opts.Recorder)
	recOn := rec.Enabled()
	prog := opts.Progress
	log := opts.Log
	// The debug-enabled check is hoisted: the loop below must pay one
	// cached bool per rare event, not a handler call per record.
	logOn := log != nil && log.Enabled(context.Background(), slog.LevelDebug)
	prog.SetStage(obs.StageIngesting)
	// owners is indexed by owner; an evicted owner's slot is nil.
	var owners []*ownerState
	get := func(owner int) *ownerState {
		owners = grow(owners, owner)
		st := owners[owner]
		if st == nil {
			st = &ownerState{a: newAnalyzer(owner)}
			if opts.FlightN > 0 {
				st.flight = detector.NewFlightLog(opts.FlightN)
			}
			owners[owner] = st
		}
		return st
	}
	var res ReplayResult
	flush := func(st *ownerState) *detector.Race {
		if len(st.pending) == 0 {
			return nil
		}
		race := detector.AccessBatch(st.a, st.pending)
		st.pending = st.pending[:0]
		return race
	}
	// finish folds one owner's high-water mark into the result. Every
	// owner is finished exactly once: on eviction, or when the replay
	// ends (at EOF or on a race stop) while it is still resident.
	finish := func(st *ownerState) {
		if n := st.a.MaxNodes(); n > res.MaxNodes {
			res.MaxNodes = n
		}
	}
	finishResident := func() {
		for _, st := range owners {
			if st != nil {
				finish(st)
			}
		}
	}
	recordPeak := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rec.SetMax(obs.PeakRSS, 0, int64(ms.HeapAlloc))
	}

	// A record's rank must name a rank of the header's world, when the
	// header declares one: the MUST-RMA clocks are indexed by it. Without
	// one, MaxRanks bounds the rank-indexed timestamps.
	ranks := src.Head().Ranks
	rankCap := ranks
	if rankCap == 0 {
		rankCap = MaxRanks
	}
	var lastTime []uint64          // per issuing rank
	epochT0 := make(map[int]int64) // per owner, logical span start
	epochN := make(map[int]int64)  // per owner, completed epochs
	var step int64                 // logical clock: one tick per replayed record
	var flushedBytes int64         // ingest bytes already credited to the recorder
	// finishIngest credits the counters' unflushed remainder and takes a
	// final live-heap sample; it runs at EOF and on an early race stop.
	finishIngest := func() {
		if prog != nil {
			prog.Update(src.BytesRead(), step, int64(res.Events), int64(res.Epochs))
			prog.SetStage(obs.StageDraining)
		}
		if !recOn {
			return
		}
		rec.Add(obs.TraceIngestRecords, 0, step%ingestFlushEvery)
		rec.Add(obs.TraceIngestBytes, 0, src.BytesRead()-flushedBytes)
		flushedBytes = src.BytesRead()
		recordPeak()
	}
	stamp := func(owner int, st *ownerState, race *detector.Race) ReplayResult {
		prog.AddRace()
		if logOn {
			log.Debug("race detected", "owner", owner, "records", step, "events", res.Events)
		}
		// The replay loop is the layer that knows which owner's analyzer
		// held the conflict and which window was traced; stamp them like
		// the live engine does (a sharded analyzer has already stamped
		// its shard).
		p := race.EnsureProv()
		p.Owner = owner
		if p.Window == "" {
			p.Window = src.Head().Window
		}
		if race.FlightLog == nil && st.flight != nil {
			race.FlightLog = st.flight.Snapshot()
		}
		res.Race = race
		finishResident()
		finishIngest()
		return res
	}
	var r Record
	for {
		err := src.Read(&r)
		if err == io.EOF {
			// The source is exhausted: everything from here on is the
			// analysis drain (pending batches, final flushes). Mark the
			// stage transition now so stage accounting attributes the
			// flush time to draining, not ingest.
			if prog != nil {
				prog.Update(src.BytesRead(), step, int64(res.Events), int64(res.Epochs))
				prog.SetStage(obs.StageDraining)
			}
			break
		}
		if err != nil {
			return res, err
		}
		if r.Rank < 0 || r.Rank >= rankCap {
			if ranks == 0 {
				return res, fmt.Errorf("trace: %s: rank %d outside [0, %d) under a header without ranks", src.Pos(), r.Rank, MaxRanks)
			}
			return res, fmt.Errorf("trace: %s: rank %d outside the header's %d ranks", src.Pos(), r.Rank, ranks)
		}
		if r.Owner < 0 || r.Owner >= MaxOwners {
			return res, fmt.Errorf("trace: %s: owner %d outside [0, %d)", src.Pos(), r.Owner, MaxOwners)
		}
		step++
		if prog != nil && step%progressEvery == 0 {
			prog.Update(src.BytesRead(), step, int64(res.Events), int64(res.Epochs))
		}
		if recOn {
			if step%ingestFlushEvery == 0 {
				rec.Add(obs.TraceIngestRecords, 0, ingestFlushEvery)
				b := src.BytesRead()
				rec.Add(obs.TraceIngestBytes, 0, b-flushedBytes)
				flushedBytes = b
			}
			if step%peakSampleEvery == 0 {
				recordPeak()
			}
		}
		switch r.Kind {
		case "access":
			ev, err := r.event()
			if err != nil {
				return res, fmt.Errorf("trace: %s: %w", src.Pos(), err)
			}
			lastTime = grow(lastTime, r.Rank)
			if ev.Time <= lastTime[r.Rank] {
				ev.Time = lastTime[r.Rank] + 1
			}
			lastTime[r.Rank] = ev.Time
			if ev.CallTime == 0 || ev.CallTime > ev.Time {
				ev.CallTime = ev.Time
			}
			res.Events++
			if opts.Spans.Enabled() {
				if _, ok := epochT0[r.Owner]; !ok {
					epochT0[r.Owner] = step * replayTick
				}
				opts.Spans.Record(r.Rank, span.Record{
					Kind:  replaySpanKind(ev.Acc.Type),
					Start: step * replayTick, Dur: replayTick * 4 / 5,
					A: int64(ev.Acc.Lo), B: int64(ev.Acc.Hi - ev.Acc.Lo + 1),
				})
			}
			st := get(r.Owner)
			st.sawAccess = true
			if st.flight != nil {
				st.flight.Access(ev.Acc)
			}
			if batch > 1 {
				st.pending = append(st.pending, ev)
				if len(st.pending) >= batch {
					if race := flush(st); race != nil {
						return stamp(r.Owner, st, race), nil
					}
				}
				continue
			}
			if race := st.a.Access(ev); race != nil {
				return stamp(r.Owner, st, race), nil
			}
		case "release":
			st := get(r.Owner)
			if race := flush(st); race != nil {
				return stamp(r.Owner, st, race), nil
			}
			if st.flight != nil {
				st.flight.Mark(detector.FlightRelease, r.Rank)
			}
			st.a.Release(r.Rank)
		case "complete":
			if r.Hi < r.Lo {
				return res, fmt.Errorf("trace: %s: inverted interval [%d, %d]", src.Pos(), r.Lo, r.Hi)
			}
			st := get(r.Owner)
			if race := flush(st); race != nil {
				return stamp(r.Owner, st, race), nil
			}
			if st.flight != nil {
				st.flight.Mark(detector.FlightComplete, r.Rank)
			}
			detector.CompleteRequest(st.a, r.Rank, interval.New(r.Lo, r.Hi))
		case "epoch_end":
			res.Epochs++
			st := get(r.Owner)
			if race := flush(st); race != nil {
				return stamp(r.Owner, st, race), nil
			}
			if st.flight != nil {
				st.flight.Mark(detector.FlightEpochEnd, r.Owner)
			}
			st.a.EpochEnd()
			if opts.Spans.Enabled() {
				t0, ok := epochT0[r.Owner]
				if !ok {
					t0 = (step - 1) * replayTick
				}
				epochN[r.Owner]++
				opts.Spans.Record(r.Owner, span.Record{
					Kind:  span.KindEpoch,
					Start: t0, Dur: step*replayTick - t0,
					A: epochN[r.Owner], B: int64(src.Head().Ranks),
				})
				delete(epochT0, r.Owner)
			}
			if opts.Compact {
				detector.Compact(st.a)
				if logOn {
					log.Debug("analyzer compacted", "owner", r.Owner, "epoch", res.Epochs)
				}
			}
			if opts.EvictCold > 0 {
				if st.sawAccess {
					st.coldEpochs = 0
				} else {
					st.coldEpochs++
				}
				st.sawAccess = false
				// Only empty post-epoch state may go: EpochEnd cleared the
				// tree-based stores, but an analyzer retaining entries
				// across epochs (shadow cells, clock state) stays resident.
				if st.coldEpochs >= opts.EvictCold && st.a.Nodes() == 0 {
					finish(st)
					owners[r.Owner] = nil
					res.Evictions++
					prog.AddEviction()
					if recOn {
						rec.Add(obs.AnalyzerEvictions, 0, 1)
					}
					if logOn {
						log.Debug("analyzer evicted", "owner", r.Owner, "cold_epochs", st.coldEpochs, "evictions", res.Evictions)
					}
				}
			}
		default:
			return res, fmt.Errorf("trace: %s: unknown record kind %q", src.Pos(), r.Kind)
		}
	}
	// Final flush in owner order, then fold the survivors.
	for o, st := range owners {
		if st == nil {
			continue
		}
		if race := flush(st); race != nil {
			return stamp(o, st, race), nil
		}
	}
	finishResident()
	finishIngest()
	if logOn {
		log.Debug("replay drained", "records", step, "events", res.Events, "epochs", res.Epochs, "evictions", res.Evictions)
	}
	return res, nil
}

// grow returns s extended with zero values so that i indexes it.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}
