package serve

import (
	"fmt"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/rma"
	"rmarace/internal/shard"
	"rmarace/internal/store"
	"rmarace/internal/trace"
)

// MaxShards caps the address-space shard count a replay, session or
// fuzz run may ask for. Every shard is a whole analyzer built up front
// (about 0.5 KB each, per owner), so an unchecked count is a memory
// request; nothing in the project uses more than 8.
const MaxShards = 64

// MaxSpanSlots caps a ?spans=1 session's span rings: header ranks ×
// ?spandepth, 64 bytes a slot before each ring rounds up to a power of
// two. 1<<20 slots is 64 MiB; it admits 256 ranks at the default depth.
const MaxSpanSlots = 1 << 20

// CheckShards rejects a shard count the sharded analyzer cannot take:
// one that is not a power of two, or one above MaxShards.
func CheckShards(k int) error {
	if k > MaxShards {
		return fmt.Errorf("serve: shard count %d above the cap of %d", k, MaxShards)
	}
	if _, err := shard.New(k, 0); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// CheckStore rejects a storage backend the method cannot take: an
// unknown name, or any name with rma-analyzer. The store selects the
// contribution's backend; RMA-Analyzer always runs over its own
// lower-bound BST, as MUST-RMA always runs over shadow memory, and the
// accesses it stores overlap, which the other backends do not hold.
func CheckStore(method detector.Method, storeName string) error {
	if _, err := store.New(storeName); err != nil {
		return err
	}
	if method == detector.RMAAnalyzer && storeName != "" {
		return fmt.Errorf("serve: store %q for %s: -store (?store=) selects the contribution's backend; %s always runs over its own lower-bound BST", storeName, method, method)
	}
	return nil
}

// NewAnalyzerFactory builds the per-owner analyzer constructor every
// replay surface shares — `rmarace replay`, `rmarace postmortem` and
// the daemon's sessions all analyse through it, so a served verdict is
// produced by exactly the code path an offline replay uses. It returns
// the MUST-RMA shared clock state (nil for the other methods) so
// callers can publish its representation stats after the run. MUST-RMA
// sizes those clocks by ranks, so it is refused when the trace header
// declares none.
func NewAnalyzerFactory(method detector.Method, ranks int, storeName string, shards int, rec obs.Recorder) (func(int) detector.Analyzer, *detector.MustShared, error) {
	// Validate the backend name and the shard count once, up front: the
	// per-owner constructor below runs deep inside a replay loop where
	// an "unknown store" error or a bad count has nowhere civilised to
	// go.
	if err := CheckStore(method, storeName); err != nil {
		return nil, nil, err
	}
	if err := CheckShards(shards); err != nil {
		return nil, nil, err
	}
	var shared *detector.MustShared
	if method == detector.MustRMAMethod {
		if ranks <= 0 {
			return nil, nil, fmt.Errorf("serve: %s needs the trace header to declare its ranks", method)
		}
		shared = detector.NewMustShared(ranks)
	}
	recording := rec != nil && rec.Enabled()
	// Each analyzer owns its backend, so one is built per owner. The
	// name was validated above, so the rebuild cannot fail.
	newStore := func() store.AccessStore {
		st, _ := store.New(storeName)
		return st
	}
	factory := func(owner int) detector.Analyzer {
		switch method {
		case detector.Baseline:
			return detector.NewBaseline()
		case detector.RMAAnalyzer:
			return detector.NewLegacy()
		case detector.MustRMAMethod:
			return detector.NewMustRMA(shared, owner)
		default:
			// The bare store: core.WithRecorder instruments it.
			opts := []core.Option{core.WithOwner(owner)}
			if storeName != "" {
				opts = append(opts, core.WithStoreFactory(newStore))
			}
			if shards > 1 {
				opts = append(opts, core.WithShards(shards))
			}
			if recording {
				opts = append(opts, core.WithRecorder(rec, owner))
			}
			return core.Build(opts...)
		}
	}
	return factory, shared, nil
}

// ReplayReport converts a replay result plus the metrics registry into
// the structured rmarace/run-report/v1 document — the shared builder
// behind `rmarace replay -report`, the telemetry /report callback and
// the daemon's per-session reports. source says what produced it
// ("replay", "serve").
func ReplayReport(source string, h trace.Header, method detector.Method, res trace.ReplayResult, reg *obs.Registry) *obs.RunReport {
	rep := &obs.RunReport{
		Schema:   obs.ReportSchema,
		Source:   source,
		Method:   method.String(),
		Ranks:    h.Ranks,
		Events:   int64(res.Events),
		Epochs:   int64(res.Epochs),
		MaxNodes: int64(res.MaxNodes),
	}
	// Older traces may omit the window name; the schema rejects
	// anonymous windows, so only emit the section when named.
	if h.Window != "" {
		rep.Windows = []obs.WindowReport{{
			Name:          h.Window,
			TotalMaxNodes: res.MaxNodes,
			Accesses:      uint64(res.Events),
		}}
	}
	if reg != nil {
		rep.EpochLatency = obs.EpochLatencyFromRegistry(reg)
		rep.Metrics = reg.Snapshot()
	}
	if res.Race != nil {
		rep.Races = append(rep.Races, rma.RaceReport(res.Race))
	}
	return rep
}
