// Package obs is the observability layer of the detector stack: a
// zero-allocation-on-hot-path metrics registry (counters, gauges,
// high-water marks and lightweight power-of-two latency histograms)
// plus the structured run-report schema every surface of the
// reproduction emits — `rmarace replay -report`, `rmarace stats`,
// BENCH_*.json snapshots and the library's RunConfig.
//
// The pipeline packages (internal/engine, internal/rma, internal/core,
// internal/store) record through the Recorder interface. The default
// recorder is Disabled, whose methods do nothing: instrumented hot
// paths stay allocation-free and branch on a cached Enabled() bool so
// an un-instrumented run pays one predictable branch per record site.
// A *Registry records for real; every update is a handful of atomic
// operations on pre-grown series, so recording itself allocates only
// when a metric sees a new label (rank, target or tenant index) for the
// first time.
//
// The metric inventory is a closed enum rather than a string namespace:
// the hot path indexes a fixed array, the report schema can validate
// names, and a PR adding a metric extends the enum in one place.
package obs

// Kind classifies how a metric's value is updated and reported.
type Kind uint8

const (
	// KindCounter is a monotonically increasing sum (Add).
	KindCounter Kind = iota
	// KindGauge is a last-write-wins level (Set).
	KindGauge
	// KindHighWater is a maximum over the run (SetMax).
	KindHighWater
	// KindHistogram is a power-of-two bucketed distribution with count,
	// sum and max (Observe).
	KindHistogram
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHighWater:
		return "high_water"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Metric enumerates every instrumented quantity of the pipeline. Each
// metric carries one integer label dimension (a rank, target or tenant
// index); the label of a metric whose dimension does not apply is 0.
type Metric uint8

const (
	// EngineReceived counts notifications processed per rank (events
	// and sync markers alike) — the quiescence counter, exported.
	EngineReceived Metric = iota
	// EngineOverflows counts sends that found a rank's notification
	// channel full and had to block (backpressure; nothing is dropped).
	EngineOverflows
	// EngineBlockNanos accumulates wall-clock time senders spent
	// blocked on a full notification channel, per rank.
	EngineBlockNanos
	// EngineQueueDepth is the high-water mark of a rank's notification
	// channel depth.
	EngineQueueDepth
	// EpochNanos is the distribution of epoch durations per rank:
	// passive-target LockAll..UnlockAll epochs and the PSCW access
	// (Start..Complete) and exposure (Post..Wait) epochs.
	EpochNanos
	// NotifBatchLen is the distribution of notification batch fill
	// levels at flush time, per target rank.
	NotifBatchLen
	// LockWaitNanos is the distribution of MPI_Win_lock wait times per
	// target rank.
	LockWaitNanos
	// StoreNodes is the high-water mark of stored entries (BST nodes)
	// per rank.
	StoreNodes
	// StoreInserts counts store insertions per rank (fragment and merge
	// churn included).
	StoreInserts
	// StoreDeletes counts store deletions per rank.
	StoreDeletes
	// StabVisited is the distribution of entries visited per stabbing
	// query, per rank — the measured query depth of Algorithm 1.
	StabVisited
	// Fragments counts fragment pieces produced by the §4.1
	// fragmentation pass, per rank.
	Fragments
	// Merges counts node coalescings applied by the §4.2 merging pass
	// (fast-path boundary merges included), per rank.
	Merges
	// Races counts detected data races per owning rank.
	Races
	// ClockPromotions is the number of rank states promoted from the
	// scalar epoch representation to a base-sharing clock at a
	// collective join (FastTrack-style adaptation, see internal/vc).
	ClockPromotions
	// ClockDemotions is the number of rank states demoted back to the
	// scalar representation. Clock components never decrease, so this
	// stays 0 under the current synchronisation surface.
	ClockDemotions
	// ClockEpochSnapshots counts happens-before snapshots served as
	// packed scalar epochs (8 bytes instead of 8·P).
	ClockEpochSnapshots
	// ClockSharedSnapshots counts snapshots served as base-sharing
	// promoted clocks (O(1) each; one O(P) base per join generation).
	ClockSharedSnapshots
	// ClockVectorSnapshots counts full-vector snapshots (the
	// always-vector baseline representation).
	ClockVectorSnapshots
	// ClockBytes is the happens-before clock payload actually allocated
	// by the adaptive representation over the run.
	ClockBytes
	// ClockBytesVector is the payload an always-vector run would have
	// allocated for the same call sequence (8·P per snapshot) — the
	// §5.3 piggybacking cost the adaptive scheme avoids.
	ClockBytesVector
	// ClockEpochsHeld is the number of rank states currently in the
	// scalar epoch representation.
	ClockEpochsHeld
	// ClockFullLive is the number of full O(P) vectors currently held
	// by the shared clock state.
	ClockFullLive
	// DepotEntries is the number of unique call stacks interned in the
	// process-wide stack depot.
	DepotEntries
	// DepotBytes is the depot's retained payload (rendered text + pcs).
	DepotBytes
	// DepotHits counts stack captures resolved to an existing depot id.
	DepotHits
	// DepotMisses counts stack captures that interned a new stack.
	DepotMisses
	// TraceIngestBytes counts trace bytes consumed by a streaming replay
	// (JSON or binary source alike).
	TraceIngestBytes
	// TraceIngestRecords counts trace records consumed by a streaming
	// replay.
	TraceIngestRecords
	// AnalyzerEvictions counts cold (owner, window) analyzers retired by
	// the bounded-memory replay's eviction policy.
	AnalyzerEvictions
	// PeakRSS is the high-water mark of the live heap (HeapAlloc)
	// sampled during a streaming replay — the resident-memory proxy the
	// 10k-rank scale sweep gates on.
	PeakRSS
	// ServeSessions counts analysis sessions admitted by the daemon,
	// labelled by interned tenant id.
	ServeSessions
	// ServeActiveSessions is a gauge of currently running sessions per
	// tenant (moved by ±1 at session start/finish).
	ServeActiveSessions
	// ServeQuotaRejects counts sessions turned away with 429 by
	// admission control (daemon-wide cap or per-tenant concurrency
	// quota), per tenant.
	ServeQuotaRejects
	// ServeLimitAborts counts sessions aborted mid-stream with 413 for
	// exceeding their per-session ingest byte or record quota, per
	// tenant.
	ServeLimitAborts
	// ServeRaces counts sessions that ended in a race verdict, per
	// tenant.
	ServeRaces
	// ServeQueueWaitNanos accumulates time admitted sessions spent
	// waiting for a worker-pool slot, per tenant — the daemon's
	// backpressure signal, the serve-side analogue of EngineBlockNanos.
	ServeQueueWaitNanos
	// ServeStageQueueNanos is the distribution of per-session
	// queue-wait times (admission to worker dequeue), per tenant.
	ServeStageQueueNanos
	// ServeStageIngestNanos is the distribution of per-session ingest
	// times (first record to source EOF or early race stop), per tenant.
	ServeStageIngestNanos
	// ServeStageDrainNanos is the distribution of per-session analysis
	// drain times (EOF to final verdict), per tenant.
	ServeStageDrainNanos
	// ServeStageReportNanos is the distribution of per-session report
	// build times (verdict to retained run report), per tenant.
	ServeStageReportNanos

	// NumMetrics bounds the enum; it is not a metric.
	NumMetrics
)

// metricInfo is the static metadata of one metric.
type metricInfo struct {
	name  string
	kind  Kind
	label string
}

var metricInfos = [NumMetrics]metricInfo{
	EngineReceived:   {"engine_received", KindCounter, "rank"},
	EngineOverflows:  {"engine_overflows", KindCounter, "rank"},
	EngineBlockNanos: {"engine_block_nanos", KindCounter, "rank"},
	EngineQueueDepth: {"engine_queue_depth", KindHighWater, "rank"},
	EpochNanos:       {"epoch_nanos", KindHistogram, "rank"},
	NotifBatchLen:    {"notif_batch_len", KindHistogram, "target"},
	LockWaitNanos:    {"lock_wait_nanos", KindHistogram, "target"},
	StoreNodes:       {"store_nodes", KindHighWater, "rank"},
	StoreInserts:     {"store_inserts", KindCounter, "rank"},
	StoreDeletes:     {"store_deletes", KindCounter, "rank"},
	StabVisited:      {"stab_visited", KindHistogram, "rank"},
	Fragments:        {"fragments", KindCounter, "rank"},
	Merges:           {"merges", KindCounter, "rank"},
	Races:            {"races", KindCounter, "rank"},
	// The clock/depot gauges are process-wide levels set idempotently at
	// report time from MustShared.ClockStats and depot.GlobalStats; the
	// rank dimension does not apply (label 0 by convention).
	ClockPromotions:      {"clock_promotions", KindGauge, "rank"},
	ClockDemotions:       {"clock_demotions", KindGauge, "rank"},
	ClockEpochSnapshots:  {"clock_epoch_snapshots", KindGauge, "rank"},
	ClockSharedSnapshots: {"clock_shared_snapshots", KindGauge, "rank"},
	ClockVectorSnapshots: {"clock_vector_snapshots", KindGauge, "rank"},
	ClockBytes:           {"clock_bytes", KindGauge, "rank"},
	ClockBytesVector:     {"clock_bytes_vector", KindGauge, "rank"},
	ClockEpochsHeld:      {"clock_epochs_held", KindGauge, "rank"},
	ClockFullLive:        {"clock_full_clocks_live", KindGauge, "rank"},
	DepotEntries:         {"depot_entries", KindGauge, "rank"},
	DepotBytes:           {"depot_bytes", KindGauge, "rank"},
	DepotHits:            {"depot_hits", KindGauge, "rank"},
	DepotMisses:          {"depot_misses", KindGauge, "rank"},
	// Trace-ingest metrics are process-wide like the clock/depot gauges
	// (label 0 by convention).
	TraceIngestBytes:   {"trace_ingest_bytes", KindCounter, "rank"},
	TraceIngestRecords: {"trace_ingest_records", KindCounter, "rank"},
	AnalyzerEvictions:  {"analyzer_evictions", KindCounter, "rank"},
	PeakRSS:            {"peak_rss_bytes", KindHighWater, "rank"},
	// The serve_* metrics are recorded by the analysis daemon
	// (internal/serve) on its daemon-wide registry; their label is an
	// interned tenant id (arrival order, 0-based), reported by the
	// daemon's /v1/tenants endpoint.
	ServeSessions:       {"serve_sessions_total", KindCounter, "tenant"},
	ServeActiveSessions: {"serve_active_sessions", KindGauge, "tenant"},
	ServeQuotaRejects:   {"serve_quota_rejects", KindCounter, "tenant"},
	ServeLimitAborts:    {"serve_limit_aborts", KindCounter, "tenant"},
	ServeRaces:          {"serve_races", KindCounter, "tenant"},
	ServeQueueWaitNanos: {"serve_queue_wait_nanos", KindCounter, "tenant"},
	// The per-stage wall-time histograms decompose a session's latency:
	// queue-wait, ingest, analysis drain, report build (PR 9). Recorded
	// on the daemon registry per tenant and on each session's private
	// registry at label 0.
	ServeStageQueueNanos:  {"serve_stage_queue_nanos", KindHistogram, "tenant"},
	ServeStageIngestNanos: {"serve_stage_ingest_nanos", KindHistogram, "tenant"},
	ServeStageDrainNanos:  {"serve_stage_drain_nanos", KindHistogram, "tenant"},
	ServeStageReportNanos: {"serve_stage_report_nanos", KindHistogram, "tenant"},
}

// Name returns the metric's wire name (snake_case, stable).
func (m Metric) Name() string {
	if m < NumMetrics {
		return metricInfos[m].name
	}
	return "unknown"
}

// Kind returns how the metric is updated.
func (m Metric) Kind() Kind {
	if m < NumMetrics {
		return metricInfos[m].kind
	}
	return KindCounter
}

// LabelDim names the metric's label dimension ("rank", "target",
// "tenant").
func (m Metric) LabelDim() string {
	if m < NumMetrics {
		return metricInfos[m].label
	}
	return ""
}

// MetricByName resolves a wire name back to its enum value; ok is
// false for unknown names.
func MetricByName(name string) (Metric, bool) {
	for m := Metric(0); m < NumMetrics; m++ {
		if metricInfos[m].name == name {
			return m, true
		}
	}
	return 0, false
}

// Recorder is the hot-path recording interface. Implementations must
// be safe for concurrent use; arguments are plain integers so calls
// never box or escape. Call sites cache Enabled() and skip the call
// entirely when recording is off.
type Recorder interface {
	// Add increments a counter (or moves a gauge by delta).
	Add(m Metric, label int, delta int64)
	// Set overwrites a gauge's level.
	Set(m Metric, label int, v int64)
	// SetMax raises a high-water mark to v if v is larger.
	SetMax(m Metric, label int, v int64)
	// Observe records one histogram sample.
	Observe(m Metric, label int, v int64)
	// Enabled reports whether recording does anything; call sites guard
	// their instrumentation with it so a disabled recorder costs one
	// branch, not an interface call per metric.
	Enabled() bool
}

// nop is the disabled recorder.
type nop struct{}

func (nop) Add(Metric, int, int64)     {}
func (nop) Set(Metric, int, int64)     {}
func (nop) SetMax(Metric, int, int64)  {}
func (nop) Observe(Metric, int, int64) {}
func (nop) Enabled() bool              { return false }

// Disabled is the no-op default recorder: every method does nothing
// and Enabled reports false.
var Disabled Recorder = nop{}

// OrDisabled returns r, or Disabled when r is nil, so config structs
// can leave the recorder unset.
func OrDisabled(r Recorder) Recorder {
	if r == nil {
		return Disabled
	}
	return r
}
