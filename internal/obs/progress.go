package obs

import (
	"sync/atomic"
	"time"
)

// Stage is where a session is in its lifecycle. The daemon moves a
// session Queued -> Ingesting -> Draining -> Done (or Failed from any
// stage); the streaming replay loop marks the Ingesting -> Draining
// transition itself, since only it knows when the source hit EOF and
// the final per-owner flushes began.
type Stage int32

const (
	// StageQueued: admitted, waiting for a worker-pool slot.
	StageQueued Stage = iota
	// StageIngesting: streaming trace records through the analyzers.
	StageIngesting
	// StageDraining: source exhausted (or a race stopped it); pending
	// batches are flushing and the verdict is being assembled.
	StageDraining
	// StageDone: terminal, verdict available.
	StageDone
	// StageFailed: terminal, the session aborted (bad trace, quota).
	StageFailed

	numStages
)

// String returns the stage's wire name (stable; the SSE protocol and
// the log schema use it).
func (s Stage) String() string {
	switch s {
	case StageQueued:
		return "queued"
	case StageIngesting:
		return "ingesting"
	case StageDraining:
		return "draining"
	case StageDone:
		return "done"
	case StageFailed:
		return "failed"
	}
	return "unknown"
}

// Progress is the lock-free probe a streaming replay publishes through
// and progress watchers read from. The writer (one replay goroutine)
// stores plain atomics on a sampled cadence; any number of readers
// snapshot concurrently. Seq bumps on every publish so a poller can
// tell "changed" from "idle" without comparing fields. A nil *Progress
// is the disabled probe: every method is a no-op and Enabled reports
// false, so the replay loop pays one branch when nobody is watching.
type Progress struct {
	start time.Time
	stage atomic.Int32
	seq   atomic.Uint64

	bytes, records, events, epochs, races, evictions atomic.Int64

	// stageNanos[s] is when stage s was first entered, in nanoseconds
	// since start (0 = never entered; Queued is entered at creation).
	// First-entry-wins, so the stage latency accounting survives
	// duplicate transitions.
	stageNanos [numStages]atomic.Int64
}

// NewProgress returns a probe in StageQueued.
func NewProgress() *Progress {
	p := &Progress{start: time.Now()}
	p.stageNanos[StageQueued].Store(1) // entered now (0 means "never")
	return p
}

// Enabled reports whether the probe records anything.
func (p *Progress) Enabled() bool { return p != nil }

func (p *Progress) now() int64 {
	n := int64(time.Since(p.start))
	if n < 1 {
		n = 1 // 0 is the "never entered" sentinel
	}
	return n
}

// SetStage moves the session to s, records the first entry time, and
// publishes.
func (p *Progress) SetStage(s Stage) {
	if p == nil || s < 0 || s >= numStages {
		return
	}
	p.stage.Store(int32(s))
	p.stageNanos[s].CompareAndSwap(0, p.now())
	p.seq.Add(1)
}

// Stage returns the current stage.
func (p *Progress) Stage() Stage {
	if p == nil {
		return StageQueued
	}
	return Stage(p.stage.Load())
}

// Update publishes the ingest counters: body bytes and trace records
// consumed, access events analysed, epochs completed.
func (p *Progress) Update(bytes, records, events, epochs int64) {
	if p == nil {
		return
	}
	p.bytes.Store(bytes)
	p.records.Store(records)
	p.events.Store(events)
	p.epochs.Store(epochs)
	p.seq.Add(1)
}

// AddRace publishes one detected race.
func (p *Progress) AddRace() {
	if p == nil {
		return
	}
	p.races.Add(1)
	p.seq.Add(1)
}

// AddEviction publishes one cold-analyzer eviction.
func (p *Progress) AddEviction() {
	if p == nil {
		return
	}
	p.evictions.Add(1)
	p.seq.Add(1)
}

// Seq returns the publication counter; a poller re-snapshots only when
// it moved.
func (p *Progress) Seq() uint64 {
	if p == nil {
		return 0
	}
	return p.seq.Load()
}

// StageEntryNanos returns when stage s was first entered, in
// nanoseconds since the probe's creation (0 = never entered).
func (p *Progress) StageEntryNanos(s Stage) int64 {
	if p == nil || s < 0 || s >= numStages {
		return 0
	}
	return p.stageNanos[s].Load()
}

// ProgressSnapshot is one consistent-enough reading of the probe — the
// SSE progress event's payload. Fields are read individually (the
// probe is lock-free), so a snapshot taken mid-publish may mix
// adjacent samples; monotonic counters make that harmless.
type ProgressSnapshot struct {
	Stage     string `json:"stage"`
	Bytes     int64  `json:"bytes"`
	Records   int64  `json:"records"`
	Events    int64  `json:"events"`
	Epochs    int64  `json:"epochs"`
	Races     int64  `json:"races"`
	Evictions int64  `json:"evictions,omitempty"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Seq       uint64 `json:"-"`
}

// Snapshot reads the probe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{Stage: StageQueued.String()}
	}
	return ProgressSnapshot{
		Stage:     Stage(p.stage.Load()).String(),
		Bytes:     p.bytes.Load(),
		Records:   p.records.Load(),
		Events:    p.events.Load(),
		Epochs:    p.epochs.Load(),
		Races:     p.races.Load(),
		Evictions: p.evictions.Load(),
		ElapsedNs: int64(time.Since(p.start)),
		Seq:       p.seq.Load(),
	}
}
