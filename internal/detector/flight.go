package detector

import (
	"sync"

	"rmarace/internal/access"
)

// FlightKind classifies one flight-recorder entry: an analysed access
// or a synchronisation event that changed the analyzer's state.
type FlightKind uint8

const (
	// FlightAccess is one analysed memory access.
	FlightAccess FlightKind = iota
	// FlightEpochEnd marks the window's epoch completing (the store is
	// reset; accesses across the boundary no longer race).
	FlightEpochEnd
	// FlightFlush marks an observed MPI_Win_flush (a no-op for
	// detection, recorded because users reason about it).
	FlightFlush
	// FlightRelease marks an exclusive unlock retiring Origin's stored
	// accesses.
	FlightRelease
	// FlightSync marks a non-release synchronisation marker draining the
	// notification channel.
	FlightSync
	// FlightComplete marks a request's local completion (MPI_Wait /
	// MPI_Waitall) retiring Origin's completed origin-buffer accesses.
	FlightComplete
)

// String returns the entry kind's wire name.
func (k FlightKind) String() string {
	switch k {
	case FlightAccess:
		return "access"
	case FlightEpochEnd:
		return "epoch_end"
	case FlightFlush:
		return "flush"
	case FlightRelease:
		return "release"
	case FlightSync:
		return "sync"
	case FlightComplete:
		return "complete"
	}
	return "unknown"
}

// FlightEntry is one event in the flight log: the Seq-th thing the
// owning analyzer saw. Acc is meaningful for FlightAccess; Origin for
// FlightFlush/FlightRelease/FlightSync.
type FlightEntry struct {
	Seq    uint64
	Kind   FlightKind
	Acc    access.Access
	Origin int
}

// FlightLog is a bounded ring of the last N accesses and
// synchronisations one (rank, window) analyzer processed — the flight
// recorder snapshotted into a race verdict so "race detected" comes
// with the events that led up to it. A nil *FlightLog is the disabled
// recorder: every method is a no-op, so the default path costs one
// branch per site. The log is guarded by its own mutex because the
// engine records from the receiver and the rank's own goroutine; it is
// never on the allocation-free hot path unless explicitly enabled.
type FlightLog struct {
	mu  sync.Mutex
	seq uint64
	buf []FlightEntry
}

// NewFlightLog returns a flight log keeping the most recent n events
// (a default of 64 when n <= 0).
func NewFlightLog(n int) *FlightLog {
	if n <= 0 {
		n = 64
	}
	return &FlightLog{buf: make([]FlightEntry, 0, n)}
}

func (f *FlightLog) push(e FlightEntry) {
	f.mu.Lock()
	e.Seq = f.seq
	f.seq++
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[int(e.Seq)%cap(f.buf)] = e
	}
	f.mu.Unlock()
}

// Access records one analysed access.
func (f *FlightLog) Access(a access.Access) {
	if f == nil {
		return
	}
	f.push(FlightEntry{Kind: FlightAccess, Acc: a})
}

// Mark records a synchronisation event issued by origin.
func (f *FlightLog) Mark(kind FlightKind, origin int) {
	if f == nil {
		return
	}
	f.push(FlightEntry{Kind: kind, Origin: origin})
}

// Snapshot returns the retained events oldest-first. It is safe to call
// while the log is still being written (the race path does exactly
// that).
func (f *FlightLog) Snapshot() []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, len(f.buf))
	if len(f.buf) < cap(f.buf) {
		copy(out, f.buf)
		return out
	}
	// The ring has wrapped: entries are stored at Seq % cap, so the
	// oldest retained entry sits right after the newest.
	start := int(f.seq) % cap(f.buf)
	n := copy(out, f.buf[start:])
	copy(out[n:], f.buf[:start])
	return out
}
