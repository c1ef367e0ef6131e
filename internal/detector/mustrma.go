package detector

import (
	"sync"

	"rmarace/internal/shadow"
	"rmarace/internal/store"
	"rmarace/internal/vc"
)

// ClockStats instruments the happens-before representation: how many
// snapshots each representation served, when promotion happened, and
// the bytes the adaptive scheme allocated versus what an always-vector
// run would have — the §5.3 scaling cost made measurable.
type ClockStats struct {
	// Snapshots counts Snapshot calls (one per one-sided operation
	// side under MUST-RMA).
	Snapshots uint64
	// EpochSnaps counts snapshots served as packed scalar epochs.
	EpochSnaps uint64
	// SharedSnaps counts snapshots served as base-sharing promoted
	// clocks (one O(P) base per join generation, O(1) per snapshot).
	SharedSnaps uint64
	// VectorSnaps counts full-vector snapshots (always-vector mode).
	VectorSnaps uint64
	// Promotions counts rank states that left the scalar epoch
	// representation at a collective join.
	Promotions uint64
	// Demotions counts rank states that returned to the scalar
	// representation. Clock components never decrease, so this stays 0
	// under the current synchronisation surface; the counter exists so
	// a future reset-style operation cannot demote silently.
	Demotions uint64
	// Joins counts collective joins (epoch completions).
	Joins uint64
	// FullClocksLive is the number of full O(P) vectors currently held
	// by the shared state: base generations in adaptive mode (at most
	// one), one clock per rank in always-vector mode.
	FullClocksLive int
	// EpochsHeld is the number of rank states currently in the scalar
	// epoch representation.
	EpochsHeld int
	// BytesAdaptive is the clock payload actually allocated: snapshot
	// values plus shared base generations.
	BytesAdaptive uint64
	// BytesVector is the clock payload an always-vector run would have
	// allocated for the same call sequence (8·P per snapshot).
	BytesVector uint64
}

// MustShared is the process-group-wide state of the MUST-RMA simulator:
// one happens-before clock per rank, joined at every epoch boundary.
// The O(P) snapshots taken at each one-sided call and the O(P²) join at
// epoch end model the clock piggybacking the paper identifies as
// MUST-RMA's scaling cost (§5.3).
//
// The representation is adaptive (FastTrack-style): between collective
// joins, rank r's clock differs from the immutable joined base only in
// its own component, so its state is a scalar vc.Epoch before the
// first cross-rank join and a base-sharing vc.Shared afterwards. A
// snapshot therefore costs O(1) instead of O(P); only the one shared
// base per join generation is a full vector. NewMustSharedVector
// builds the pre-adaptive always-vector state, kept as the
// differential-fuzzing baseline the adaptive verdicts are proven
// bit-identical against.
type MustShared struct {
	mu sync.Mutex
	n  int

	// Adaptive state: base is the immutable join of the last collective
	// (nil until the first non-trivial join), own[r] rank r's own
	// component, and cross[r] whether base carries a non-zero component
	// other than r's (i.e. whether r's state still fits an Epoch).
	base  vc.Clock
	own   []vc.Epoch
	cross []bool

	// Always-vector state (vectorOnly mode).
	vectorOnly bool
	clocks     []vc.Clock

	stats ClockStats
}

// NewMustShared returns shared MUST-RMA state for n ranks using the
// adaptive epoch⇄vector representation.
func NewMustShared(n int) *MustShared {
	s := &MustShared{n: n, own: make([]vc.Epoch, n), cross: make([]bool, n)}
	for r := range s.own {
		s.own[r] = vc.E(r, 0)
	}
	return s
}

// NewMustSharedVector returns shared MUST-RMA state that always
// snapshots full O(P) vector clocks — the representation the paper
// charges MUST-RMA's scaling overhead to, retained as the baseline the
// adaptive representation is differentially verified against.
func NewMustSharedVector(n int) *MustShared {
	s := &MustShared{n: n, vectorOnly: true, clocks: make([]vc.Clock, n)}
	for i := range s.clocks {
		s.clocks[i] = vc.New(n)
	}
	return s
}

// Ranks returns the world size the state was built for.
func (s *MustShared) Ranks() int { return s.n }

// Snapshot captures rank's clock with its own component forced to
// callTime, the logical time of the MPI call site. The instrumentation
// layer calls it at the call site and piggybacks the result on the
// event (Event.Clock), so the happens-before verdict is fixed when the
// operation is issued — not when the target's receiver happens to
// process the notification.
//
// The returned value is immutable by contract: an Epoch when rank's
// history is still totally ordered, a base-sharing Shared clock after
// promotion, and a fresh full vector in always-vector mode.
func (s *MustShared) Snapshot(rank int, callTime uint64) vc.HB {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Snapshots++
	s.stats.BytesVector += uint64(8 * s.n)
	if s.vectorOnly {
		c := s.clocks[rank].Copy()
		c[rank] = callTime
		s.stats.VectorSnaps++
		s.stats.BytesAdaptive += uint64(c.Bytes())
		return c
	}
	own := vc.E(rank, callTime)
	if !s.cross[rank] {
		s.stats.EpochSnaps++
		s.stats.BytesAdaptive += uint64(own.Bytes())
		return own
	}
	snap := vc.Shared{Base: s.base, Own: own}
	s.stats.SharedSnaps++
	s.stats.BytesAdaptive += uint64(snap.Bytes())
	return snap
}

// joinAll merges every rank's clock into every other, the effect of the
// collective synchronisation completing a passive-target epoch. In the
// adaptive representation this materialises at most one new shared
// base vector; each rank's state stays the pair (base, own epoch).
func (s *MustShared) joinAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Joins++
	if s.vectorOnly {
		all := vc.New(s.n)
		for _, c := range s.clocks {
			all = all.Join(c)
		}
		for i := range s.clocks {
			copy(s.clocks[i], all)
			s.clocks[i].Tick(i)
		}
		return
	}
	// The join of all states: rank j's own component dominates base[j]
	// by construction, so the joined vector is just the own times.
	newBase := vc.New(s.n)
	nonzero := 0
	for j := range s.own {
		t := s.own[j].Time()
		if s.base != nil && s.base.At(j) > t {
			t = s.base.At(j)
		}
		newBase[j] = t
		if t != 0 {
			nonzero++
		}
	}
	for r := range s.own {
		nowCross := nonzero > 1 || (nonzero == 1 && newBase[r] == 0)
		switch {
		case nowCross && !s.cross[r]:
			s.stats.Promotions++
		case !nowCross && s.cross[r]:
			s.stats.Demotions++
		}
		s.cross[r] = nowCross
		s.own[r] = vc.E(r, newBase[r]+1)
	}
	if nonzero > 0 {
		s.base = newBase
		s.stats.BytesAdaptive += uint64(newBase.Bytes())
	}
}

// advance moves rank's own component to at least t.
func (s *MustShared) advance(rank int, t uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vectorOnly {
		if s.clocks[rank][rank] < t {
			s.clocks[rank][rank] = t
		}
		return
	}
	if s.own[rank].Time() < t {
		s.own[rank] = vc.E(rank, t)
	}
}

// Advance moves rank's own component to at least t — the program-order
// clock advancing on a local access. Exported for the benchmark and
// differential drivers; the analyzer path uses it via Access.
func (s *MustShared) Advance(rank int, t uint64) { s.advance(rank, t) }

// JoinAll performs the collective epoch-completing join. Exported for
// the benchmark and differential drivers; the analyzer path uses it
// via EpochEnd.
func (s *MustShared) JoinAll() { s.joinAll() }

// ClockStats snapshots the representation counters.
func (s *MustShared) ClockStats() ClockStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.vectorOnly {
		st.FullClocksLive = len(s.clocks)
	} else {
		if s.base != nil {
			st.FullClocksLive = 1
		}
		for _, c := range s.cross {
			if !c {
				st.EpochsHeld++
			}
		}
	}
	return st
}

// MustAnalyzer is the per-(process, window) view of the MUST-RMA
// simulator: a ThreadSanitizer-style shadow memory (held as the
// shadow-backed AccessStore of package store) checked against the
// shared happens-before clocks.
type MustAnalyzer struct {
	shared   *MustShared
	rank     int
	mem      *store.Shadow
	accesses uint64
	maxCells int
}

// NewMustRMA returns a MUST-RMA analyzer for one window of one rank,
// backed by the given shared clock state.
func NewMustRMA(shared *MustShared, rank int) *MustAnalyzer {
	return &MustAnalyzer{shared: shared, rank: rank, mem: store.NewShadowOwner(rank)}
}

// Name implements Analyzer.
func (*MustAnalyzer) Name() string { return "must-rma" }

// Store returns the analyzer's storage backend.
func (m *MustAnalyzer) Store() store.AccessStore { return m.mem }

// Access implements Analyzer. Unlike the tree-based analyzers it also
// processes alias-filtered accesses (ThreadSanitizer instruments the
// whole program), but it skips local accesses to stack arrays, which
// ThreadSanitizer does not instrument — the source of MUST-RMA's false
// negatives in Table 3.
func (m *MustAnalyzer) Access(ev Event) *Race {
	a := ev.Acc
	if a.Stack && !a.Type.IsRMA() {
		return nil // TSan blind spot: stack arrays
	}
	m.accesses++

	entry := shadow.Entry{Rank: a.Rank, Time: ev.Time}
	if a.Type.IsRMA() {
		entry.IsRMA = true
		if ev.Clock != nil {
			entry.Snapshot = ev.Clock
		} else {
			entry.Snapshot = m.shared.Snapshot(a.Rank, ev.CallTime)
		}
	} else {
		m.shared.advance(a.Rank, ev.Time)
	}

	conflict := m.mem.Record(a, entry)
	if n := m.mem.Len(); n > m.maxCells {
		m.maxCells = n
	}
	if conflict == nil {
		return nil
	}
	prev := a // reconstruct the stored access for the report
	prev.Type = conflict.Prev.Type
	prev.Debug = conflict.Prev.Debug
	prev.Rank = conflict.Prev.Rank
	return &Race{Prev: prev, Cur: a}
}

// EpochEnd implements Analyzer: the epoch's collective completion joins
// all clocks and retires the epoch's shadow state.
func (m *MustAnalyzer) EpochEnd() {
	m.shared.joinAll()
	m.mem.Clear()
}

// Flush implements Analyzer as a no-op; like the other tools, MUST-RMA
// does not instrument MPI_Win_flush soundly (§6).
func (m *MustAnalyzer) Flush(int) {}

// Release implements Analyzer: the unlocking rank's shadow entries are
// retired, modelling the happens-before edge an exclusive unlock
// creates towards subsequent lock holders.
func (m *MustAnalyzer) Release(rank int) { m.mem.RemoveRank(rank) }

// Nodes implements Analyzer: the number of live shadow cells.
func (m *MustAnalyzer) Nodes() int { return m.mem.Len() }

// MaxNodes implements Analyzer.
func (m *MustAnalyzer) MaxNodes() int { return m.maxCells }

// Accesses implements Analyzer.
func (m *MustAnalyzer) Accesses() uint64 { return m.accesses }
