package detector

import (
	"rmarace/internal/access"
	"rmarace/internal/store"
)

// LegacyAnalyzer reproduces the original RMA-Analyzer (Aitkaci et al.,
// EuroMPI'21) as characterised in §3-§5 of the paper:
//
//   - every access becomes one BST node; nothing is fragmented or
//     merged, so the tree is as large as the number of accesses;
//   - the race check walks only the lower-bound descent path, missing
//     intersections stored off-path (the Code 1 false negative);
//   - the race predicate ignores program order within a process, so
//     Load;MPI_Get is flagged like MPI_Get;Load (the published false
//     positives, e.g. ll_load_get_inwindow_origin_safe).
//
// The first two defects live in the storage backend (the legacy
// lower-bound BST adapter of package store); the third in the
// order-insensitive predicate below.
type LegacyAnalyzer struct {
	st       store.AccessStore
	accesses uint64
	maxNodes int
}

// NewLegacy returns a fresh legacy RMA-Analyzer state for one window,
// over the legacy lower-bound BST.
func NewLegacy() *LegacyAnalyzer { return &LegacyAnalyzer{st: store.NewLegacyBST()} }

// Name implements Analyzer.
func (*LegacyAnalyzer) Name() string { return "rma-analyzer" }

// Store returns the analyzer's storage backend.
func (l *LegacyAnalyzer) Store() store.AccessStore { return l.st }

// Access implements Analyzer with the legacy two-traversal scheme: one
// descent to check for races, one descent to insert.
func (l *LegacyAnalyzer) Access(ev Event) *Race {
	if ev.Filtered {
		return nil // alias analysis removed this access at compile time
	}
	l.accesses++
	a := ev.Acc
	var race *Race
	l.st.Stab(a.Interval, func(s access.Access) bool {
		// Order-insensitive check: any overlapping pair with at least
		// one RMA access and one write is reported, even the safe
		// local-before-RMA program orders fixed in §5.2.
		if access.Conflicts(s.Type, a.Type) {
			race = &Race{Prev: s, Cur: a}
			return false
		}
		return true
	})
	if race != nil {
		return race
	}
	l.st.Insert(a)
	if n := l.st.Len(); n > l.maxNodes {
		l.maxNodes = n
	}
	return nil
}

// EpochEnd implements Analyzer.
func (l *LegacyAnalyzer) EpochEnd() { l.st.Clear() }

// Flush implements Analyzer as a no-op: the paper reports that
// instrumenting MPI_Win_flush in RMA-Analyzer is unsound (§6) and the
// tool does not support it.
func (l *LegacyAnalyzer) Flush(int) {}

// Release implements Analyzer as a no-op: the original RMA-Analyzer
// instruments only the MPI_Win_lock_all/MPI_Win_unlock_all epoch
// functions (§5.1), so per-target unlock ordering is invisible to it —
// lock-serialised programs can produce legacy false positives.
func (l *LegacyAnalyzer) Release(int) {}

// Nodes implements Analyzer.
func (l *LegacyAnalyzer) Nodes() int { return l.st.Len() }

// MaxNodes implements Analyzer.
func (l *LegacyAnalyzer) MaxNodes() int { return l.maxNodes }

// Accesses implements Analyzer.
func (l *LegacyAnalyzer) Accesses() uint64 { return l.accesses }
