// Package core implements the paper's contribution: the new insertion
// algorithm for RMA-Analyzer's memory-access BST (Algorithm 1), built
// from the fragmentation algorithm of §4.1 and the merging algorithm of
// §4.2 over a pluggable access store (package store; by default the
// B+tree of package itree, which relies on the disjointness below).
//
// Given a new access, the analyzer
//
//  1. checks it against every stored intersecting access with the
//     order-sensitive race predicate (data_race_detection),
//  2. retrieves the intersecting accesses (get_intersecting_accesses),
//  3. fragments them into disjoint pieces typed by Table 1
//     (fragment_accesses),
//  4. merges adjacent pieces with equal type and debug information
//     (merge_accesses), and
//  5. replaces the old accesses by the merged ones (finish_insertion).
//
// Because the stored intervals are kept pairwise disjoint, the stabbing
// query finds every intersection — eliminating the legacy false
// negatives — and merging keeps the tree small — eliminating the legacy
// node blow-up. An access that continues the stored access the previous
// insertion ended in (the adjacent Put/Get runs of CFD-Proxy and
// Code 2) is answered by one narrow emptiness probe instead of the
// neighbour search, whether it arrives alone or in a notification
// batch. All operations are logarithmic in the tree size on the
// default backend; WithStore swaps the backend (for the ablation runs)
// without touching the algorithm.
package core

import (
	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
	"rmarace/internal/store"
)

// Analyzer is the contribution's per-(process, window) analysis state.
// It implements detector.Analyzer (and detector.BatchAnalyzer, which
// the batched notification pipeline calls). The zero value is ready to
// use with the default avl store.
type Analyzer struct {
	st          store.AccessStore
	accesses    uint64
	maxNodes    int
	flushClears bool
	noMerge     bool
	// owner is the analyzer's owning rank plus one, so the zero value
	// means "unknown" (WithOwner unset) and zero-value Analyzers stay
	// usable. Release reads it through ownerRank: with an unknown owner
	// every rank counts as remote and Release conservatively retires
	// every one-sided access.
	owner int
	// frontier is the stored access the last insertion ended in, when
	// that insertion found nothing to fragment: the next insertion
	// probes right of it before searching. Invalidated by anything that
	// can move or remove it.
	frontier   access.Access
	frontierOK bool
	// scratch, fragScratch and delScratch are the reusable buffers of
	// the insertion hot path (intersections, fragments, deletions); the
	// analyzer is single-owner so reuse is safe and the steady state
	// allocates nothing.
	scratch     []access.Access
	fragScratch []access.Access
	delScratch  []access.Access
	// stFactory builds the store when set (WithStoreFactory); required
	// instead of WithStore under sharding so each shard owns its own.
	stFactory func() store.AccessStore
	// shardCount/shardGranule configure the sharded wrapper; consumed
	// by Build and NewSharded, ignored by a plain Analyzer.
	shardCount   int
	shardGranule int
	// rec is the metrics sink (WithRecorder); recOn caches Enabled() so
	// a disabled recorder costs one branch per site, and recLabel is the
	// owning rank the analyzer's metrics are labelled with.
	rec      obs.Recorder
	recOn    bool
	recLabel int
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithUnsafeFlushClear makes MPI_Win_flush drop the calling rank's
// stored accesses. The paper shows this is unsound (§6(2)): the target
// cannot know in which order remote accesses from other processes
// complete, so clearing on flush hides races. It exists as an ablation.
func WithUnsafeFlushClear() Option {
	return func(a *Analyzer) { a.flushClears = true }
}

// WithoutMerging disables the §4.2 merging pass, leaving fragmentation
// only. This is the ablation of the paper's node-explosion warning:
// "each new access possibly increases the nodes in the BST by two",
// so the tree grows instead of shrinking.
func WithoutMerging() Option {
	return func(a *Analyzer) { a.noMerge = true }
}

// WithOwner declares the analyzer's owning rank — the rank whose
// window (and local address space) the analyzer guards. Release uses
// it to tell the owner's accesses (origin-side buffers and
// unsynchronised local loads/stores, which no unlock orders) apart
// from remote one-sided accesses, which an exclusive unlock retires.
// Without the option Release conservatively treats every rank as
// remote and retires all one-sided accesses.
func WithOwner(rank int) Option {
	return func(a *Analyzer) { a.owner = rank + 1 }
}

// WithStore runs Algorithm 1 over the given storage backend instead of
// the default avl B+tree. Backends without the complete-stab
// guarantee (the legacy lower-bound BST) reintroduce the corresponding
// published defects; that is the point of the ablation.
func WithStore(s store.AccessStore) Option {
	return func(a *Analyzer) { a.st = s }
}

// WithStoreFactory makes the analyzer build its backend with fn
// instead of the default avl B+tree. Unlike WithStore it hands every
// analyzer (and, under sharding, every shard) its own instance, which
// is what the single-owner serialisation discipline requires.
func WithStoreFactory(fn func() store.AccessStore) Option {
	return func(a *Analyzer) { a.stFactory = fn }
}

// WithShards partitions the address space into k contiguous interval
// shards (power of two; ≤ 1 disables sharding), each an independent
// analyzer + store. Honoured by Build and NewSharded; a plain New
// ignores it.
func WithShards(k int) Option {
	return func(a *Analyzer) { a.shardCount = k }
}

// WithShardGranule sets the shard granule in bytes (power of two;
// 0 selects shard.DefaultGranule). Only meaningful with WithShards.
func WithShardGranule(bytes int) Option {
	return func(a *Analyzer) { a.shardGranule = bytes }
}

// WithRecorder makes the analyzer record its metrics — node high-water
// marks, fragment/merge counts, store traffic and stab-query depths —
// against rec, labelled with the owning rank. The store backend is
// wrapped with store.Instrument; a nil or disabled recorder leaves the
// analyzer (and its hot path) exactly as without the option.
func WithRecorder(rec obs.Recorder, rank int) Option {
	return func(a *Analyzer) {
		a.rec = obs.OrDisabled(rec)
		a.recOn = a.rec.Enabled()
		a.recLabel = rank
	}
}

// New returns a fresh analyzer for one window.
func New(opts ...Option) *Analyzer {
	a := &Analyzer{}
	for _, o := range opts {
		o(a)
	}
	if a.st != nil && a.recOn {
		a.st = store.Instrument(a.st, a.rec, a.recLabel)
	}
	a.lazyStore()
	return a
}

// lazyStore returns the backend, building it on first use (New, and
// zero-value Analyzers).
func (z *Analyzer) lazyStore() store.AccessStore {
	if z.st == nil {
		if z.stFactory != nil {
			z.st = z.stFactory()
		} else {
			z.st = store.NewAVL()
		}
		if z.recOn {
			z.st = store.Instrument(z.st, z.rec, z.recLabel)
		}
	}
	return z.st
}

// Name implements detector.Analyzer.
func (*Analyzer) Name() string { return "our-contribution" }

// Store returns the analyzer's storage backend.
func (z *Analyzer) Store() store.AccessStore { return z.lazyStore() }

// Access implements detector.Analyzer with Algorithm 1.
func (z *Analyzer) Access(ev detector.Event) *detector.Race {
	if ev.Filtered {
		return nil // removed by the compile-time alias analysis
	}
	z.accesses++
	return z.insert(ev.Acc)
}

// AccessBatch implements detector.BatchAnalyzer for the batched
// notification pipeline: one Access per event, stopping at the first
// race.
func (z *Analyzer) AccessBatch(evs []detector.Event) *detector.Race {
	for i := range evs {
		if race := z.Access(evs[i]); race != nil {
			return race
		}
	}
	return nil
}

// insert runs steps (1)-(5) of Algorithm 1 for one access.
func (z *Analyzer) insert(a access.Access) *detector.Race {
	st := z.lazyStore()
	// Frontier: when a continues the stored access the last insertion
	// ended in (starts right after it and may merge with it),
	// disjointness makes that access the only one touching a.Lo-1, and
	// one emptiness probe over [a.Lo, a.Hi+1] finding nothing shows a has
	// no intersection and no right neighbour. a then extends the frontier
	// in place: the left merge of the no-overlap path below, without its
	// neighbour search. That is the hot path of adjacent Put/Get runs
	// (CFD-Proxy, Code 2), so it returns here instead of rejoining that
	// path with the frontier as the left neighbour, which cost replay-bin
	// about 2% of its throughput.
	if z.frontierOK && !z.noMerge && a.Lo != 0 && z.frontier.Hi == a.Lo-1 && access.Mergeable(z.frontier, a) {
		probe := a.Interval
		if probe.Hi+1 != 0 {
			probe.Hi++
		}
		if st.Stab(probe, func(access.Access) bool { return false }) {
			store.ExtendHi(st, z.frontier, a.Hi)
			z.frontier.Hi = a.Hi
			if z.recOn {
				z.rec.Add(obs.Merges, z.recLabel, 1)
			}
			z.bumpMaxNodes()
			return nil
		}
	}

	// One stabbing query, widened by one address on each side, yields
	// both the intersecting accesses (for the race check and
	// fragmentation) and the at most two boundary neighbours merging
	// may coalesce with (e.g. the adjacent one-byte Gets of Code 2).
	// Disjointness guarantees a neighbour touching a.Lo-1 ends exactly
	// there.
	z.scratch = z.scratch[:0]
	left, right, hasLeft, hasRight := store.StabNeighbors(st, a.Interval, &z.scratch)
	inter := z.scratch

	// (1) data_race_detection: the disjointness invariant guarantees
	// every stored access overlapping a was visited.
	for _, s := range inter {
		if access.Races(s, a) {
			return &detector.Race{Prev: s, Cur: a}
		}
	}

	// Fast path: nothing overlaps — insert the access, extending it in
	// place over boundary neighbours it merges with. This is the hot
	// loop of adjacent exchanges (CFD-Proxy, Code 2) and allocates
	// nothing beyond the tree node.
	if len(inter) == 0 {
		mergeL := !z.noMerge && hasLeft && access.Mergeable(left, a)
		mergeR := !z.noMerge && hasRight && access.Mergeable(a, right)
		switch {
		case mergeL && mergeR:
			st.Delete(right.Interval)
			store.ExtendHi(st, left, right.Hi)
			z.frontier = left
			z.frontier.Hi = right.Hi
		case mergeL:
			store.ExtendHi(st, left, a.Hi)
			z.frontier = left
			z.frontier.Hi = a.Hi
		case mergeR:
			store.ExtendLo(st, right, a.Lo)
			z.frontier = right
			z.frontier.Lo = a.Lo
		default:
			st.Insert(a)
			z.frontier = a
		}
		if z.recOn && (mergeL || mergeR) {
			merges := int64(1)
			if mergeL && mergeR {
				merges = 2
			}
			z.rec.Add(obs.Merges, z.recLabel, merges)
		}
		z.frontierOK = true
		z.bumpMaxNodes()
		return nil
	}

	// (2)-(4) fragment and merge, pulling in the boundary neighbours
	// only when they can actually coalesce with the edge fragments. All
	// buffers are analyzer-owned scratch: slot 0 of the fragment buffer
	// is reserved so a left neighbour can be prepended without shifting.
	z.frontierOK = false
	frags := append(z.fragScratch[:0], access.Access{})
	frags = access.AppendFragments(frags, inter, a)
	deletions := append(z.delScratch[:0], inter...)
	body := frags[1:]
	if z.recOn {
		z.rec.Add(obs.Fragments, z.recLabel, int64(len(body)))
	}
	merged := body
	if !z.noMerge {
		start := 1
		if hasLeft && access.Mergeable(left, body[0]) {
			frags[0] = left
			deletions = append(deletions, left)
			start = 0
		}
		if hasRight && access.Mergeable(body[len(body)-1], right) {
			frags = append(frags, right)
			deletions = append(deletions, right)
		}
		before := len(frags) - start
		merged = access.MergeInPlace(frags[start:])
		if z.recOn {
			z.rec.Add(obs.Merges, z.recLabel, int64(before-len(merged)))
		}
	}
	z.fragScratch = frags[:0]
	z.delScratch = deletions[:0]

	// (5) finish_insertion: replace the old accesses by the new ones.
	for _, d := range deletions {
		st.Delete(d.Interval)
	}
	for _, m := range merged {
		st.Insert(m)
	}
	z.bumpMaxNodes()
	return nil
}

// EpochEnd implements detector.Analyzer: accesses of a completed epoch
// cannot race with later ones, so the store is emptied.
func (z *Analyzer) EpochEnd() {
	z.lazyStore().Clear()
	z.frontierOK = false
}

// Flush implements detector.Analyzer. By default it is a no-op,
// following §6(2); with WithUnsafeFlushClear it drops the calling
// rank's accesses, reproducing the false-negative hazard. The
// ablation deliberately keeps the defect's per-rank semantics (an
// MPI_Win_flush names only the calling origin) rather than routing
// through Release.
func (z *Analyzer) Flush(rank int) {
	if !z.flushClears {
		return
	}
	store.RemoveRank(z.lazyStore(), rank)
	z.frontierOK = false
}

// ownerRank returns the analyzer's owning rank, or -1 when unknown.
func (z *Analyzer) ownerRank() int { return z.owner - 1 }

// Release implements detector.Analyzer: an exclusive unlock of the
// owner's window retires every remote one-sided access. The per-target
// lock grants in FIFO order, so every lock session that completed
// before the unlock — the releasing origin's own and every earlier
// holder's, shared included — is ordered before every later holder's
// session. Only the owner's accesses (its origin-side buffers and
// unsynchronised local loads/stores) are never lock-ordered and
// survive; which rank performed the unlock is irrelevant to what
// retires, so the argument is unused beyond the interface. Retiring
// by remoteness instead of by releasing rank is what keeps Release
// exact after Table 1 fragment combination: remote accesses only ever
// share a combined fragment with other remote accesses, and those
// retire together (a per-rank retirement could delete a fragment
// whose combined label hides a still-live rank's coverage — a false
// negative the differential fuzzer found).
func (z *Analyzer) Release(int) {
	store.RemoveRemote(z.lazyStore(), z.ownerRank())
	z.frontierOK = false
}

// CompleteRequest implements detector.RequestCompleter: the local
// completion (MPI_Wait/MPI_Waitall) of a request-based one-sided
// operation issued by rank with origin buffer iv. Completion orders
// the request's origin-side accesses before everything after the wait
// on the issuing rank, so rank's stored one-sided fragments are
// trimmed to the part outside iv (store.RemoveRankSpan). Exactness
// after Table 1 combination holds for the same reason Release is
// exact, specialised to the origin-buffer region: the only accesses a
// completed origin fragment can have combined with are the issuing
// rank's own (origin buffers are private memory), and a same-rank
// local witness absorbed under an RMA fragment can never race with a
// later same-rank access anyway (local-before-RMA is exempt by §5.2
// and local-local pairs never race).
func (z *Analyzer) CompleteRequest(rank int, iv interval.Interval) {
	store.RemoveRankSpan(z.lazyStore(), rank, iv)
	z.frontierOK = false
}

// Nodes implements detector.Analyzer (the Table 4 metric).
func (z *Analyzer) Nodes() int { return z.lazyStore().Len() }

func (z *Analyzer) bumpMaxNodes() {
	n := z.Nodes()
	if n > z.maxNodes {
		z.maxNodes = n
	}
	if z.recOn {
		z.rec.SetMax(obs.StoreNodes, z.recLabel, int64(n))
	}
}

// MaxNodes implements detector.Analyzer.
func (z *Analyzer) MaxNodes() int { return z.maxNodes }

// Compact implements detector.Compacter: it releases the analyzer's
// retained capacity — the insertion hot path's scratch buffers and the
// store's own (store.Compact; the B+tree's free leaves and spare inner
// nodes beyond constant reserves) — without touching live analysis
// state, so verdicts are unaffected.
// The bounded-memory trace replay calls it at epoch boundaries; the
// next epoch re-grows the buffers on demand.
func (z *Analyzer) Compact() {
	z.scratch = nil
	z.fragScratch = nil
	z.delScratch = nil
	store.Compact(z.lazyStore())
}

// Accesses implements detector.Analyzer.
func (z *Analyzer) Accesses() uint64 { return z.accesses }

// Items returns the stored accesses in ascending interval order (on the
// default backend), for inspection and testing (the BSTs drawn in
// Fig. 5).
func (z *Analyzer) Items() []access.Access { return store.Items(z.lazyStore()) }

var (
	_ detector.Analyzer         = (*Analyzer)(nil)
	_ detector.BatchAnalyzer    = (*Analyzer)(nil)
	_ detector.Compacter        = (*Analyzer)(nil)
	_ detector.RequestCompleter = (*Analyzer)(nil)
)
