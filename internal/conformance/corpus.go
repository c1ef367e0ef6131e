// Package conformance holds a labeled MPI-RMA scenario corpus in the
// mold of RMARaceBench: small deterministic programs, each with a
// machine-readable ground-truth label (does it race, which call-site
// pair races, what kind of race it is), organised along the
// synchronisation axes the random fuzzer under-samples — fence-only
// codes, per-target lock chains over multiple windows, hybrid
// rank-internal threads, request-based Rput/Rget completion, derived
// (strided) datatypes, atomics-vs-put mixes and PSCW exposure epochs.
//
// The corpus reuses the fuzz grammar (internal/fuzz) as its program
// notation and fuzz.Render as its instrumentation model, so every case
// is replayable through any detector configuration exactly like a
// recorded trace. The runner (run.go) scores configurations with
// per-category precision/recall/F1 and verifies that racy verdicts
// name the labeled pair; CONFORMANCE.json at the repo root pins the
// scores and CI fails on any per-category F1 regression.
package conformance

import (
	"sort"

	"rmarace/internal/access"
	"rmarace/internal/fuzz"
)

// Race kinds, following RMARaceBench's taxonomy: a remote race is
// RMA-vs-RMA on target memory, a local race involves a CPU load/store
// or an origin-buffer access, an atomic race involves an accumulate.
const (
	KindRemote = "remote"
	KindLocal  = "local"
	KindAtomic = "atomic"
)

// Corpus categories: one per synchronisation/shape axis.
const (
	CatFence    = "fence"     // active-target fence epochs
	CatLock     = "lockchain" // per-target lock/unlock chains, multi-window
	CatHybrid   = "hybrid"    // rank-internal worker threads, signal/wait
	CatRequest  = "request"   // Rput/Rget with Waitall local completion
	CatDatatype = "datatype"  // derived (strided) datatypes
	CatAtomic   = "atomicmix" // accumulate vs accumulate/put/get/local
	CatPSCW     = "pscw"      // general active-target synchronisation
)

// Categories lists every corpus category in display order.
func Categories() []string {
	return []string{CatFence, CatLock, CatHybrid, CatRequest, CatDatatype, CatAtomic, CatPSCW}
}

// Case is one labeled conformance scenario.
type Case struct {
	Name     string
	Category string
	// Kind classifies the labeled race (KindRemote/KindLocal/KindAtomic);
	// for safe cases it names the kind of race the scenario narrowly
	// avoids, documenting what the safe variant is a control for.
	Kind string
	// Racy is the ground-truth verdict.
	Racy bool
	// Pairs enumerates every racing call-site pair as unordered synthetic
	// line pairs (fuzz.Normalize assigns line 100+i to op i). A sound
	// detector reporting this case racy must name one of these pairs;
	// the oracle must find exactly this set. Empty for safe cases.
	Pairs [][2]int
	// Program is the scenario, in the fuzz grammar (pre-Normalize).
	Program fuzz.Program
	// Notes says why the label holds, for humans reading mismatches.
	Notes string
}

// Sync names the case's synchronisation discipline.
func (c Case) Sync() string { return c.Program.Sync.String() }

// AccessSet lists the distinct operation kinds the case exercises,
// under their MPI names, sorted.
func (c Case) AccessSet() []string {
	seen := map[string]bool{}
	for _, op := range c.Program.Ops {
		seen[opName(op.Kind)] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func opName(k fuzz.OpKind) string {
	switch k {
	case fuzz.OpPut:
		return "MPI_Put"
	case fuzz.OpGet:
		return "MPI_Get"
	case fuzz.OpAccum:
		return "MPI_Accumulate"
	case fuzz.OpRput:
		return "MPI_Rput"
	case fuzz.OpRget:
		return "MPI_Rget"
	case fuzz.OpWaitAll:
		return "MPI_Waitall"
	case fuzz.OpSignal:
		return "thread_signal"
	case fuzz.OpWaitSig:
		return "thread_wait"
	case fuzz.OpLoad:
		return "load"
	default:
		return "store"
	}
}

// HasPair reports whether the unordered line pair {a, b} is one of the
// labeled racing pairs.
func (c Case) HasPair(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	for _, p := range c.Pairs {
		if p[0] == a && p[1] == b {
			return true
		}
	}
	return false
}

// --- program notation helpers -----------------------------------------

func prog(ranks, epochs int, sync fuzz.SyncKind, windows int, ops ...fuzz.Op) fuzz.Program {
	return fuzz.Program{Ranks: ranks, Epochs: epochs, Sync: sync, Windows: windows, Ops: ops}
}

func rma(k fuzz.OpKind, origin, target, woff, lslot, n int) fuzz.Op {
	return fuzz.Op{Kind: k, Origin: origin, Target: target, WOff: woff, LSlot: lslot, Len: n}
}

func put(o, t, woff, lslot, n int) fuzz.Op  { return rma(fuzz.OpPut, o, t, woff, lslot, n) }
func get(o, t, woff, lslot, n int) fuzz.Op  { return rma(fuzz.OpGet, o, t, woff, lslot, n) }
func rput(o, t, woff, lslot, n int) fuzz.Op { return rma(fuzz.OpRput, o, t, woff, lslot, n) }
func rget(o, t, woff, lslot, n int) fuzz.Op { return rma(fuzz.OpRget, o, t, woff, lslot, n) }

func acc(o, t, woff, lslot, n int, aop access.AccumOp) fuzz.Op {
	op := rma(fuzz.OpAccum, o, t, woff, lslot, n)
	op.AOp = aop
	return op
}

// loadP/storeP access the rank's private buffer; loadW/storeW its own
// window memory.
func loadP(o, slot, n int) fuzz.Op {
	return fuzz.Op{Kind: fuzz.OpLoad, Origin: o, LSlot: slot, Len: n}
}
func storeP(o, slot, n int) fuzz.Op {
	return fuzz.Op{Kind: fuzz.OpStore, Origin: o, LSlot: slot, Len: n}
}
func loadW(o, woff, n int) fuzz.Op {
	return fuzz.Op{Kind: fuzz.OpLoad, Origin: o, OnWin: true, WOff: woff, Len: n}
}
func storeW(o, woff, n int) fuzz.Op {
	return fuzz.Op{Kind: fuzz.OpStore, Origin: o, OnWin: true, WOff: woff, Len: n}
}

func waitall(o int) fuzz.Op { return fuzz.Op{Kind: fuzz.OpWaitAll, Origin: o} }
func signal(o int) fuzz.Op  { return fuzz.Op{Kind: fuzz.OpSignal, Origin: o} }
func waitsig(o int) fuzz.Op { return fuzz.Op{Kind: fuzz.OpWaitSig, Origin: o, Thread: 1} }

func onWin(op fuzz.Op, w int) fuzz.Op { op.Win = w; return op }
func th1(op fuzz.Op) fuzz.Op          { op.Thread = 1; return op }
func sh(op fuzz.Op) fuzz.Op           { op.Shared = true; return op }
func blocks(op fuzz.Op, count, stride int) fuzz.Op {
	op.Count, op.Stride = count, stride
	return op
}

func pair(a, b int) [][2]int { return [][2]int{{a, b}} }

// Corpus returns every labeled case, normalized. Labels are pinned by
// the oracle cross-check test (every case, several schedules) and by
// the sound-configuration gate (P = R = 1.0 with matching pairs).
func Corpus() []Case {
	cases := fenceCases()
	cases = append(cases, lockChainCases()...)
	cases = append(cases, hybridCases()...)
	cases = append(cases, requestCases()...)
	cases = append(cases, datatypeCases()...)
	cases = append(cases, atomicCases()...)
	cases = append(cases, pscwCases()...)
	for i := range cases {
		cases[i].Program = fuzz.Normalize(cases[i].Program)
	}
	return cases
}

func fenceCases() []Case {
	return []Case{
		{
			Name: "fence-concurrent-puts-race", Category: CatFence, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncFence, 1,
				put(0, 2, 0, 0, 2), put(1, 2, 1, 2, 2)),
			Notes: "two origins write overlapping target slots in one fence epoch",
		},
		{
			Name: "fence-epoch-separated-safe", Category: CatFence, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 2, fuzz.SyncFence, 1,
				put(0, 2, 0, 0, 2), put(1, 2, 1, 2, 2)),
			Notes: "the same conflicting writes, separated by a fence",
		},
		{
			Name: "fence-local-store-vs-put-race", Category: CatFence, Kind: KindLocal,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 1, fuzz.SyncFence, 1,
				storeW(1, 0, 2), put(0, 1, 1, 0, 2)),
			Notes: "target rank stores to its exposed window while a remote put lands",
		},
		{
			Name: "fence-local-store-epoch-safe", Category: CatFence, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 2, fuzz.SyncFence, 1,
				storeW(1, 0, 2), put(0, 1, 1, 0, 2)),
			Notes: "the local store and the put live in different fence epochs",
		},
		{
			Name: "fence-get-get-safe", Category: CatFence, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncFence, 1,
				get(0, 2, 0, 0, 2), get(1, 2, 0, 2, 2)),
			Notes: "concurrent overlapping reads never race",
		},
		{
			Name: "fence-get-vs-put-race", Category: CatFence, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncFence, 1,
				get(0, 2, 0, 0, 2), put(1, 2, 1, 0, 2)),
			Notes: "a remote read overlaps a concurrent remote write",
		},
		{
			Name: "fence-origin-reuse-race", Category: CatFence, Kind: KindLocal,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 1, fuzz.SyncFence, 1,
				put(0, 1, 0, 0, 2), storeP(0, 0, 2)),
			Notes: "the origin buffer of an uncompleted put is overwritten locally",
		},
		{
			Name: "fence-load-before-get-safe", Category: CatFence, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncFence, 1,
				loadP(0, 0, 1), get(0, 1, 0, 0, 1)),
			Notes: "§5.2: a local read ordered before the same rank's MPI_Get is exempt",
		},
		{
			Name: "fence-three-epochs-safe", Category: CatFence, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 3, fuzz.SyncFence, 1,
				put(0, 1, 0, 0, 2), put(0, 1, 0, 2, 2), storeW(1, 0, 2)),
			Notes: "three overlapping accesses to one region, one fence epoch each",
		},
		{
			Name: "fence-adjacent-puts-safe", Category: CatFence, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncFence, 1,
				put(0, 2, 0, 0, 2), put(0, 2, 2, 2, 2), put(1, 2, 4, 0, 2)),
			Notes: "boundary-adjacent writes must not blur into an overlap",
		},
		{
			// The published tool's lower-bound descent walks past the wide
			// stored read (Fig. 5); the legacy canary configuration must
			// keep failing this case so the gate can prove it still bites.
			Name: "fence-lowerbound-miss-race", Category: CatFence, Kind: KindRemote,
			Racy: true, Pairs: pair(101, 102),
			Program: prog(3, 1, fuzz.SyncFence, 1,
				get(1, 2, 2, 0, 1), get(0, 2, 1, 0, 3), put(1, 2, 3, 2, 1)),
			Notes: "racing interval off the BST lower-bound path (paper Fig. 5)",
		},
	}
}

func lockChainCases() []Case {
	return []Case{
		{
			Name: "lockchain-exclusive-serialised-safe", Category: CatLock, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLock, 1,
				put(0, 1, 0, 0, 2), put(2, 1, 1, 0, 2)),
			Notes: "exclusive unlocks retire each holder's accesses in turn",
		},
		{
			Name: "lockchain-shared-overlap-race", Category: CatLock, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLock, 1,
				sh(put(0, 1, 0, 0, 2)), sh(put(2, 1, 1, 0, 2))),
			Notes: "shared locks admit both holders concurrently",
		},
		{
			Name: "lockchain-shared-get-put-race", Category: CatLock, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLock, 1,
				sh(get(0, 1, 0, 0, 2)), sh(put(2, 1, 1, 0, 2))),
			Notes: "shared-lock read overlaps a shared-lock write",
		},
		{
			Name: "lockchain-windows-isolate-safe", Category: CatLock, Kind: KindRemote,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncLock, 2,
				onWin(sh(put(0, 1, 0, 0, 2)), 0), onWin(sh(put(0, 1, 0, 2, 2)), 1)),
			Notes: "same offsets, different windows: detector state is per-window",
		},
		{
			Name: "lockchain-exclusive-two-windows-safe", Category: CatLock, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLock, 2,
				onWin(put(0, 1, 0, 0, 2), 0), onWin(put(2, 1, 0, 0, 2), 1)),
			Notes: "exclusive chains on two windows never meet",
		},
		{
			Name: "lockchain-two-windows-one-racy", Category: CatLock, Kind: KindRemote,
			Racy: true, Pairs: pair(102, 103),
			Program: prog(3, 1, fuzz.SyncLock, 2,
				onWin(sh(put(0, 2, 0, 0, 2)), 0), onWin(sh(put(1, 2, 4, 0, 2)), 0),
				onWin(sh(get(0, 2, 0, 2, 2)), 1), onWin(sh(put(1, 2, 1, 2, 2)), 1)),
			Notes: "window 0 traffic is disjoint; the race is confined to window 1",
		},
		{
			Name: "lockchain-shared-read-read-safe", Category: CatLock, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLock, 2,
				onWin(sh(get(0, 1, 0, 0, 2)), 1), onWin(sh(get(2, 1, 1, 2, 2)), 1)),
			Notes: "overlapping shared-lock reads on the second window",
		},
		{
			Name: "lockchain-shared-accum-put-race", Category: CatLock, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLock, 2,
				onWin(sh(acc(0, 1, 0, 0, 2, access.AccumSum)), 1), onWin(sh(put(2, 1, 1, 2, 2)), 1)),
			Notes: "an accumulate is not atomic against a plain put",
		},
	}
}

func hybridCases() []Case {
	return []Case{
		{
			Name: "hybrid-stale-thread-local-race", Category: CatHybrid, Kind: KindLocal,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 2, fuzz.SyncFence, 1,
				storeW(1, 0, 2), th1(put(0, 1, 1, 0, 2))),
			Notes: "the worker thread was never resynchronised: its put still runs in epoch 0",
		},
		{
			Name: "hybrid-waitsig-resync-safe", Category: CatHybrid, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 2, fuzz.SyncFence, 1,
				storeW(1, 0, 2), waitsig(0), th1(put(0, 1, 1, 0, 2))),
			Notes: "the signal/wait handshake moves the worker's put into epoch 1",
		},
		{
			Name: "hybrid-threads-cross-rank-race", Category: CatHybrid, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				th1(put(0, 2, 0, 0, 2)), put(1, 2, 1, 0, 2)),
			Notes: "a worker-thread put conflicts with another rank's main-thread put",
		},
		{
			Name: "hybrid-threads-disjoint-safe", Category: CatHybrid, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				th1(put(0, 2, 0, 0, 2)), put(1, 2, 4, 0, 2)),
			Notes: "the same thread shape over disjoint target slots",
		},
		{
			Name: "hybrid-stale-thread-remote-race", Category: CatHybrid, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 2, fuzz.SyncFence, 1,
				put(0, 2, 0, 0, 2), th1(put(1, 2, 1, 0, 2))),
			Notes: "the second epoch's worker put is hoisted back into epoch 0",
		},
		{
			Name: "hybrid-resync-remote-safe", Category: CatHybrid, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 2, fuzz.SyncFence, 1,
				put(0, 2, 0, 0, 2), waitsig(1), th1(put(1, 2, 1, 0, 2))),
			Notes: "after the wait, the worker put really executes in epoch 1",
		},
		{
			Name: "hybrid-thread-get-get-safe", Category: CatHybrid, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				th1(get(0, 2, 0, 0, 2)), get(1, 2, 1, 2, 2)),
			Notes: "cross-thread overlapping reads",
		},
		{
			Name: "hybrid-thread-accum-mixed-race", Category: CatHybrid, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				th1(acc(0, 2, 0, 0, 2, access.AccumSum)), acc(1, 2, 1, 2, 2, access.AccumMax)),
			Notes: "mixed reduction operations are not atomic against each other",
		},
		{
			Name: "hybrid-signal-only-safe", Category: CatHybrid, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				signal(0), th1(put(0, 1, 0, 0, 2)), storeP(1, 0, 2)),
			Notes: "the worker put and the target's private store touch disjoint memory",
		},
	}
}

func requestCases() []Case {
	return []Case{
		{
			Name: "request-wait-reuse-safe", Category: CatRequest, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rput(0, 1, 0, 0, 2), waitall(0), storeP(0, 0, 2)),
			Notes: "MPI_Waitall locally completes the rput before the buffer is reused",
		},
		{
			Name: "request-nowait-reuse-race", Category: CatRequest, Kind: KindLocal,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rput(0, 1, 0, 0, 2), storeP(0, 0, 2)),
			Notes: "the rput is still outstanding when its origin buffer is overwritten",
		},
		{
			Name: "request-wait-target-race", Category: CatRequest, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 102),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				rput(0, 2, 0, 0, 2), waitall(0), put(1, 2, 1, 2, 2)),
			Notes: "MPI_Wait is local completion only: the target window stays unsynchronised",
		},
		{
			Name: "request-rget-wait-load-safe", Category: CatRequest, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rget(0, 1, 0, 0, 2), waitall(0), loadP(0, 0, 2)),
			Notes: "the completed rget's destination buffer is safe to read",
		},
		{
			Name: "request-rget-nowait-load-race", Category: CatRequest, Kind: KindLocal,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rget(0, 1, 0, 0, 2), loadP(0, 0, 2)),
			Notes: "reading an rget destination before its MPI_Wait",
		},
		{
			Name: "request-two-waits-reuse-safe", Category: CatRequest, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rput(0, 1, 0, 0, 2), rput(0, 1, 2, 2, 2), waitall(0), storeP(0, 1, 2)),
			Notes: "one waitall completes both outstanding requests",
		},
		{
			Name: "request-epoch-clears-safe", Category: CatRequest, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 2, fuzz.SyncLockAll, 1,
				rput(0, 1, 0, 0, 2), storeP(0, 0, 2)),
			Notes: "the unlock_all boundary completes the epoch's requests wholesale",
		},
		{
			Name: "request-second-flight-race", Category: CatRequest, Kind: KindLocal,
			Racy: true, Pairs: pair(102, 103),
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rput(0, 1, 0, 0, 2), waitall(0), rput(0, 1, 2, 0, 2), storeP(0, 0, 2)),
			Notes: "only the first flight was waited on; the second still owns the buffer",
		},
		{
			Name: "request-partial-trim-race", Category: CatRequest, Kind: KindLocal,
			Racy: true, Pairs: pair(101, 103),
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				rput(0, 1, 0, 0, 2), put(0, 1, 4, 1, 2), waitall(0), storeP(0, 2, 1)),
			Notes: "completion trims the span, leaving the blocking put's tail fragment live",
		},
		{
			Name: "request-waitall-empty-safe", Category: CatRequest, Kind: KindRemote,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				waitall(0), put(0, 1, 0, 0, 2)),
			Notes: "a waitall with nothing outstanding completes nothing",
		},
	}
}

func datatypeCases() []Case {
	return []Case{
		{
			Name: "datatype-block-collision-race", Category: CatDatatype, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 2, 0, 0, 1), 2, 3), put(1, 2, 3, 2, 1)),
			Notes: "the strided put's second block collides with a contiguous put",
		},
		{
			Name: "datatype-interleaved-safe", Category: CatDatatype, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 2, 0, 0, 1), 3, 2), blocks(put(1, 2, 1, 0, 1), 3, 2)),
			Notes: "two interleaved single-slot strides, fully disjoint",
		},
		{
			Name: "datatype-adjacent-blocks-safe", Category: CatDatatype, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 2, 0, 0, 2), 2, 2), put(1, 2, 4, 0, 2)),
			Notes: "stride == len: the blocks are contiguous and end exactly where the put begins",
		},
		{
			Name: "datatype-stride-vs-get-race", Category: CatDatatype, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 2, 0, 0, 1), 2, 3), get(1, 2, 3, 0, 1)),
			Notes: "a remote read lands on the second strided block",
		},
		{
			Name: "datatype-strides-share-block-race", Category: CatDatatype, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 2, 0, 0, 1), 2, 3), blocks(put(1, 2, 3, 0, 1), 2, 3)),
			Notes: "two strided writes share exactly one block",
		},
		{
			Name: "datatype-strides-disjoint-safe", Category: CatDatatype, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 2, 0, 0, 1), 2, 3), blocks(put(1, 2, 1, 0, 1), 2, 3)),
			Notes: "the same stride offset by one slot: no block meets another",
		},
		{
			Name: "datatype-origin-span-race", Category: CatDatatype, Kind: KindLocal,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				blocks(put(0, 1, 0, 0, 2), 2, 3), storeP(0, 2, 2)),
			Notes: "the origin buffer of a strided put is one contiguous len*count span",
		},
		{
			Name: "datatype-strided-get-get-safe", Category: CatDatatype, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(get(0, 2, 0, 0, 1), 2, 2), get(1, 2, 0, 2, 2)),
			Notes: "strided and contiguous reads overlap harmlessly",
		},
		{
			Name: "datatype-strided-accum-same-safe", Category: CatDatatype, Kind: KindAtomic,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				blocks(acc(0, 2, 0, 0, 1, access.AccumSum), 2, 2), blocks(acc(1, 2, 0, 2, 1, access.AccumSum), 2, 2)),
			Notes: "same-operation accumulates stay atomic block by block",
		},
	}
}

func atomicCases() []Case {
	return []Case{
		{
			Name: "atomic-same-op-safe", Category: CatAtomic, Kind: KindAtomic,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), acc(1, 2, 0, 2, 2, access.AccumSum)),
			Notes: "MPI_SUM against MPI_SUM is element-wise atomic",
		},
		{
			Name: "atomic-mixed-op-race", Category: CatAtomic, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), acc(1, 2, 1, 2, 2, access.AccumMax)),
			Notes: "MPI_SUM against MPI_MAX loses atomicity",
		},
		{
			Name: "atomic-vs-put-race", Category: CatAtomic, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), put(1, 2, 1, 2, 2)),
			Notes: "a plain put is never atomic against an accumulate",
		},
		{
			Name: "atomic-vs-get-race", Category: CatAtomic, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), get(1, 2, 1, 2, 2)),
			Notes: "a concurrent read can observe a half-applied accumulate",
		},
		{
			Name: "atomic-three-origins-safe", Category: CatAtomic, Kind: KindAtomic,
			Racy: false,
			Program: prog(4, 1, fuzz.SyncLockAll, 1,
				acc(0, 3, 0, 0, 2, access.AccumSum), acc(1, 3, 0, 2, 2, access.AccumSum),
				acc(2, 3, 1, 4, 2, access.AccumSum)),
			Notes: "three origins reduce into one region with one operation",
		},
		{
			Name: "atomic-disjoint-mixed-safe", Category: CatAtomic, Kind: KindAtomic,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), acc(1, 2, 2, 2, 2, access.AccumMax)),
			Notes: "mixed operations on disjoint slots",
		},
		{
			Name: "atomic-vs-local-load-race", Category: CatAtomic, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(2, 1, fuzz.SyncLockAll, 1,
				acc(0, 1, 0, 0, 2, access.AccumSum), loadW(1, 1, 2)),
			Notes: "the target's own CPU load overlaps an incoming accumulate",
		},
		{
			Name: "atomic-band-band-safe", Category: CatAtomic, Kind: KindAtomic,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumBand), acc(1, 2, 1, 2, 2, access.AccumBand)),
			Notes: "same-operation atomicity holds for MPI_BAND too",
		},
		{
			Name: "atomic-sum-min-race", Category: CatAtomic, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncLockAll, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), acc(1, 2, 1, 2, 2, access.AccumMin)),
			Notes: "MPI_SUM against MPI_MIN loses atomicity",
		},
	}
}

func pscwCases() []Case {
	return []Case{
		{
			Name: "pscw-two-origins-race", Category: CatPSCW, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncPSCW, 1,
				put(0, 2, 0, 0, 2), put(1, 2, 1, 2, 2)),
			Notes: "two origins write one exposure epoch's window",
		},
		{
			Name: "pscw-epoch-separated-safe", Category: CatPSCW, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 2, fuzz.SyncPSCW, 1,
				put(0, 2, 0, 0, 2), put(1, 2, 1, 2, 2)),
			Notes: "complete/wait between the exposure epochs orders the writes",
		},
		{
			Name: "pscw-disjoint-safe", Category: CatPSCW, Kind: KindRemote,
			Racy: false,
			Program: prog(3, 1, fuzz.SyncPSCW, 1,
				put(0, 2, 0, 0, 2), put(1, 2, 4, 2, 2)),
			Notes: "concurrent writes to disjoint slots",
		},
		{
			Name: "pscw-get-put-race", Category: CatPSCW, Kind: KindRemote,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncPSCW, 1,
				get(0, 2, 0, 0, 2), put(1, 2, 1, 2, 2)),
			Notes: "read and write from different origins overlap in one exposure",
		},
		{
			Name: "pscw-local-uninstrumented-safe", Category: CatPSCW, Kind: KindLocal,
			Racy: false,
			Program: prog(2, 1, fuzz.SyncPSCW, 1,
				put(0, 1, 0, 0, 2), storeW(1, 0, 2)),
			Notes: "local accesses outside passive/fence epochs are not instrumented; the model (and every tool under test) scores this safe by scope",
		},
		{
			Name: "pscw-accum-mixed-race", Category: CatPSCW, Kind: KindAtomic,
			Racy: true, Pairs: pair(100, 101),
			Program: prog(3, 1, fuzz.SyncPSCW, 1,
				acc(0, 2, 0, 0, 2, access.AccumSum), acc(1, 2, 1, 2, 2, access.AccumMax)),
			Notes: "mixed reductions race under active-target sync too",
		},
	}
}
