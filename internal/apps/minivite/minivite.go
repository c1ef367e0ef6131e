// Package minivite reimplements the access behaviour of MiniVite, the
// distributed Louvain graph community detection proxy application used
// in the paper's Figs. 9, 11, 12 and Table 4.
//
// The simulated application distributes the graph's vertices over the
// ranks and runs one Louvain phase inside a single passive-target epoch
// on one communication window (like the original). Per local vertex it
//
//   - performs real arithmetic over the vertex's synthetic edges
//     (alias-filtered scratch: only MUST-RMA instruments it),
//   - touches four 8-byte attribute fields of two 24-byte-strided
//     record arrays (instrumented local accesses at distinct, never
//     adjacent addresses — the reason merging barely helps on MiniVite,
//     §5.3/Table 4),
//   - sends its community datum to ghost owners with a
//     rank-count-dependent expected frequency: MPI_Puts into the
//     vertex's dedicated strided slots of the targets' windows.
//
// Each rank also writes small contiguous per-neighbour header runs
// (counts arrays), the only adjacent accesses in the run — they are
// what the merging algorithm does manage to coalesce, reproducing the
// small, rank-count-dependent node reductions of Table 4 (≈3.8·P nodes
// saved per process).
//
// InjectRace duplicates one MPI_Put, reproducing the experiment of
// Fig. 9 (Code 3) including the ./dspl.hpp:612/614 error report.
package minivite

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/mpi"
	"rmarace/internal/rma"
)

// Config sizes one MiniVite run.
type Config struct {
	Ranks int
	// Vertices is the global vertex count (the paper uses 640,000 and
	// 1,280,000).
	Vertices int
	// EdgesPerVertex controls the interior compute volume.
	EdgesPerVertex int
	// InjectRace duplicates an MPI_Put (Fig. 9 / Code 3).
	InjectRace bool
	// Seed makes the communication pattern deterministic.
	Seed int64
}

// Default returns the paper's configuration for the given rank count
// and input size.
func Default(ranks, vertices int) Config {
	return Config{Ranks: ranks, Vertices: vertices, EdgesPerVertex: 8, Seed: 1}
}

// Small is a fast configuration for tests.
func Small() Config {
	return Config{Ranks: 4, Vertices: 2000, EdgesPerVertex: 4, Seed: 1}
}

// Result aggregates one run's measurements.
type Result struct {
	Method detector.Method
	// Wall is the total wall-clock time of the run. On the single-core
	// simulator all ranks serialise, so Wall approximates the machine
	// time of the whole job.
	Wall time.Duration
	// PerProcessTime is Wall divided by the rank count — the
	// strong-scaling execution-time proxy reported for Figs. 11 and 12.
	PerProcessTime time.Duration
	// MaxNodesPerProcess is the largest per-rank BST high-water mark —
	// the Table 4 metric.
	MaxNodesPerProcess int
	// TotalAccesses counts analysed accesses over all ranks.
	TotalAccesses uint64
	// Race is non-nil when the run aborted on a detected race.
	Race *detector.Race
}

const (
	attrStride  = 24 // vertex records: three 8-byte fields per 24-byte struct
	slotStride  = 16 // remote slots: {community, degree}, only community written
	headerSlots = 11 // 8-byte slots per contiguous header run
	// maxHalfNeighbors bounds each rank's communication partners to a
	// ring neighbourhood (±maxHalfNeighbors), like a graph partitioner
	// placing adjacent vertex blocks on nearby ranks. This keeps window
	// memory O(vertices) instead of O(ranks·vertices).
	maxHalfNeighbors = 16
)

// halfNeighbors returns the one-sided neighbourhood radius for a world
// of P ranks.
func halfNeighbors(ranks int) int {
	h := (ranks - 1) / 2
	if h > maxHalfNeighbors {
		h = maxHalfNeighbors
	}
	if h < 1 {
		h = 1
	}
	return h
}

// neighborCount returns the number of communication partners per rank.
func neighborCount(ranks int) int {
	n := 2 * halfNeighbors(ranks)
	if n > ranks-1 {
		n = ranks - 1
	}
	return n
}

// deltaToSegment maps the ring distance between origin and target to
// the origin's segment index in the target's window. delta is
// (origin-target) mod ranks and must lie in the neighbourhood.
func deltaToSegment(delta, ranks int) int {
	h := halfNeighbors(ranks)
	if delta >= 1 && delta <= h {
		return delta - 1
	}
	return h + (ranks - delta) - 1
}

// commRate is the expected number of ghost-owner Puts per vertex. It
// grows with the rank count — smaller partitions cut more edges — and
// is calibrated against Table 4's per-process node counts:
// λ(32)=0.21 scaled by (P/32)^0.77.
func commRate(ranks int) float64 {
	return 0.21 * math.Pow(float64(ranks)/32.0, 0.77)
}

// headerRuns is the number of contiguous header regions each rank
// writes; merging saves (headerSlots-1) nodes per run, ≈3.8·P nodes per
// process in total.
func headerRuns(ranks int) int { return (38*ranks + 50) / 100 }

func dbgv(line int) access.Debug { return access.Debug{File: "./dspl.hpp", Line: line} }

// Run executes the simulated MiniVite under the given analysis method.
func Run(cfg Config, method detector.Method) (Result, error) {
	return RunOpts(cfg, rma.Config{Method: method})
}

// RunOpts executes MiniVite under a full analysis configuration, e.g.
// the contribution over the strided (regular-section) store.
func RunOpts(cfg Config, rmaCfg rma.Config) (Result, error) {
	if cfg.Ranks < 2 {
		return Result{}, fmt.Errorf("minivite: need at least 2 ranks, got %d", cfg.Ranks)
	}
	if cfg.Vertices < cfg.Ranks {
		return Result{}, fmt.Errorf("minivite: %d vertices over %d ranks", cfg.Vertices, cfg.Ranks)
	}
	method := rmaCfg.Method
	world := mpi.NewWorld(cfg.Ranks)
	session := rma.NewSession(world, rmaCfg)

	start := time.Now()
	runErr := world.Run(func(mp *mpi.Proc) error {
		return rank(session.Proc(mp), cfg)
	})
	wall := time.Since(start)
	session.Close()

	res := Result{
		Method:         method,
		Wall:           wall,
		PerProcessTime: wall / time.Duration(cfg.Ranks),
		Race:           session.Race(),
	}
	if runErr != nil && res.Race == nil {
		return res, runErr
	}
	for _, ws := range session.Stats() {
		res.TotalAccesses += ws.Accesses
		for _, n := range ws.PerRankMaxNodes {
			if n > res.MaxNodesPerProcess {
				res.MaxNodesPerProcess = n
			}
		}
	}
	return res, nil
}

// rank is the per-process MiniVite body: one Louvain phase, one epoch.
func rank(p *rma.Proc, cfg Config) error {
	me := p.Rank()
	nv := cfg.Vertices / cfg.Ranks
	rng := rand.New(rand.NewSource(cfg.Seed + int64(me)*7919))

	// The communication window: one strided slot per (neighbouring
	// origin, vertex), plus the gap-separated header runs.
	headerBytes := headerRuns(cfg.Ranks) * (headerSlots + 1) * 8
	segBytes := nv*slotStride + 64
	winBytes := neighborCount(cfg.Ranks)*segBytes + headerBytes
	w, err := p.WinCreate("commwin", winBytes)
	if err != nil {
		return err
	}

	// Two vertex record arrays (tracked: they feed the communication)
	// and interior Louvain state (alias-filtered).
	attrs := p.Alloc("scdata", nv*attrStride+32)
	degs := p.Alloc("vdegree", nv*attrStride+32)
	edges := p.Alloc("edges", 8*maxInt(nv*cfg.EdgesPerVertex, 8), rma.Untracked())

	if err := w.LockAll(); err != nil {
		return err
	}

	rate := commRate(cfg.Ranks)
	injected := false
	var word [8]byte
	for v := 0; v < nv; v++ {
		// Interior compute: iterate the vertex's edges (real work, only
		// MUST-RMA instruments the accesses).
		var acc uint64
		for e := 0; e < cfg.EdgesPerVertex; e++ {
			off := ((v*cfg.EdgesPerVertex + e) * 8) % (edges.Size() - 8)
			x, err := edges.LoadU64(off, dbgv(590))
			if err != nil {
				return err
			}
			acc = acc*6364136223846793005 + x + 1442695040888963407
		}
		word[0] = byte(acc)

		// Four attribute accesses at distinct strided addresses: fields
		// of this vertex's records, never adjacent to one another or to
		// the neighbouring vertices' fields.
		base := v * attrStride
		if _, err := attrs.Load(base, 8, dbgv(601)); err != nil {
			return err
		}
		if err := attrs.Store(base+8, word[:], dbgv(602)); err != nil {
			return err
		}
		if _, err := attrs.Load(base+16, 8, dbgv(603)); err != nil {
			return err
		}
		if err := degs.Store(base, word[:], dbgv(604)); err != nil {
			return err
		}

		// Ghost communication: expected rate Puts per vertex, each to a
		// distinct ghost owner, into this vertex's dedicated strided
		// slot there. The Put source is a record field no local access
		// touches, so every instrumented access in the run covers a
		// distinct interval (no accidental combining).
		puts := int(rate)
		if rng.Float64() < rate-float64(puts) {
			puts++
		}
		if nb := neighborCount(cfg.Ranks); puts > nb {
			puts = nb
		}
		if puts > 0 {
			h := halfNeighbors(cfg.Ranks)
			deltas := rng.Perm(neighborCount(cfg.Ranks))[:puts]
			for _, d := range deltas {
				// Map the permutation index to a signed ring offset in
				// [-h..-1, 1..h].
				off := d + 1
				if off > h {
					off = -(off - h)
				}
				target := ((me+off)%cfg.Ranks + cfg.Ranks) % cfg.Ranks
				seg := deltaToSegment(((me-target)%cfg.Ranks+cfg.Ranks)%cfg.Ranks, cfg.Ranks)
				slot := seg*segBytes + v*slotStride
				if err := w.Put(target, slot, degs, base+8, 8, dbgv(612)); err != nil {
					return err
				}
				if cfg.InjectRace && !injected && v > nv/2 {
					injected = true
					// Fig. 9 / Code 3: the duplicated MPI_Put two
					// source lines below the original.
					if err := w.Put(target, slot, degs, base+8, 8, dbgv(614)); err != nil {
						return err
					}
				}
			}
		}
	}

	// Per-neighbour header runs: the contiguous counts arrays — the
	// only adjacent instrumented accesses in MiniVite.
	hdrBase := neighborCount(cfg.Ranks) * segBytes
	for h := 0; h < headerRuns(cfg.Ranks); h++ {
		runBase := hdrBase + h*(headerSlots+1)*8
		for s := 0; s < headerSlots; s++ {
			if err := w.Buffer().Store(runBase+s*8, word[:], dbgv(608)); err != nil {
				return err
			}
		}
	}

	return w.UnlockAll()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
