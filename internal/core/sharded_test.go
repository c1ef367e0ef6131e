package core

import (
	"math/rand"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/store"
)

// equivGranule is deliberately tiny so random intervals straddle shard
// boundaries constantly, exercising the split path hard.
const equivGranule = 64

// genEquivEvents produces a reproducible random access stream over a
// 64-granule address range with lengths up to three granules (so pieces
// span up to four shards). Safe streams are reads only; racy streams
// mix writes from two ranks and will eventually collide.
func genEquivEvents(rng *rand.Rand, n int, racy bool) []detector.Event {
	types := []access.Type{access.RMARead, access.LocalRead}
	if racy {
		types = []access.Type{access.RMARead, access.RMAWrite, access.LocalRead, access.LocalWrite}
	}
	evs := make([]detector.Event, n)
	for i := range evs {
		lo := uint64(rng.Intn(64 * equivGranule))
		ln := uint64(1 + rng.Intn(3*equivGranule))
		evs[i] = detector.Event{
			Acc: access.Access{
				Interval: interval.Interval{Lo: lo, Hi: lo + ln - 1},
				Type:     types[rng.Intn(len(types))],
				Rank:     rng.Intn(2),
				Debug:    access.Debug{File: "equiv.c", Line: 1 + rng.Intn(4)},
			},
			Time:     uint64(i + 1),
			CallTime: uint64(i + 1),
		}
	}
	return evs
}

// sameRaceIdentity compares two verdicts by the fields sharding
// preserves: the racing instruction pair (debug, type, rank), not the
// reported intervals — a boundary-split piece legitimately reports a
// sub-interval of the serial analyzer's overlap.
func sameRaceIdentity(a, b *detector.Race) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Cur.Debug == b.Cur.Debug && a.Cur.Type == b.Cur.Type && a.Cur.Rank == b.Cur.Rank &&
		a.Prev.Debug == b.Prev.Debug && a.Prev.Type == b.Prev.Type && a.Prev.Rank == b.Prev.Rank
}

// canonicalItems coalesces adjacent mergeable intervals, re-joining the
// pieces sharding holds separately at granule boundaries. Both
// analyzers' stored sets must be identical after canonicalisation.
func canonicalItems(items []access.Access) []access.Access {
	return access.Merge(items)
}

func sameItems(a, b []access.Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardEquivalenceRandom drives identical random streams through a
// serial analyzer and K-shard analyzers (K = 2, 4, 8): race verdicts
// must be identical event by event (including the racing pair's
// identity), and the stored-interval sets must canonicalise to the same
// set at every checkpoint. Epoch ends and rank releases are
// interleaved to cover the full lifecycle.
func TestShardEquivalenceRandom(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*shards + trial)))
			racy := trial%3 == 0
			evs := genEquivEvents(rng, 500, racy)
			serial := New()
			sharded := NewSharded(shards, WithShardGranule(equivGranule))

			raced := false
			for i, ev := range evs {
				r1 := serial.Access(ev)
				r2 := sharded.Access(ev)
				if !sameRaceIdentity(r1, r2) {
					t.Fatalf("shards=%d trial=%d event %d: serial race %v, sharded race %v",
						shards, trial, i, r1, r2)
				}
				if r1 != nil {
					// Verdicts agreed on the first race; after a race the
					// sharded Access short-circuits its remaining pieces,
					// so states may legitimately diverge. Stop here.
					raced = true
					break
				}
				switch {
				case i%157 == 156:
					if a, b := canonicalItems(serial.Items()), canonicalItems(sharded.Items()); !sameItems(a, b) {
						t.Fatalf("shards=%d trial=%d event %d: stored sets diverge\nserial:  %v\nsharded: %v",
							shards, trial, i, a, b)
					}
				case i%211 == 210:
					serial.EpochEnd()
					sharded.EpochEnd()
				case i%97 == 96:
					serial.Release(ev.Acc.Rank)
					sharded.Release(ev.Acc.Rank)
				}
			}
			if racy && !raced {
				t.Logf("shards=%d trial=%d: racy stream finished without a race (ok, but surprising)", shards, trial)
			}
			if !raced {
				if a, b := canonicalItems(serial.Items()), canonicalItems(sharded.Items()); !sameItems(a, b) {
					t.Fatalf("shards=%d trial=%d: final stored sets diverge\nserial:  %v\nsharded: %v",
						shards, trial, a, b)
				}
				if serial.Nodes() > sharded.Nodes() {
					t.Fatalf("shards=%d trial=%d: sharded holds fewer nodes (%d) than serial (%d)",
						shards, trial, sharded.Nodes(), serial.Nodes())
				}
			}
		}
	}
}

// TestShardEquivalenceBatch drives safe random streams through the
// AccessBatch fast path of both analyzers (the engine's pipeline shape)
// and compares the canonical stored sets.
func TestShardEquivalenceBatch(t *testing.T) {
	for _, shards := range []int{2, 8} {
		for trial := 0; trial < 8; trial++ {
			rng := rand.New(rand.NewSource(int64(7000*shards + trial)))
			evs := genEquivEvents(rng, 512, false)
			serial := New()
			sharded := NewSharded(shards, WithShardGranule(equivGranule))
			for off := 0; off < len(evs); off += 64 {
				end := off + 64
				if r := detector.AccessBatch(serial, evs[off:end]); r != nil {
					t.Fatalf("safe stream raced (serial): %v", r)
				}
				if r := detector.AccessBatch(sharded, evs[off:end]); r != nil {
					t.Fatalf("safe stream raced (sharded): %v", r)
				}
			}
			if a, b := canonicalItems(serial.Items()), canonicalItems(sharded.Items()); !sameItems(a, b) {
				t.Fatalf("shards=%d trial=%d: batch stored sets diverge", shards, trial)
			}
		}
	}
}

// TestShardEquivalenceStrided runs the §6(3) regular-section store
// under sharding: verdicts (including the racing pair) must match the
// serial strided analyzer event by event. Stored representations are
// not compared — a regular section spanning a granule boundary is
// legitimately held as per-shard sections.
func TestShardEquivalenceStrided(t *testing.T) {
	newStore := func() store.AccessStore { return store.NewStrided() }
	for _, shards := range []int{2, 4} {
		for trial := 0; trial < 8; trial++ {
			rng := rand.New(rand.NewSource(int64(300*shards + trial)))
			evs := genEquivEvents(rng, 400, trial%2 == 0)
			serial := New(WithStoreFactory(newStore))
			sharded := NewSharded(shards, WithShardGranule(equivGranule), WithStoreFactory(newStore))
			for i, ev := range evs {
				r1 := serial.Access(ev)
				r2 := sharded.Access(ev)
				if !sameRaceIdentity(r1, r2) {
					t.Fatalf("strided shards=%d trial=%d event %d: serial race %v, sharded race %v",
						shards, trial, i, r1, r2)
				}
				if r1 != nil {
					break
				}
			}
		}
	}
}

// TestBuildSelectsSharded pins Build's selection rule and the
// shared-store guard.
func TestBuildSelectsSharded(t *testing.T) {
	if _, ok := Build().(*Analyzer); !ok {
		t.Fatal("Build() is not a serial *Analyzer")
	}
	if _, ok := Build(WithShards(1)).(*Analyzer); !ok {
		t.Fatal("Build(WithShards(1)) is not a serial *Analyzer")
	}
	s, ok := Build(WithShards(4)).(*Sharded)
	if !ok {
		t.Fatal("Build(WithShards(4)) is not a *Sharded")
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded with shared WithStore did not panic")
		}
	}()
	NewSharded(2, WithStore(store.NewAVL()))
}

// TestShardedNodeAccounting pins the Table 4 aggregation: MaxNodes sums
// the per-shard high-water marks.
func TestShardedNodeAccounting(t *testing.T) {
	s := NewSharded(4, WithShardGranule(equivGranule))
	rng := rand.New(rand.NewSource(42))
	for _, ev := range genEquivEvents(rng, 300, false) {
		if r := s.Access(ev); r != nil {
			t.Fatal(r)
		}
	}
	sum, used := 0, 0
	for i := 0; i < s.NumShards(); i++ {
		n := s.ShardAnalyzer(i).MaxNodes()
		sum += n
		if n > 0 {
			used++
		}
	}
	if s.MaxNodes() != sum {
		t.Fatalf("MaxNodes = %d, want per-shard sum %d", s.MaxNodes(), sum)
	}
	if used < 2 {
		t.Fatalf("%d shards stored anything; the stream did not exercise sharding", used)
	}
}

// TestShardedRaceProvenance checks that a sharded analyzer stamps the
// shard holding the conflict into Race.Prov.Shard, through both the
// scalar and the batch path: write-write races planted in granules 0
// and 2 report shards 0 and 2.
func TestShardedRaceProvenance(t *testing.T) {
	const k = 4
	for _, batch := range []bool{false, true} {
		seen := map[int]bool{}
		for _, g := range []int{0, 2} {
			s := NewSharded(k, WithShardGranule(equivGranule))
			lo := uint64(g*equivGranule + 8)
			mk := func(rank int, tm uint64) detector.Event {
				return detector.Event{
					Acc: access.Access{
						Interval: interval.Interval{Lo: lo, Hi: lo + 7},
						Type:     access.RMAWrite,
						Rank:     rank,
						Debug:    access.Debug{File: "prov.c", Line: 1 + rank},
					},
					Time: tm, CallTime: tm,
				}
			}
			var race *detector.Race
			if batch {
				race = s.AccessBatch([]detector.Event{mk(0, 1), mk(1, 2)})
			} else if race = s.Access(mk(0, 1)); race == nil {
				race = s.Access(mk(1, 2))
			}
			if race == nil {
				t.Fatalf("batch=%v granule %d: planted race not reported", batch, g)
			}
			if race.Prov == nil || race.Prov.Shard != g%k {
				t.Fatalf("batch=%v granule %d: provenance %+v, want shard %d", batch, g, race.Prov, g%k)
			}
			seen[race.Prov.Shard] = true
		}
		if len(seen) != 2 {
			t.Fatalf("batch=%v: races in two shards reported shards %v", batch, seen)
		}
	}
}
