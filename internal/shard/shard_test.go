package shard

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ shards, granule int }{
		{0, 64}, {3, 64}, {-4, 64}, {4, 3}, {4, -8},
	} {
		if _, err := New(bad.shards, bad.granule); err == nil {
			t.Errorf("New(%d, %d) accepted", bad.shards, bad.granule)
		}
	}
	m, err := New(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Granule() != DefaultGranule || m.Shards() != 8 {
		t.Errorf("default granule map = %d shards × %d bytes", m.Shards(), m.Granule())
	}
}

func TestZeroValueSingleShard(t *testing.T) {
	var m Map
	if m.Shards() != 1 {
		t.Fatalf("zero value has %d shards", m.Shards())
	}
	calls := 0
	m.Split(10, 1<<40, func(s int, lo, hi uint64) {
		calls++
		if s != 0 || lo != 10 || hi != 1<<40 {
			t.Errorf("zero-value split = (%d, %d, %d)", s, lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("zero-value split emitted %d pieces", calls)
	}
}

func TestSplitCoversExactlyAndStaysInShard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		shards := 1 << rng.Intn(5)        // 1..16
		granule := 1 << (3 + rng.Intn(6)) // 8..256
		m := MustNew(shards, granule)
		lo := rng.Uint64() % (1 << 20)
		hi := lo + rng.Uint64()%(4*uint64(granule))
		next := lo
		pieces := 0
		m.Split(lo, hi, func(s int, plo, phi uint64) {
			pieces++
			if plo != next {
				t.Fatalf("gap: piece starts at %d, want %d", plo, next)
			}
			if phi < plo || phi > hi {
				t.Fatalf("piece [%d,%d] outside [%d,%d]", plo, phi, lo, hi)
			}
			if m.Of(plo) != s || m.Of(phi) != s {
				t.Fatalf("piece [%d,%d] not wholly in shard %d", plo, phi, s)
			}
			if shards > 1 && plo/uint64(granule) != phi/uint64(granule) {
				// Multi-shard pieces must sit inside one granule; a
				// single-shard map never splits.
				t.Fatalf("piece [%d,%d] crosses a granule boundary", plo, phi)
			}
			next = phi + 1
		})
		if next != hi+1 {
			t.Fatalf("split stopped at %d, want %d", next, hi+1)
		}
		if want := m.Pieces(lo, hi); pieces != want {
			t.Fatalf("Pieces(%d,%d) = %d, split emitted %d", lo, hi, want, pieces)
		}
	}
}

func TestSplitAtAddressSpaceTop(t *testing.T) {
	m := MustNew(4, 64)
	top := uint64(math.MaxUint64)
	var got []uint64
	m.Split(top-100, top, func(s int, lo, hi uint64) { got = append(got, lo, hi) })
	if len(got) == 0 || got[len(got)-1] != top {
		t.Fatalf("top-of-space split = %v", got)
	}
}

func TestConsecutiveGranulesRoundRobin(t *testing.T) {
	m := MustNew(4, 64)
	for g := 0; g < 16; g++ {
		if got, want := m.Of(uint64(g)*64), g%4; got != want {
			t.Errorf("granule %d in shard %d, want %d", g, got, want)
		}
	}
}
