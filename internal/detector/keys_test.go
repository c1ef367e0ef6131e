package detector

import (
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/interval"
)

func keyAcc(lo, n uint64, tp access.Type, rank int, epoch uint64, line int) access.Access {
	return access.Access{
		Interval: interval.Span(lo, n),
		Type:     tp,
		Rank:     rank,
		Epoch:    epoch,
		Debug:    access.Debug{File: "k.c", Line: line},
	}
}

func TestKeyOfIgnoresInterval(t *testing.T) {
	a := keyAcc(0, 8, access.RMAWrite, 1, 2, 10)
	b := a
	b.Interval = interval.Span(1000, 3) // fragment/merge/shard rewrite
	if KeyOf(a) != KeyOf(b) {
		t.Fatalf("keys differ across interval rewrite: %+v vs %+v", KeyOf(a), KeyOf(b))
	}
}

func TestKeyOfDistinguishesIdentity(t *testing.T) {
	base := keyAcc(0, 8, access.RMAWrite, 1, 2, 10)
	for name, mut := range map[string]func(*access.Access){
		"rank":  func(a *access.Access) { a.Rank = 3 },
		"epoch": func(a *access.Access) { a.Epoch = 7 },
		"type":  func(a *access.Access) { a.Type = access.RMARead },
		"op":    func(a *access.Access) { a.AccumOp = access.AccumSum },
		"stack": func(a *access.Access) { a.Stack = true },
		"file":  func(a *access.Access) { a.Debug.File = "other.c" },
		"line":  func(a *access.Access) { a.Debug.Line = 11 },
	} {
		other := base
		mut(&other)
		if KeyOf(base) == KeyOf(other) {
			t.Errorf("%s change not reflected in key", name)
		}
	}
}

func TestDedupKeyOrderInsensitive(t *testing.T) {
	a := keyAcc(0, 8, access.RMAWrite, 1, 0, 10)
	b := keyAcc(4, 8, access.RMARead, 2, 0, 20)
	k1 := DedupKey(&Race{Prev: a, Cur: b})
	k2 := DedupKey(&Race{Prev: b, Cur: a})
	if k1 != k2 {
		t.Fatalf("dedup key depends on verdict side order: %+v vs %+v", k1, k2)
	}
	if k1.B.less(k1.A) {
		t.Fatalf("key pair not canonically ordered: %+v", k1)
	}
}

func TestDedupKeySurvivesFragmentNarrowing(t *testing.T) {
	// The stored side of a verdict may be a fragment of the original
	// access: Combine keeps the identity, only the interval narrows.
	stored := keyAcc(0, 16, access.RMAWrite, 1, 0, 10)
	frag := stored
	frag.Interval = interval.Span(8, 8)
	incoming := keyAcc(8, 8, access.RMAWrite, 2, 0, 20)
	want := DedupKey(&Race{Prev: stored, Cur: incoming})
	got := DedupKey(&Race{Prev: frag, Cur: incoming})
	if want != got {
		t.Fatalf("fragmented verdict keys differently: %+v vs %+v", got, want)
	}
}
