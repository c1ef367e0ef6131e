package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs"
	"rmarace/internal/store"
)

// randomReadStream builds a race-free stream (reads never conflict)
// that still exercises every insertion path: adjacent runs that merge,
// overlapping accesses that fragment, and debug variation that blocks
// merging.
func randomReadStream(rng *rand.Rand, n int) []detector.Event {
	out := make([]detector.Event, n)
	cursor := uint64(1 << 16)
	for i := range out {
		var iv interval.Interval
		switch rng.Intn(4) {
		case 0: // adjacent continuation (the frontier fast path)
			iv = interval.Span(cursor, 8)
			cursor += 8
		case 1: // overlap something recent (fragmentation)
			back := uint64(rng.Intn(64) * 4)
			iv = interval.Span(cursor-back-4, uint64(8+rng.Intn(16)))
		default: // fresh location
			cursor += uint64(64 + rng.Intn(128))
			iv = interval.Span(cursor, uint64(4+rng.Intn(12)))
			cursor += iv.Len()
		}
		out[i] = detector.Event{
			Acc: access.Access{
				Interval: iv,
				Type:     access.RMARead,
				Rank:     rng.Intn(3),
				Debug:    access.Debug{File: "batch.c", Line: 1 + rng.Intn(2)},
			},
			Time: uint64(i + 1), CallTime: uint64(i + 1),
		}
	}
	return out
}

// TestAccessBatchMatchesScalar pins the batched entry point to the
// scalar one: for any chunking of the same stream, AccessBatch must
// leave the store in the same state Access does.
func TestAccessBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomReadStream(rng, 4000)

	scalar := New()
	for _, ev := range stream {
		if r := scalar.Access(ev); r != nil {
			t.Fatalf("scalar reported a race on a read-only stream: %v", r)
		}
	}

	for _, chunk := range []int{1, 3, 64, 1000} {
		batched := New()
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			evs := make([]detector.Event, end-off)
			copy(evs, stream[off:end])
			if r := batched.AccessBatch(evs); r != nil {
				t.Fatalf("chunk %d reported a race on a read-only stream: %v", chunk, r)
			}
		}
		if got, want := batched.Items(), scalar.Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: store diverged from scalar\n got %d items\nwant %d items", chunk, len(got), len(want))
		}
		if got, want := batched.Accesses(), scalar.Accesses(); got != want {
			t.Fatalf("chunk %d: accesses %d, want %d", chunk, got, want)
		}
	}
}

// TestAccessBatchReportsSameRace plants a conflicting write behind an
// adjacent run and checks the batched path reports the identical race
// the scalar path does.
func TestAccessBatchReportsSameRace(t *testing.T) {
	var stream []detector.Event
	for i := 0; i < 100; i++ {
		stream = append(stream, detector.Event{
			Acc: access.Access{
				Interval: interval.Span(uint64(4096+i*8), 8),
				Type:     access.RMAWrite,
				Rank:     0,
				Debug:    access.Debug{File: "run.c", Line: 5},
			},
			Time: uint64(i + 1), CallTime: uint64(i + 1),
		})
	}
	stream = append(stream, detector.Event{
		Acc: access.Access{
			Interval: interval.Span(4096+400, 8), // inside the merged run
			Type:     access.RMAWrite,
			Rank:     1,
			Debug:    access.Debug{File: "other.c", Line: 9},
		},
		Time: 101, CallTime: 101,
	})

	scalar := New()
	var scalarRace *detector.Race
	for _, ev := range stream {
		if scalarRace = scalar.Access(ev); scalarRace != nil {
			break
		}
	}
	if scalarRace == nil {
		t.Fatal("scalar missed the planted race")
	}

	batched := New()
	evs := make([]detector.Event, len(stream))
	copy(evs, stream)
	batchRace := batched.AccessBatch(evs)
	if batchRace == nil {
		t.Fatal("batched missed the planted race")
	}
	if !reflect.DeepEqual(*scalarRace, *batchRace) {
		t.Fatalf("race reports diverged:\nscalar %+v\nbatch  %+v", *scalarRace, *batchRace)
	}
}

// callLog is an avl store that logs the store calls the analyzer makes,
// by name and interval, in order.
type callLog struct {
	*store.AVL
	calls []string
}

func (c *callLog) log(name string, iv interval.Interval) {
	c.calls = append(c.calls, fmt.Sprintf("%s[%d..%d]", name, iv.Lo, iv.Hi))
}

func (c *callLog) Insert(a access.Access) { c.log("Insert", a.Interval); c.AVL.Insert(a) }

func (c *callLog) Delete(iv interval.Interval) bool { c.log("Delete", iv); return c.AVL.Delete(iv) }

func (c *callLog) Stab(iv interval.Interval, fn func(access.Access) bool) bool {
	c.log("Stab", iv)
	return c.AVL.Stab(iv, fn)
}

func (c *callLog) StabNeighbors(iv interval.Interval, dst *[]access.Access) (access.Access, access.Access, bool, bool) {
	c.log("StabNeighbors", iv)
	return c.AVL.StabNeighbors(iv, dst)
}

func (c *callLog) ExtendHi(iv interval.Interval, newHi uint64) bool {
	c.log("ExtendHi", iv)
	return c.AVL.ExtendHi(iv, newHi)
}

func (c *callLog) ExtendLo(iv interval.Interval, newLo uint64) bool {
	c.log("ExtendLo", iv)
	return c.AVL.ExtendLo(iv, newLo)
}

// TestAccessAndAccessBatchMakeTheSameStoreCalls: Access and AccessBatch
// run one Algorithm 1, so an adjacent run fed one event at a time makes
// the same store calls, in the same order, as the same run fed as one
// batch — the frontier probe (Stab) and an in-place ExtendHi for every
// continuation, not a neighbour search.
func TestAccessAndAccessBatchMakeTheSameStoreCalls(t *testing.T) {
	var run []detector.Event
	for i := 0; i < 8; i++ {
		run = append(run, detector.Event{Acc: access.Access{
			Interval: interval.Span(uint64(4096+i*8), 8),
			Type:     access.RMAWrite,
			Rank:     1,
			Debug:    access.Debug{File: "halo.c", Line: 3},
		}})
	}
	scalarLog := &callLog{AVL: store.NewAVL()}
	scalar := New(WithStore(scalarLog))
	for _, ev := range run {
		if r := scalar.Access(ev); r != nil {
			t.Fatalf("race on a one-rank adjacent run: %v", r)
		}
	}
	batchLog := &callLog{AVL: store.NewAVL()}
	if r := New(WithStore(batchLog)).AccessBatch(run); r != nil {
		t.Fatalf("race on a one-rank adjacent run: %v", r)
	}
	if !reflect.DeepEqual(scalarLog.calls, batchLog.calls) {
		t.Fatalf("store calls diverged\nAccess:      %v\nAccessBatch: %v", scalarLog.calls, batchLog.calls)
	}
	want := []string{"StabNeighbors[4096..4103]", "Insert[4096..4103]", "Stab[4104..4112]", "ExtendHi[4096..4103]"}
	if got := scalarLog.calls[:len(want)]; !reflect.DeepEqual(got, want) {
		t.Fatalf("first continuation: store calls %v, want %v", got, want)
	}
	if got, want := len(scalarLog.calls), 2+2*(len(run)-1); got != want {
		t.Fatalf("%d store calls, want %d: %v", got, want, scalarLog.calls)
	}
	if got := scalar.Items(); len(got) != 1 || got[0].Lo != 4096 || got[0].Hi != 4096+8*8-1 {
		t.Fatalf("stored %v, want one merged access [4096..4159]", got)
	}
}

// TestRecordedAdjacentRunAllocatesNothing: with recording on, an
// adjacent run allocates nothing once warm, fed one event at a time or
// as one batch; the frontier probe's recorded Stab included.
func TestRecordedAdjacentRunAllocatesNothing(t *testing.T) {
	z := New(WithRecorder(obs.NewRegistry(), 0))
	run := make([]detector.Event, 64)
	for i := range run {
		run[i] = detector.Event{Acc: access.Access{
			Interval: interval.Span(uint64(4096+i*8), 8),
			Type:     access.RMAWrite,
			Rank:     1,
			Debug:    access.Debug{File: "halo.c", Line: 3},
		}}
	}
	for name, feed := range map[string]func(){
		"Access": func() {
			for _, ev := range run {
				z.Access(ev)
			}
		},
		"AccessBatch": func() { z.AccessBatch(run) },
	} {
		feed() // warm: the recorder's first series
		z.EpochEnd()
		if n := testing.AllocsPerRun(20, func() { feed(); z.EpochEnd() }); n != 0 {
			t.Errorf("%s: %.1f allocations per recorded run, want 0", name, n)
		}
	}
}
