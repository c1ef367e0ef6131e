package main

import (
	"errors"
	"testing"
	"time"
)

func TestMeasureLoopCountsFailuresAndGoesOn(t *testing.T) {
	calls := 0
	ms, err := measureLoop(0, 5, 1, func() (int, bool, error) {
		calls++
		switch calls {
		case 1:
			return 0, false, errors.New("transport failure")
		case 2:
			return 0, false, nil // wrong verdict
		}
		return 10, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.lat) != 5 || len(ms.fastest) != 5 || len(ms.rss) != 5 || ms.bad != 2 {
		t.Errorf("%d ops, %d groups, %d RSS samples, %d failed; want 5, 5, 5, 2", len(ms.lat), len(ms.fastest), len(ms.rss), ms.bad)
	}
	for _, r := range ms.rss {
		if r <= 0 {
			t.Errorf("resident set size %v", r)
		}
	}
}

// TestMeasureLoopKeepsFastestOfGroup checks a group of ops reports its
// fastest op's latency, while every op keeps its own latency and event
// rate and counts as attempted.
func TestMeasureLoopKeepsFastestOfGroup(t *testing.T) {
	sleeps := []time.Duration{40 * time.Millisecond, time.Millisecond, 40 * time.Millisecond}
	calls := 0
	ms, err := measureLoop(0, 1, len(sleeps), func() (int, bool, error) {
		time.Sleep(sleeps[calls])
		calls++
		return calls, true, nil // op i reports i+1 events
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.lat) != 3 || len(ms.fastest) != 1 || ms.bad != 0 {
		t.Fatalf("%d ops, %d groups, %d failed; want 3, 1, 0", len(ms.lat), len(ms.fastest), ms.bad)
	}
	if ms.fastest[0] != ms.lat[1] || ms.lat[1] >= 30 {
		t.Errorf("group latency %.1f ms, ops %v; want the 1 ms op's", ms.fastest[0], ms.lat)
	}
	for i, l := range ms.lat {
		if want := float64(i+1) / l * 1e3; ms.rate[i] != want {
			t.Errorf("op %d rate %v, want %v", i, ms.rate[i], want)
		}
	}
}
