package rma

// Regression tests for the synchronisation-surface fixes that shipped
// with the observability layer (Flush under per-target locks and PSCW,
// Flush target validation, Win_free epoch checks, PSCW epoch-time
// accounting) plus the observability surface itself (recorder on/off
// verdict equivalence, race provenance, stack capture, session
// reports).

import (
	"bytes"
	"strings"
	"testing"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
)

// racyBody is the Code 1 shape: an MPI_Put overlapping a local store
// in the same epoch on rank 0.
func racyBody(p *Proc) error {
	w, err := p.WinCreate("w", 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	if p.Rank() == 0 {
		buf := p.Alloc("buf", 32)
		if err := w.Put(1, 0, buf, 2, 10, dbg(5)); err != nil {
			return err
		}
		if err := buf.Store(7, []byte{0x12}, dbg(6)); err != nil {
			return err
		}
	}
	return w.UnlockAll()
}

// TestFlushUnderTargetLock: MPI_Win_flush is legal inside a per-target
// passive epoch (MPI_Win_lock), not only under lock_all. The original
// code returned ErrNoEpoch here.
func TestFlushUnderTargetLock(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Lock(LockExclusive, 1); err != nil {
				return err
			}
			src := p.Alloc("src", 8)
			if err := w.Put(1, 0, src, 0, 8, dbg(1)); err != nil {
				return err
			}
			if err := w.Flush(1); err != nil {
				t.Errorf("Flush under Lock(target): %v", err)
			}
			// FlushAll must equally see the per-target epoch.
			if err := w.FlushAll(); err != nil {
				t.Errorf("FlushAll under Lock(target): %v", err)
			}
			if err := w.Unlock(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Race() != nil {
		t.Fatalf("unexpected race: %v", s.Race())
	}
}

// TestFlushDuringPSCWAccessEpoch: MPI_Win_flush towards a PSCW target
// inside start/complete is accepted, like the one-sided operations
// themselves.
func TestFlushDuringPSCWAccessEpoch(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Post(1); err != nil {
				return err
			}
			return w.Wait()
		}
		if err := w.Start(0); err != nil {
			return err
		}
		src := p.Alloc("src", 8)
		if err := w.Put(0, 0, src, 0, 8, dbg(2)); err != nil {
			return err
		}
		if err := w.Flush(0); err != nil {
			t.Errorf("Flush during PSCW access epoch: %v", err)
		}
		return w.Complete()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Race() != nil {
		t.Fatalf("unexpected race: %v", s.Race())
	}
}

// TestFlushInvalidRank: a flush towards a rank outside the communicator
// must fail with a descriptive error, not an index-out-of-range panic.
func TestFlushInvalidRank(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 8)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		err = w.Flush(5)
		if err == nil {
			t.Error("Flush(5) in a 2-rank world accepted")
		} else if !strings.Contains(err.Error(), "invalid rank") {
			t.Errorf("Flush(5) error = %v, want a descriptive invalid-rank error", err)
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinFreeWithOpenPSCWEpochRejected: Win_free must be refused while
// a PSCW access epoch (missing complete) or exposure epoch (missing
// wait) is open, matching the existing LockAll and per-target-lock
// checks.
func TestWinFreeWithOpenPSCWEpochRejected(t *testing.T) {
	err, _ := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Post(1); err != nil {
				return err
			}
			if err := w.Free(); err == nil {
				t.Error("Free with an open PSCW exposure epoch accepted")
			}
			if err := w.Wait(); err != nil {
				return err
			}
		} else {
			if err := w.Start(0); err != nil {
				return err
			}
			if err := w.Free(); err == nil {
				t.Error("Free with an open PSCW access epoch accepted")
			}
			if err := w.Complete(); err != nil {
				return err
			}
		}
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPSCWEpochTimeAccumulates: the Fig. 10 epoch-time metric must
// include PSCW epochs — Complete on the access side and Wait on the
// exposure side — not only LockAll/UnlockAll.
func TestPSCWEpochTimeAccumulates(t *testing.T) {
	err, s := run(t, 2, detector.Baseline, Config{}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := w.Post(1); err != nil {
				return err
			}
			return w.Wait()
		}
		if err := w.Start(0); err != nil {
			return err
		}
		src := p.Alloc("src", 8)
		if err := w.Put(0, 0, src, 0, 8, dbg(3)); err != nil {
			return err
		}
		return w.Complete()
	})
	if err != nil {
		t.Fatal(err)
	}
	total, perRank := s.EpochTime()
	if total <= 0 {
		t.Fatalf("EpochTime total = %v after a PSCW exchange", total)
	}
	for r, d := range perRank {
		if d <= 0 {
			t.Errorf("rank %d epoch time = %v, want > 0 (PSCW epoch not accounted)", r, d)
		}
	}
}

// TestRecorderVerdictEquivalence: attaching a metrics registry must
// not change any analysis verdict — same race (same Fig. 9 message) on
// the racy program, still silent on the clean one.
func TestRecorderVerdictEquivalence(t *testing.T) {
	for _, m := range []detector.Method{detector.RMAAnalyzer, detector.OurContribution} {
		_, plain := run(t, 2, m, Config{}, racyBody)
		_, recorded := run(t, 2, m, Config{Recorder: obs.NewRegistry()}, racyBody)
		pr, rr := plain.Race(), recorded.Race()
		if pr == nil || rr == nil {
			t.Fatalf("%v: race lost (plain=%v recorded=%v)", m, pr, rr)
		}
		if pr.Message() != rr.Message() {
			t.Errorf("%v: verdict diverged with recorder:\n plain:    %s\n recorded: %s", m, pr.Message(), rr.Message())
		}

		clean := func(p *Proc) error {
			w, err := p.WinCreate("w", 64)
			if err != nil {
				return err
			}
			if err := w.LockAll(); err != nil {
				return err
			}
			src := p.Alloc("src", 8)
			if err := w.Put(1-p.Rank(), 16*p.Rank(), src, 0, 8, dbg(9)); err != nil {
				return err
			}
			return w.UnlockAll()
		}
		if err, s := run(t, 2, m, Config{Recorder: obs.NewRegistry()}, clean); err != nil || s.Race() != nil {
			t.Errorf("%v: clean run with recorder: err=%v race=%v", m, err, s.Race())
		}
	}
}

// TestRaceProvenance: a detected race carries the window name, the
// owning rank and (for unsharded analyzers) shard -1, and the Fig. 9
// message is unchanged by the provenance extension.
func TestRaceProvenance(t *testing.T) {
	_, s := run(t, 2, detector.OurContribution, Config{}, racyBody)
	race := s.Race()
	if race == nil {
		t.Fatal("no race detected")
	}
	if race.Prov == nil {
		t.Fatal("race without provenance")
	}
	if race.Prov.Window != "w" {
		t.Errorf("provenance window = %q, want \"w\"", race.Prov.Window)
	}
	if race.Prov.Owner != 0 {
		t.Errorf("provenance owner = %d, want 0 (origin-buffer conflict)", race.Prov.Owner)
	}
	if race.Prov.Shard != -1 {
		t.Errorf("provenance shard = %d, want -1 (serial analyzer)", race.Prov.Shard)
	}
	if !strings.Contains(race.Message(), "Error when inserting memory access") {
		t.Errorf("Fig. 9 message changed: %q", race.Message())
	}
	if !strings.Contains(race.Detail(), "window=w") {
		t.Errorf("Detail() missing provenance: %q", race.Detail())
	}
}

// TestCaptureStacks: with Config.CaptureStacks both racing accesses
// carry depot-resolved call stacks, surfaced through the race report
// and the flight log.
func TestCaptureStacks(t *testing.T) {
	_, s := run(t, 2, detector.OurContribution, Config{CaptureStacks: true, FlightLog: 32}, racyBody)
	race := s.Race()
	if race == nil {
		t.Fatal("no race detected")
	}
	for side, a := range map[string]access.Access{"stored": race.Prev, "inserted": race.Cur} {
		if a.StackID == 0 {
			t.Errorf("%s access has no stack id", side)
		} else if st := a.FrameString(); !strings.Contains(st, ".go:") {
			t.Errorf("%s stack %q does not resolve to file:line frames", side, st)
		}
	}
	rr := RaceReport(race)
	if rr.Prev.Stack == "" || rr.Cur.Stack == "" {
		t.Error("race report dropped the captured stacks")
	}
	var logged int
	for _, e := range race.FlightLog {
		if e.Kind == detector.FlightAccess {
			if e.Acc.StackID == 0 || e.Acc.FrameString() == "" {
				t.Errorf("flight access without resolvable stack: %+v", e.Acc)
			}
			logged++
		}
	}
	if logged == 0 {
		t.Error("flight log recorded no accesses")
	}

	// Stacks are off by default: the hot path must not pay for them.
	_, s = run(t, 2, detector.OurContribution, Config{}, racyBody)
	if race := s.Race(); race == nil || race.Prev.StackID != 0 || race.Cur.StackID != 0 {
		t.Errorf("frames captured without CaptureStacks: %+v", race)
	}
}

// TestSessionReport: an instrumented session produces a valid
// run report that round-trips through the JSON schema and carries the
// per-rank pipeline counters.
func TestSessionReport(t *testing.T) {
	err, s := run(t, 2, detector.OurContribution, Config{Recorder: obs.NewRegistry()}, func(p *Proc) error {
		w, err := p.WinCreate("w", 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		src := p.Alloc("src", 8)
		if err := w.Put(1-p.Rank(), 16*p.Rank(), src, 0, 8, dbg(4)); err != nil {
			return err
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Report("run")
	if err := rep.Validate(); err != nil {
		t.Fatalf("session report invalid: %v", err)
	}
	if rep.Ranks != 2 || rep.Events == 0 || rep.Epochs == 0 || rep.MaxNodes == 0 {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.Windows) != 1 || rep.Windows[0].Name != "w" {
		t.Fatalf("windows = %+v", rep.Windows)
	}
	var received int64
	for _, n := range rep.Windows[0].PerRankReceived {
		received += n
	}
	if received == 0 {
		t.Error("no per-rank received counts in report")
	}
	wantMetrics := map[string]bool{"engine_received": false, "store_nodes": false, "store_inserts": false, "epoch_nanos": false}
	for _, m := range rep.Metrics {
		if _, ok := wantMetrics[m.Name]; ok {
			wantMetrics[m.Name] = true
		}
	}
	for name, seen := range wantMetrics {
		if !seen {
			t.Errorf("metric %s missing from report", name)
		}
	}
	if len(rep.EpochLatency) == 0 {
		t.Error("no epoch-latency summary in report")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadReport(&buf)
	if err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Events != rep.Events || back.MaxNodes != rep.MaxNodes || len(back.Metrics) != len(rep.Metrics) {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, rep)
	}
}

// TestSessionReportCarriesRace: a racy instrumented run embeds the
// race with full provenance in the report.
func TestSessionReportCarriesRace(t *testing.T) {
	_, s := run(t, 2, detector.OurContribution, Config{Recorder: obs.NewRegistry(), CaptureStacks: true}, racyBody)
	if s.Race() == nil {
		t.Fatal("no race detected")
	}
	rep := s.Report("run")
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("races in report = %d, want 1", len(rep.Races))
	}
	rr := rep.Races[0]
	if rr.Window != "w" || rr.Owner != 0 {
		t.Errorf("race provenance = window %q owner %d, want w/0", rr.Window, rr.Owner)
	}
	if !strings.Contains(rr.Message, "Error when inserting memory access") {
		t.Errorf("race message = %q", rr.Message)
	}
	if rr.Prev.Stack == "" && rr.Cur.Stack == "" {
		t.Error("report race without stacks despite CaptureStacks")
	}
	if rr.Prev.Rank != 0 || rr.Cur.Rank != 0 {
		t.Errorf("racing ranks = %d/%d, want 0/0 (both accesses from rank 0)", rr.Prev.Rank, rr.Cur.Rank)
	}
}
