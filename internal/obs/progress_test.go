package obs

import (
	"sync"
	"testing"
	"time"
)

// TestProgressLifecycle walks the probe through a session's stages and
// checks the snapshot, publication counter and stage accounting.
func TestProgressLifecycle(t *testing.T) {
	p := NewProgress()
	if got := p.Stage(); got != StageQueued {
		t.Fatalf("new probe stage = %v, want queued", got)
	}
	if p.StageEntryNanos(StageQueued) == 0 {
		t.Fatal("queued entry timestamp missing")
	}
	seq0 := p.Seq()

	p.SetStage(StageIngesting)
	p.Update(1024, 300, 250, 2)
	p.AddRace()
	p.AddEviction()
	if p.Seq() == seq0 {
		t.Fatal("publications did not move Seq")
	}

	snap := p.Snapshot()
	if snap.Stage != "ingesting" || snap.Bytes != 1024 || snap.Records != 300 ||
		snap.Events != 250 || snap.Epochs != 2 || snap.Races != 1 || snap.Evictions != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ElapsedNs < 0 {
		t.Fatalf("negative elapsed %d", snap.ElapsedNs)
	}

	time.Sleep(time.Millisecond)
	p.SetStage(StageDraining)
	p.SetStage(StageDone)
	if got := p.Stage(); got != StageDone {
		t.Fatalf("stage = %v, want done", got)
	}
	// Ingesting spans the sleep, so the gap between its entry and the
	// next stage's — the daemon's ingest duration — is visibly positive.
	if d := p.StageEntryNanos(StageDraining) - p.StageEntryNanos(StageIngesting); d < int64(time.Millisecond) {
		t.Fatalf("ingesting duration = %d, want >= 1ms", d)
	}
	if p.StageEntryNanos(StageFailed) != 0 {
		t.Fatal("never-entered stage has an entry time")
	}

	// First-entry-wins: a duplicate transition must not move the
	// recorded entry time.
	before := p.StageEntryNanos(StageDraining)
	p.SetStage(StageDraining)
	if p.StageEntryNanos(StageDraining) != before {
		t.Fatal("duplicate SetStage rewrote the entry timestamp")
	}
}

// TestProgressNilSafe: the nil probe is the disabled probe — every
// method is a no-op, so the replay loop needs no branches beyond its
// own sampling guard.
func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	if p.Enabled() {
		t.Fatal("nil probe claims enabled")
	}
	p.SetStage(StageDone)
	p.Update(1, 2, 3, 4)
	p.AddRace()
	p.AddEviction()
	if p.Seq() != 0 || p.StageEntryNanos(StageDone) != 0 {
		t.Fatal("nil probe reported state")
	}
	if snap := p.Snapshot(); snap.Stage != "queued" || snap.Records != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

// TestProgressConcurrentReaders hammers one writer against many
// snapshotting readers; under -race this proves the probe is lock-free
// safe, and the monotone counters must never run backwards.
func TestProgressConcurrentReaders(t *testing.T) {
	p := NewProgress()
	p.SetStage(StageIngesting)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last ProgressSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := p.Snapshot()
				if snap.Records < last.Records || snap.Events < last.Events || snap.Races < last.Races {
					t.Errorf("counters ran backwards: %+v -> %+v", last, snap)
					return
				}
				last = snap
			}
		}()
	}
	for i := int64(1); i <= 5000; i++ {
		p.Update(i*10, i, i*2, i/100)
		if i%500 == 0 {
			p.AddRace()
		}
	}
	p.SetStage(StageDraining)
	p.SetStage(StageDone)
	close(stop)
	wg.Wait()
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageQueued: "queued", StageIngesting: "ingesting", StageDraining: "draining",
		StageDone: "done", StageFailed: "failed", Stage(99): "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
}
