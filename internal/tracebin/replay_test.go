package tracebin

import (
	"bytes"
	"testing"

	"rmarace/internal/core"
	"rmarace/internal/detector"
	"rmarace/internal/trace"
)

// convertToBin converts a buffered JSON trace to binary.
func convertToBin(t *testing.T, jsonRaw []byte) []byte {
	t.Helper()
	jr, err := trace.NewReader(bytes.NewReader(jsonRaw))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	bw, err := NewWriter(&bin, jr.Head())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Convert(bw, jr); err != nil {
		t.Fatalf("convert: %v", err)
	}
	return bin.Bytes()
}

// TestBinaryReplayMatchesJSON proves the acceptance property on
// generated traces: the streaming binary replay and the JSON replay
// produce identical event/epoch counts and identical verdicts, across
// the memory-policy option matrix.
func TestBinaryReplayMatchesJSON(t *testing.T) {
	newA := func(int) detector.Analyzer { return core.New() }
	cfgs := []trace.GenConfig{
		{Ranks: 8, Events: 400, Epochs: 3, Owners: 4, Adjacency: 0.5, SafeOnly: true, Seed: 1},
		{Ranks: 16, Events: 300, Epochs: 4, Owners: 8, OwnerSkew: 0.9, Adjacency: 0.2, SafeOnly: true, Seed: 2, PlantRace: true},
		{Ranks: 4, Events: 500, Epochs: 2, Adjacency: 0.8, WriteFraction: 0.9, Seed: 3},
	}
	optsMatrix := []trace.ReplayOpts{
		{},
		{Batch: 64},
		{EvictCold: 1, Compact: true},
	}
	for i, cfg := range cfgs {
		var jbuf bytes.Buffer
		if _, err := trace.Generate(&jbuf, cfg); err != nil {
			t.Fatal(err)
		}
		bin := convertToBin(t, jbuf.Bytes())
		for j, opts := range optsMatrix {
			jr, err := trace.NewReader(bytes.NewReader(jbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			jres, err := trace.ReplayStream(jr, newA, opts)
			if err != nil {
				t.Fatalf("cfg %d opts %d: JSON replay: %v", i, j, err)
			}
			br, err := NewReader(bytes.NewReader(bin))
			if err != nil {
				t.Fatal(err)
			}
			bres, err := trace.ReplayStream(br, newA, opts)
			if err != nil {
				t.Fatalf("cfg %d opts %d: binary replay: %v", i, j, err)
			}
			if jres.Events != bres.Events || jres.Epochs != bres.Epochs {
				t.Errorf("cfg %d opts %d: counts diverge: json %d/%d, bin %d/%d",
					i, j, jres.Events, jres.Epochs, bres.Events, bres.Epochs)
			}
			switch {
			case (jres.Race == nil) != (bres.Race == nil):
				t.Errorf("cfg %d opts %d: verdicts diverge: json %v, bin %v", i, j, jres.Race, bres.Race)
			case jres.Race != nil:
				if detector.DedupKey(jres.Race) != detector.DedupKey(bres.Race) {
					t.Errorf("cfg %d opts %d: race identity diverges:\n json %+v\n bin  %+v",
						i, j, jres.Race, bres.Race)
				}
			}
		}
	}
}

// TestGenerateToBinary exercises direct binary generation (no JSON
// intermediary): the stream must replay identically to a JSON
// generation with the same config.
func TestGenerateToBinary(t *testing.T) {
	cfg := trace.GenConfig{Ranks: 8, Events: 300, Epochs: 3, Owners: 4, OwnerSkew: 0.5, Adjacency: 0.4, SafeOnly: true, Seed: 9}
	var jbuf bytes.Buffer
	jn, err := trace.Generate(&jbuf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bbuf bytes.Buffer
	bw, err := NewWriter(&bbuf, trace.Header{Ranks: cfg.Ranks, Window: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	bn, err := trace.GenerateTo(bw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jn != bn {
		t.Fatalf("JSON generation wrote %d events, binary %d", jn, bn)
	}
	if bbuf.Len() >= jbuf.Len() {
		t.Errorf("binary trace (%d bytes) not smaller than JSON (%d bytes)", bbuf.Len(), jbuf.Len())
	}

	newA := func(int) detector.Analyzer { return core.New() }
	jr, err := trace.NewReader(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	jres, err := trace.ReplayStream(jr, newA, trace.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewReader(bytes.NewReader(bbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := trace.ReplayStream(br, newA, trace.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if jres.Events != bres.Events || jres.Epochs != bres.Epochs || (jres.Race == nil) != (bres.Race == nil) {
		t.Fatalf("direct binary generation replays differently: %+v vs %+v", bres, jres)
	}
}
