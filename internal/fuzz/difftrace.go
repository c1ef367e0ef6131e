package fuzz

import (
	"bytes"
	"fmt"

	"rmarace/internal/detector"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// renderJSON writes one rendered record stream as a JSON Lines trace.
func renderJSON(recs []trace.Record, ranks int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Ranks: ranks, Window: "fuzz"})
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := w.Record(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// diffTraceCodec proves the binary trace codec lossless and
// verdict-preserving on one rendered record stream:
//
//  1. JSON → binary → JSON must be byte-identical (both JSON renderings
//     come from the same encoder, so losslessness shows up as equality),
//  2. the streaming binary replay must return the same verdict — same
//     race/no-race outcome and, when both race, the same deduplicated
//     access pair — as the JSON replay of the identical stream.
//
// Returns a "trace-codec" divergence otherwise.
func diffTraceCodec(recs []trace.Record, ranks int) (Divergence, bool, error) {
	json1, err := renderJSON(recs, ranks)
	if err != nil {
		return Divergence{}, false, err
	}

	// JSON → binary.
	jr, err := trace.NewReader(bytes.NewReader(json1))
	if err != nil {
		return Divergence{}, false, err
	}
	var bin bytes.Buffer
	bw, err := tracebin.NewWriter(&bin, jr.Head())
	if err != nil {
		return Divergence{}, false, err
	}
	if _, err := tracebin.Convert(bw, jr); err != nil {
		return Divergence{}, false, fmt.Errorf("fuzz: JSON→binary: %w", err)
	}

	// binary → JSON.
	br, err := tracebin.NewReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		return Divergence{}, false, err
	}
	var json2 bytes.Buffer
	jw2, err := trace.NewWriter(&json2, br.Head())
	if err != nil {
		return Divergence{}, false, err
	}
	if _, err := tracebin.Convert(jw2, br); err != nil {
		return Divergence{}, false, fmt.Errorf("fuzz: binary→JSON: %w", err)
	}
	if !bytes.Equal(json1, json2.Bytes()) {
		return Divergence{Kind: "trace-codec",
			Detail: fmt.Sprintf("JSON→binary→JSON not byte-identical: %d bytes vs %d", len(json1), json2.Len())}, true, nil
	}

	// Replay equivalence: JSON replay vs binary streaming replay of the
	// same stream, default sound subject.
	newA := newSubject(Config{Store: "avl", Shards: 1, Batch: 1})
	jr2, err := trace.NewReader(bytes.NewReader(json1))
	if err != nil {
		return Divergence{}, false, err
	}
	jres, err := trace.ReplayStream(jr2, newA, trace.ReplayOpts{})
	if err != nil {
		return Divergence{}, false, err
	}
	br2, err := tracebin.NewReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		return Divergence{}, false, err
	}
	bres, err := trace.ReplayStream(br2, newA, trace.ReplayOpts{})
	if err != nil {
		return Divergence{}, false, err
	}
	switch {
	case (jres.Race == nil) != (bres.Race == nil):
		return Divergence{Kind: "trace-codec",
			Detail: fmt.Sprintf("JSON replay race=%v, binary streaming replay race=%v", jres.Race != nil, bres.Race != nil)}, true, nil
	case jres.Race != nil && detector.DedupKey(jres.Race) != detector.DedupKey(bres.Race):
		return Divergence{Kind: "trace-codec",
			Detail: fmt.Sprintf("JSON pair %+v, binary pair %+v", detector.DedupKey(jres.Race), detector.DedupKey(bres.Race))}, true, nil
	case jres.Events != bres.Events || jres.Epochs != bres.Epochs:
		return Divergence{Kind: "trace-codec",
			Detail: fmt.Sprintf("JSON replay %d events/%d epochs, binary %d/%d", jres.Events, jres.Epochs, bres.Events, bres.Epochs)}, true, nil
	}
	return Divergence{}, false, nil
}
