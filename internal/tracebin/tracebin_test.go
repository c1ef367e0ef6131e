package tracebin

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"rmarace/internal/trace"
)

// sampleRecords is a representative record mix: every kind, every
// access type, interned files (repeated and fresh), flag combinations,
// stack ids and large field values.
func sampleRecords() []trace.Record {
	return []trace.Record{
		{Kind: "access", Owner: 0, Rank: 1, Lo: 100, Hi: 107, Type: "rma_write", Epoch: 1, Time: 5, CallTime: 3, File: "halo.c", Line: 42},
		{Kind: "access", Owner: 0, Rank: 2, Lo: 108, Hi: 108, Type: "rma_read", Epoch: 1, Time: 6, CallTime: 6, File: "halo.c", Line: 51, Stack: true, StackID: 7},
		{Kind: "access", Owner: 3, Rank: 3, Lo: 1 << 40, Hi: 1<<40 + 4095, Type: "local_write", Epoch: 2, Time: 9, File: "solver.c", Line: 9, Filtered: true},
		{Kind: "release", Owner: 0, Rank: 2},
		{Kind: "access", Owner: 1, Rank: 0, Lo: 0, Hi: ^uint64(0), Type: "rma_accum", Epoch: 3, Time: 11, CallTime: 10, AccumOp: 2},
		{Kind: "epoch_end", Owner: 0},
		{Kind: "access", Owner: 0, Rank: 1, Lo: 64, Hi: 71, Type: "local_read", Epoch: 4, Time: 12},
		{Kind: "epoch_end", Owner: 1},
	}
}

// encode writes header+records to a binary buffer.
func encode(t *testing.T, h trace.Header, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, r := range recs {
		if err := w.Record(r); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// drain reads every record off a source.
func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var out []trace.Record
	var rec trace.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		out = append(out, rec)
	}
}

func TestRoundTrip(t *testing.T) {
	h := trace.Header{Ranks: 4, Window: "win-a"}
	recs := sampleRecords()
	raw := encode(t, h, recs)

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if got := r.Head(); got.Ranks != h.Ranks || got.Window != h.Window {
		t.Fatalf("header = %+v, want ranks=%d window=%q", got, h.Ranks, h.Window)
	}
	got := drain(t, r)
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if r.BytesRead() != int64(len(raw)) {
		t.Errorf("BytesRead = %d, want %d", r.BytesRead(), len(raw))
	}
}

func TestRoundTripThroughJSON(t *testing.T) {
	// JSON → binary → JSON must be lossless: the second JSON rendering is
	// byte-identical to the first because both come from the same encoder.
	h := trace.Header{Ranks: 4, Window: "w"}
	var json1 bytes.Buffer
	jw, err := trace.NewWriter(&json1, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := jw.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	jw.Flush()

	var bin bytes.Buffer
	jr, err := trace.NewReader(bytes.NewReader(json1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewWriter(&bin, jr.Head())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Convert(bw, jr); err != nil {
		t.Fatalf("JSON→binary: %v", err)
	}
	if bin.Len() >= json1.Len() {
		t.Errorf("binary (%d bytes) not smaller than JSON (%d bytes)", bin.Len(), json1.Len())
	}

	var json2 bytes.Buffer
	br, err := NewReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	jw2, err := trace.NewWriter(&json2, br.Head())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Convert(jw2, br); err != nil {
		t.Fatalf("binary→JSON: %v", err)
	}
	if !bytes.Equal(json1.Bytes(), json2.Bytes()) {
		t.Error("JSON→binary→JSON round trip is not byte-identical")
	}
}

func TestOpenSniffsFormat(t *testing.T) {
	h := trace.Header{Ranks: 2, Window: "w"}
	recs := sampleRecords()

	bin := encode(t, h, recs)
	src, format, err := Open(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("Open(binary): %v", err)
	}
	if format != "bin" {
		t.Fatalf("Open(binary) format = %q, want bin", format)
	}
	if got := drain(t, src); len(got) != len(recs) {
		t.Fatalf("binary: decoded %d records, want %d", len(got), len(recs))
	}

	var jbuf bytes.Buffer
	jw, err := trace.NewWriter(&jbuf, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		jw.Record(r)
	}
	jw.Flush()
	src, format, err = Open(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatalf("Open(json): %v", err)
	}
	if format != "json" {
		t.Fatalf("Open(json) format = %q, want json", format)
	}
	if got := drain(t, src); len(got) != len(recs) {
		t.Fatalf("json: decoded %d records, want %d", len(got), len(recs))
	}
}

// corrupt decodes raw and returns the first error (nil if the stream
// reads cleanly). Reaching EOF without an error is a test failure mode
// handled by the callers; a panic fails the test by itself.
func corrupt(t *testing.T, raw []byte) error {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestCorruptStreams(t *testing.T) {
	h := trace.Header{Ranks: 4, Window: "win"}
	good := encode(t, h, sampleRecords())

	// Locate the end of the header so record-level mutations are aimed
	// past it: magic(4) + version(1) + ranks varint + window len varint +
	// window bytes.
	hdrLen := 4 + 1 + 1 + 1 + len(h.Window)

	tests := []struct {
		name string
		raw  func() []byte
		want string // substring of the error
	}{
		{"empty", func() []byte { return nil }, "magic"},
		{"short magic", func() []byte { return good[:2] }, "magic"},
		{"bad magic", func() []byte {
			b := append([]byte(nil), good...)
			b[0] = 'X'
			return b
		}, "bad magic"},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}, "unsupported version"},
		{"header cut mid-window", func() []byte { return good[: hdrLen-1 : hdrLen-1] }, "header window"},
		{"header ranks above the cap", func() []byte {
			b := append([]byte(nil), good[:5]...)
			return binary.AppendUvarint(b, trace.MaxRanks+1)
		}, "above the cap"},
		{"EOF mid-record payload", func() []byte { return good[: len(good)-1 : len(good)-1] }, "unexpected EOF"},
		{"EOF mid-length varint", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			return append(b, 0x80) // continuation bit with no next byte
		}, "unexpected EOF"},
		{"length varint overflow", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			return append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f)
		}, "varint overflows"},
		{"record length over limit", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			return binary.AppendUvarint(b, maxPayload+1)
		}, "exceeds limit"},
		{"empty record", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			return append(b, 0x00)
		}, "empty record"},
		{"unknown record kind", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			return append(b, 0x01, 0xee)
		}, "unknown record kind"},
		{"field varint overflow", func() []byte {
			// An epoch_end whose owner varint overflows 64 bits.
			b := append([]byte(nil), good[:hdrLen]...)
			payload := []byte{kindEpochEnd, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
			b = binary.AppendUvarint(b, uint64(len(payload)))
			return append(b, payload...)
		}, "varint overflows"},
		{"truncated access body", func() []byte {
			// An access record cut after the flags byte.
			b := append([]byte(nil), good[:hdrLen]...)
			payload := []byte{kindAccess, 0x00}
			b = binary.AppendUvarint(b, uint64(len(payload)))
			return append(b, payload...)
		}, "truncated"},
		{"unknown access type code", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			payload := []byte{kindAccess, 0, 0, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0}
			b = binary.AppendUvarint(b, uint64(len(payload)))
			return append(b, payload...)
		}, "unknown access type"},
		{"undefined file id", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			payload := []byte{kindAccess, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 5, 0}
			b = binary.AppendUvarint(b, uint64(len(payload)))
			return append(b, payload...)
		}, "undefined file"},
		{"file id out of sequence", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			payload := []byte{kindFileDef, 7, 1, 'x'}
			b = binary.AppendUvarint(b, uint64(len(payload)))
			return append(b, payload...)
		}, "out of sequence"},
		{"trailing bytes in record", func() []byte {
			b := append([]byte(nil), good[:hdrLen]...)
			payload := []byte{kindEpochEnd, 0, 0xaa, 0xbb}
			b = binary.AppendUvarint(b, uint64(len(payload)))
			return append(b, payload...)
		}, "trailing bytes"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := corrupt(t, tc.raw())
			if err == nil {
				t.Fatal("corrupt stream decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	h := trace.Header{Ranks: 2, Window: "w"}
	good := encode(t, h, sampleRecords())
	raw := good[: len(good)-1 : len(good)-1] // truncate the final record
	err := corrupt(t, raw)
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if !strings.Contains(err.Error(), "record ") || !strings.Contains(err.Error(), "offset ") {
		t.Fatalf("error %q does not carry record/offset position", err)
	}
}

func TestReaderSteadyStateAllocs(t *testing.T) {
	h := trace.Header{Ranks: 8, Window: "w"}
	recs := make([]trace.Record, 0, 512)
	for i := 0; i < 256; i++ {
		recs = append(recs, trace.Record{
			Kind: "access", Owner: i % 4, Rank: i % 8,
			Lo: uint64(i * 8), Hi: uint64(i*8 + 7),
			Type: "rma_write", Epoch: 1, Time: uint64(i + 1), File: "a.c", Line: i,
		})
		if i%64 == 63 {
			recs = append(recs, trace.Record{Kind: "epoch_end", Owner: i % 4})
		}
	}
	raw := encode(t, h, recs)
	br := bytes.NewReader(raw)
	r, err := NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Record
	// Warm up: first reads size the payload buffer and intern "a.c".
	for i := 0; i < 16; i++ {
		if err := r.Read(&rec); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("Read: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Read allocates %.1f objects/op, want 0", avg)
	}
}
