package tracebin

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"rmarace/internal/trace"
)

// FuzzReader feeds arbitrary bytes to the binary decoder: whatever the
// input, the reader must return a descriptive error or a clean EOF —
// never panic, never loop, never allocate past the payload cap. Valid
// prefixes decode; the corpus seeds a well-formed stream so mutations
// explore the record space, not just the header. The decoder must also
// give the same results however its input arrives: read one byte at a
// time, where every record spans a refill of the input window, it
// returns the same records, errors, positions and byte counts as from
// one bytes.Reader.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, trace.Header{Ranks: 4, Window: "w"})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range sampleRecordsF() {
		if err := w.Record(r); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("RMTB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		whole := readAll(bytes.NewReader(raw))
		for _, ev := range whole {
			if ev.err != nil && ev.err.Error() == "" {
				t.Fatal("empty error message")
			}
		}
		split := readAll(iotest.OneByteReader(bytes.NewReader(raw)))
		if len(split) != len(whole) {
			t.Fatalf("one byte at a time: %d reads, want %d", len(split), len(whole))
		}
		for i := range whole {
			if !split[i].equal(whole[i]) {
				t.Fatalf("read %d one byte at a time = %+v, want %+v", i, split[i], whole[i])
			}
		}
	})
}

// readStep is what one decoder call observed: the header (first step
// only) or record, or the error, and the reader's position and byte
// count after it.
type readStep struct {
	hdr  trace.Header
	rec  trace.Record
	err  error
	pos  string
	read int64
}

func (s readStep) equal(o readStep) bool {
	if (s.err == nil) != (o.err == nil) || s.err != nil && s.err.Error() != o.err.Error() {
		return false
	}
	return s.hdr == o.hdr && s.rec == o.rec && s.pos == o.pos && s.read == o.read
}

// readAll decodes src to its end: the header (or its error) first, then
// every Read up to and including the first error or EOF.
func readAll(src io.Reader) []readStep {
	r, err := NewReader(src)
	if err != nil {
		return []readStep{{err: err}}
	}
	steps := []readStep{{hdr: r.Head(), read: r.BytesRead()}}
	for i := 0; i < 1<<16; i++ {
		var rec trace.Record
		err := r.Read(&rec)
		steps = append(steps, readStep{rec: rec, err: err, pos: r.Pos(), read: r.BytesRead()})
		if err != nil {
			break
		}
	}
	return steps
}

// FuzzRoundTrip mutates record fields and asserts binary encode→decode
// is the identity on every encodable record.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), 3, 1, uint64(100), uint64(7), uint64(2), uint64(9), uint64(8), true, false, uint32(5), "a.c", 12, uint8(1))
	f.Fuzz(func(t *testing.T, kindSel uint8, owner, rank int, lo, span, epoch, tm, callTm uint64, stack, filtered bool, stackID uint32, file string, line int, accumOp uint8) {
		var rec trace.Record
		switch kindSel % 3 {
		case 0:
			if owner < 0 || rank < 0 || line < 0 || lo+span < lo {
				return // not encodable; negative ints have no uvarint form
			}
			rec = trace.Record{
				Kind: "access", Owner: owner, Rank: rank,
				Lo: lo, Hi: lo + span, Type: accessTypeNames[1+int(accumOp)%5],
				Epoch: epoch, Time: tm, CallTime: callTm,
				Stack: stack, Filtered: filtered, StackID: stackID,
				File: file, Line: line, AccumOp: accumOp,
			}
		case 1:
			if owner < 0 {
				return
			}
			rec = trace.Record{Kind: "epoch_end", Owner: owner}
		default:
			if owner < 0 || rank < 0 {
				return
			}
			rec = trace.Record{Kind: "release", Owner: owner, Rank: rank}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, trace.Header{Ranks: 4, Window: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Record(rec); err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		w.Flush()
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got trace.Record
		if err := r.Read(&got); err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	})
}

// sampleRecordsF mirrors sampleRecords for the fuzz seed (fuzz targets
// cannot call testing.T helpers at seed time).
func sampleRecordsF() []trace.Record {
	return []trace.Record{
		{Kind: "access", Owner: 0, Rank: 1, Lo: 100, Hi: 107, Type: "rma_write", Epoch: 1, Time: 5, CallTime: 3, File: "halo.c", Line: 42},
		{Kind: "release", Owner: 0, Rank: 2},
		{Kind: "epoch_end", Owner: 0},
	}
}
