package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// traceLines returns the record lines (header dropped, newline
// stripped) of a JSON trace.
func traceLines(t testing.TB, raw []byte) [][]byte {
	t.Helper()
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		out = append(out, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out[1:]
}

// FuzzJSONRecord checks the fast path against encoding/json: whenever
// decodeLine accepts a line, json.Unmarshal must decode the same line
// to an equal Record without error.
func FuzzJSONRecord(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Generate(&buf, GenConfig{
		Ranks: 4, Owners: 3, Events: 40, Epochs: 2, Adjacency: 0.5,
		WriteFraction: 0.5, PlantRace: true, Seed: 3,
	}); err != nil {
		f.Fatal(err)
	}
	for _, line := range traceLines(f, buf.Bytes()) {
		f.Add(line)
	}
	full, err := json.Marshal(Record{
		Kind: "access", Owner: math.MaxInt, Rank: -1, Lo: math.MaxUint64 - 1, Hi: math.MaxUint64,
		Type: "rma_accum", Epoch: 9, Stack: true, File: "dir/a b.c", Line: math.MinInt,
		Time: 12, CallTime: 11, Filtered: true, AccumOp: math.MaxUint8, StackID: math.MaxUint32,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	for _, tc := range nonCanonicalLines {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var r Reader
		var got Record
		for pass := 0; pass < 2; pass++ { // the second pass reuses the cached file name
			if !r.decodeLine(line, &got) {
				return
			}
			var want Record
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
			}
			if got != want {
				t.Fatalf("%q: fast path decoded %+v, encoding/json %+v", line, got, want)
			}
		}
	})
}

// nonCanonicalLines are record lines Writer never emits. Each must
// decode to exactly what encoding/json makes of it, record or error;
// fast says whether the hand-written decoder takes the line itself.
var nonCanonicalLines = []struct {
	name string
	line string
	fast bool
}{
	{"escaped file", `{"kind":"access","type":"rma_read","hi":1,"file":"a\"b\\cA.c"}`, false},
	{"non-ASCII file", `{"kind":"access","type":"rma_read","hi":1,"file":"héllo.c"}`, false},
	{"invalid UTF-8 file", "{\"kind\":\"access\",\"type\":\"rma_read\",\"file\":\"a\xffb\"}", false},
	{"control byte in file", "{\"kind\":\"access\",\"file\":\"a\tb\"}", false},
	{"case-folded key", `{"kind":"epoch_end","Owner":3}`, false},
	{"unknown key", `{"kind":"epoch_end","owner":3,"colour":"red"}`, false},
	{"escaped key", `{"kind":"epoch_end","\u006fwner":3}`, false},
	{"null value", `{"kind":"epoch_end","owner":null}`, false},
	{"null kind", `{"kind":null,"owner":2}`, false},
	{"exponent", `{"kind":"access","type":"rma_write","lo":1e3,"hi":2000}`, false},
	{"fraction", `{"kind":"epoch_end","owner":1.0}`, false},
	{"negative uint64", `{"kind":"access","type":"rma_write","lo":-1,"hi":2}`, false},
	{"negative zero uint64", `{"kind":"access","type":"rma_write","lo":-0}`, false},
	{"uint64 overflow", `{"kind":"access","hi":18446744073709551616}`, false},
	{"int overflow", `{"kind":"epoch_end","owner":9223372036854775808}`, false},
	{"int underflow", `{"kind":"epoch_end","owner":-9223372036854775809}`, false},
	{"uint8 overflow", `{"kind":"access","accum_op":256}`, false},
	{"uint32 overflow", `{"kind":"access","stack_id":4294967296}`, false},
	{"leading zero", `{"kind":"epoch_end","owner":01}`, false},
	{"quoted number", `{"kind":"epoch_end","owner":"1"}`, false},
	{"number as bool", `{"kind":"access","stack":1}`, false},
	{"trailing bytes", `{"kind":"epoch_end","owner":1}x`, false},
	{"second object", `{"kind":"epoch_end","owner":1} {"kind":"release"}`, false},
	{"trailing comma", `{"kind":"epoch_end","owner":1,}`, false},
	{"missing colon", `{"kind" "epoch_end"}`, false},
	{"unterminated", `{"kind":"epoch_end","owner":1`, false},
	{"not an object", `["epoch_end",1]`, false},
	{"bare string", `"epoch_end"`, false},
	{"nested object", `{"kind":"epoch_end","owner":{"id":1}}`, false},
	{"duplicate key", `{"kind":"epoch_end","owner":1,"owner":2}`, true},
	{"whitespace", "{ \"kind\" : \"release\" ,\t\"owner\":\r 4, \"rank\" :-0 }", false},
	{"space after colon", `{"kind": "release","owner":4}`, false},
	{"negative zero int", `{"kind":"release","owner":4,"rank":-0}`, true},
	{"empty object", `{}`, true},
	{"int bounds", `{"kind":"epoch_end","owner":9223372036854775807,"rank":-9223372036854775808}`, true},
	{"field bounds", `{"kind":"access","hi":18446744073709551615,"accum_op":255,"stack_id":4294967295}`, true},
	{"unknown kind", `{"kind":"checkpoint","owner":1}`, true},
}

// TestNonCanonicalLinesMatchEncodingJSON: every line of the table reads
// back as the record or error encoding/json produces for it, which is
// what Read returned for every line before the fast path existed.
func TestNonCanonicalLinesMatchEncodingJSON(t *testing.T) {
	const header = `{"kind":"header","ranks":4,"window":"w"}` + "\n"
	for _, tc := range nonCanonicalLines {
		t.Run(tc.name, func(t *testing.T) {
			var want Record
			wantErr := ""
			if err := json.Unmarshal([]byte(tc.line), &want); err != nil {
				wantErr = fmt.Sprintf("trace: line 2 (offset %d): %v", len(header), err)
			}
			r, err := NewReader(strings.NewReader(header + tc.line + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			got := Record{Kind: "stale", File: "stale.c"}
			err = r.Read(&got)
			switch {
			case wantErr != "":
				if err == nil || err.Error() != wantErr {
					t.Fatalf("Read error %v, want %s", err, wantErr)
				}
			case err != nil:
				t.Fatalf("Read: %v, encoding/json decodes %+v", err, want)
			case got != want:
				t.Fatalf("Read decoded %+v, encoding/json %+v", got, want)
			}
			var fresh Reader
			var rec Record
			if fast := fresh.decodeLine([]byte(tc.line), &rec); fast != tc.fast {
				t.Fatalf("fast path took the line: %v, want %v", fast, tc.fast)
			}
		})
	}
}

// TestJSONReaderSteadyStateAllocs: canonical records with a repeated
// file name decode with no allocation once the reader is warm.
func TestJSONReaderSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 8, Window: "w"})
	if err != nil {
		t.Fatal(err)
	}
	types := []string{"local_read", "local_write", "rma_read", "rma_write", "rma_accum"}
	for i := 0; i < 256; i++ {
		rec := Record{
			Kind: "access", Owner: i % 4, Rank: i % 8,
			Lo: uint64(i * 8), Hi: uint64(i*8 + 7), Type: types[i%len(types)],
			Epoch: 1, Stack: i%2 == 0, File: "a.c", Line: i, Time: uint64(i + 1),
			CallTime: uint64(i), Filtered: i%3 == 0, StackID: uint32(i),
		}
		if rec.Type == "rma_accum" {
			rec.AccumOp = 1
		}
		if err := w.Record(rec); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			if err := w.EpochEnd(i % 4); err != nil {
				t.Fatal(err)
			}
			if err := w.Release(i%4, i%8); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	// Warm up: the first access caches "a.c".
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

// TestJSONReaderLongLines: a record line longer than the reader's 64 KiB
// buffer decodes whole, positions stay exact around it, and a malformed
// long line still reports its line and offset.
func TestJSONReaderLongLines(t *testing.T) {
	long := strings.Repeat("d/", 40_000) + "a.c"
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Ranks: 2, Window: "w"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: "access", Owner: 1, Lo: 8, Hi: 15, Type: "rma_write", File: long, Line: 3},
		{Kind: "access", Owner: 1, Lo: 16, Hi: 23, Type: "rma_write", File: long, Line: 4},
		{Kind: "epoch_end", Owner: 1},
	}
	for _, rec := range recs {
		if err := w.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	total := int64(buf.Len())
	lines := traceLines(t, buf.Bytes())
	if len(lines[0]) <= 1<<16 {
		t.Fatalf("test line is %d bytes, not longer than the buffer", len(lines[0]))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		var got Record
		if err := r.Read(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: decoded %+v", i, got)
		}
	}
	if err := r.Read(new(Record)); err != io.EOF {
		t.Fatalf("after the last record: %v, want EOF", err)
	}
	if r.BytesRead() != total {
		t.Fatalf("BytesRead %d, want %d", r.BytesRead(), total)
	}

	// Line 3 is malformed: the long line with a trailing comma.
	const header = `{"kind":"header","ranks":2,"window":"w"}` + "\n"
	first := string(lines[0]) + "\n"
	bad := strings.TrimSuffix(string(lines[1]), "}") + ",}"
	r, err = NewReader(strings.NewReader(header + first + bad + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Read(new(Record)); err != nil {
		t.Fatal(err)
	}
	err = r.Read(new(Record))
	pos := fmt.Sprintf("line 3 (offset %d)", len(header)+len(first))
	if err == nil || !strings.Contains(err.Error(), pos) {
		t.Fatalf("malformed long line: error %v, want it to name %s", err, pos)
	}
}
