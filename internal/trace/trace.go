// Package trace records and replays streams of instrumented memory
// accesses. Traces decouple workload generation from analysis: the
// rmarace CLI can capture a simulated application's accesses once and
// replay them under every detector, which is also how the deterministic
// detector benchmarks are fed.
//
// Two wire formats carry the same records. The original format is JSON
// Lines: one Event per line, self-describing and diff-friendly, with a
// Header line (kind "header") opening the stream. Package
// internal/tracebin adds a length-prefixed varint binary format for
// multi-million-event traces; both implement the Source interface, and
// ReplayStream consumes either as a bounded-memory stream.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"rmarace/internal/access"
	"rmarace/internal/depot"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/obs/span"
)

// MaxRanks caps the world size a trace header may declare. Replay
// sizes per-rank state from the header before it reads a record — the
// MUST-RMA shared clock and the daemon's span rings — so both readers
// refuse a larger header. It is the largest world Generate can write;
// the 10,000-rank sweep traces fit.
const MaxRanks = 1 << 15

// Header opens a trace stream.
type Header struct {
	Kind string `json:"kind"` // always "header"
	// Ranks is the world size of the traced run.
	Ranks int `json:"ranks"`
	// Window names the traced window.
	Window string `json:"window"`
}

// Record is one traced event: an access, an epoch boundary, or a
// release (an exclusive MPI_Win_unlock retiring Rank's accesses at
// Owner's analyzer).
type Record struct {
	Kind string `json:"kind"` // "access", "epoch_end" or "release"
	// Owner is the rank whose per-window analyzer processes the record
	// (the window owner); Rank is the rank that issued the access (for
	// kind "release", the rank whose accesses are retired).
	Owner int `json:"owner"`
	Rank  int `json:"rank"`
	// Access fields (kind "access").
	Lo       uint64 `json:"lo,omitempty"`
	Hi       uint64 `json:"hi,omitempty"`
	Type     string `json:"type,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Stack    bool   `json:"stack,omitempty"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Time     uint64 `json:"time,omitempty"`
	CallTime uint64 `json:"call_time,omitempty"`
	Filtered bool   `json:"filtered,omitempty"`
	AccumOp  uint8  `json:"accum_op,omitempty"`
	// StackID is the access's interned call-stack id in the process-wide
	// stack depot (package depot), when the traced run captured stacks.
	// Depot ids are process-local: a replay resolves them only against
	// the depot of the capturing process, so cross-process replays treat
	// the id as an opaque site label.
	StackID uint32 `json:"stack_id,omitempty"`
}

// typeNames holds the wire name of each access type, indexed by type.
// It is the package's one list of them: TypeName, typeFromName and the
// JSON fast path's wireName all read it.
var typeNames = [...]string{
	access.LocalRead:  "local_read",
	access.LocalWrite: "local_write",
	access.RMARead:    "rma_read",
	access.RMAWrite:   "rma_write",
	access.RMAAccum:   "rma_accum",
}

func typeFromName(s string) (access.Type, error) {
	for t, n := range typeNames {
		if n == s {
			return access.Type(t), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown access type %q", s)
}

// TypeName returns the wire name of an access type ("rma_write", ...),
// or "" for an undefined type. The binary codec (internal/tracebin)
// maps between the JSON names and its one-byte type field through this
// pair so both formats stay mutually lossless.
func TypeName(t access.Type) string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return ""
}

// TypeFromName resolves a wire name back to its access type.
func TypeFromName(s string) (access.Type, error) { return typeFromName(s) }

// Sink is the record-writing side shared by both wire formats: the JSON
// Writer here and the binary tracebin.Writer. Generators (Generate, the
// fuzzer's reproducer writer, rmarace convert) target the interface so
// they can emit either format.
type Sink interface {
	// Access appends one access event analysed by owner's tree.
	Access(owner int, ev detector.Event) error
	// EpochEnd appends an epoch boundary for the given owner.
	EpochEnd(owner int) error
	// Release appends a release marker: an exclusive unlock by rank
	// retiring its accesses at owner's analyzer.
	Release(owner, rank int) error
	// Record appends a pre-built record verbatim.
	Record(rec Record) error
	// Flush flushes buffered output.
	Flush() error
}

// Writer serialises events to a JSON Lines stream.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter writes a trace with the given header to w.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h.Kind = "header"
	if err := enc.Encode(h); err != nil {
		return nil, err
	}
	return &Writer{w: bw, enc: enc}, nil
}

// AccessRecord builds the in-memory access record for one event,
// exactly as Access would serialise it. The differential fuzzer's
// renderer uses it to produce record streams without an encode/decode
// round trip.
func AccessRecord(owner int, ev detector.Event) Record {
	return Record{
		Kind:     "access",
		Owner:    owner,
		Rank:     ev.Acc.Rank,
		Lo:       ev.Acc.Lo,
		Hi:       ev.Acc.Hi,
		Type:     TypeName(ev.Acc.Type),
		Epoch:    ev.Acc.Epoch,
		Stack:    ev.Acc.Stack,
		File:     ev.Acc.Debug.File,
		Line:     ev.Acc.Debug.Line,
		Time:     ev.Time,
		CallTime: ev.CallTime,
		Filtered: ev.Filtered,
		AccumOp:  uint8(ev.Acc.AccumOp),
		StackID:  uint32(ev.Acc.StackID),
	}
}

// Access appends one access event analysed by owner's tree.
func (t *Writer) Access(owner int, ev detector.Event) error {
	return t.enc.Encode(AccessRecord(owner, ev))
}

// Record appends a pre-built record verbatim (the fuzzer's reproducer
// writer streams rendered records through this).
func (t *Writer) Record(rec Record) error { return t.enc.Encode(rec) }

// EpochEnd appends an epoch boundary for the given owner.
func (t *Writer) EpochEnd(owner int) error {
	return t.enc.Encode(Record{Kind: "epoch_end", Owner: owner})
}

// Release appends a release marker: an exclusive unlock by rank
// retiring its accesses at owner's analyzer.
func (t *Writer) Release(owner, rank int) error {
	return t.enc.Encode(Record{Kind: "release", Owner: owner, Rank: rank})
}

// Flush flushes buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

var _ Sink = (*Writer)(nil)

// Source is the streaming side shared by both wire formats: a trace
// header plus a cursor over its records. Read fills the caller's record
// in place so a replay loop runs on one reusable buffer; Pos locates
// the last-read record for error reports, and BytesRead feeds the
// ingest throughput metrics.
type Source interface {
	// Head returns the stream's header.
	Head() Header
	// Read decodes the next record into rec, returning io.EOF at the
	// end of the stream. Decode errors carry the record's position
	// (line or byte offset) in their message.
	Read(rec *Record) error
	// Pos describes the position of the record Read returned last
	// ("line 42", "record 17 (offset 1289)"), for error context.
	Pos() string
	// BytesRead returns how many input bytes have been consumed.
	BytesRead() int64
}

// Reader deserialises a JSON Lines trace stream. It reads line by line,
// so decode errors report the 1-based line (the header is line 1) and
// byte offset of the malformed record. Record lines in the shape Writer
// emits take a hand-written decoder (decodeLine) that allocates nothing
// in the steady state; every other line goes through encoding/json.
type Reader struct {
	r      *bufio.Reader
	Header Header
	line   int    // line number of the last record returned
	off    int64  // byte offset where the last record started
	read   int64  // total bytes consumed
	long   []byte // reassembles a line longer than r's buffer
	file   string // the last file name the fast path decoded
}

// NewReader opens a JSON trace stream and reads its header.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	raw, err := tr.nextLine()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: reading header: unexpected EOF")
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if err := json.Unmarshal(raw, &tr.Header); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if tr.Header.Kind != "header" {
		return nil, fmt.Errorf("trace: first record is %q, not a header", tr.Header.Kind)
	}
	if tr.Header.Ranks < 0 || tr.Header.Ranks > MaxRanks {
		return nil, fmt.Errorf("trace: header declares %d ranks, outside [0, %d]", tr.Header.Ranks, MaxRanks)
	}
	return tr, nil
}

// nextLine returns the next non-empty line, tracking position. The
// line aliases the reader's buffers and is valid until the next call.
func (r *Reader) nextLine() ([]byte, error) {
	for {
		r.off = r.read
		r.line++
		raw, err := r.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			r.long = append(r.long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = r.r.ReadSlice('\n')
				r.long = append(r.long, raw...)
			}
			raw = r.long
		}
		r.read += int64(len(raw))
		raw = bytes.TrimSpace(raw)
		if len(raw) > 0 {
			// A final line without a newline still decodes; a read error
			// after a partial line surfaces on the next call.
			return raw, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Head implements Source.
func (r *Reader) Head() Header { return r.Header }

// Read implements Source: it decodes the next record into rec, or
// returns io.EOF.
func (r *Reader) Read(rec *Record) error {
	raw, err := r.nextLine()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: line %d (offset %d): %w", r.line, r.off, err)
	}
	if r.decodeLine(raw, rec) {
		return nil
	}
	*rec = Record{}
	if err := json.Unmarshal(raw, rec); err != nil {
		return fmt.Errorf("trace: line %d (offset %d): %w", r.line, r.off, err)
	}
	return nil
}

// Next returns the next record, or io.EOF.
func (r *Reader) Next() (Record, error) {
	var rec Record
	err := r.Read(&rec)
	return rec, err
}

// Pos implements Source.
func (r *Reader) Pos() string { return fmt.Sprintf("line %d (offset %d)", r.line, r.off) }

// BytesRead implements Source.
func (r *Reader) BytesRead() int64 { return r.read }

var _ Source = (*Reader)(nil)

// RecordSource is an in-memory Source over a record slice, so rendered
// records (the differential fuzzer's subjects, the conformance corpus)
// replay through exactly the streaming path a recorded trace file uses.
// Read copies each record out, leaving the slice untouched. With no
// input bytes to count, BytesRead reports the records consumed.
type RecordSource struct {
	hdr  Header
	recs []Record
	i    int
}

// NewRecordSource returns a Source over recs with header h.
func NewRecordSource(h Header, recs []Record) *RecordSource {
	h.Kind = "header"
	return &RecordSource{hdr: h, recs: recs}
}

// Head implements Source.
func (s *RecordSource) Head() Header { return s.hdr }

// Read implements Source.
func (s *RecordSource) Read(rec *Record) error {
	if s.i >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.i]
	s.i++
	return nil
}

// Pos implements Source.
func (s *RecordSource) Pos() string { return fmt.Sprintf("record %d", s.i) }

// BytesRead implements Source.
func (s *RecordSource) BytesRead() int64 { return int64(s.i) }

var _ Source = (*RecordSource)(nil)

// Event converts an access record back to a detector event.
func (rec Record) Event() (detector.Event, error) {
	if rec.Kind != "access" {
		return detector.Event{}, fmt.Errorf("trace: record kind %q is not an access", rec.Kind)
	}
	t, err := typeFromName(rec.Type)
	if err != nil {
		return detector.Event{}, err
	}
	if rec.Hi < rec.Lo {
		return detector.Event{}, fmt.Errorf("trace: inverted interval [%d, %d]", rec.Lo, rec.Hi)
	}
	return detector.Event{
		Acc: access.Access{
			Interval: interval.New(rec.Lo, rec.Hi),
			Type:     t,
			Rank:     rec.Rank,
			Epoch:    rec.Epoch,
			Stack:    rec.Stack,
			StackID:  depot.ID(rec.StackID),
			AccumOp:  access.AccumOp(rec.AccumOp),
			Debug:    access.Debug{File: rec.File, Line: rec.Line},
		},
		Time:     rec.Time,
		CallTime: rec.CallTime,
		Filtered: rec.Filtered,
	}, nil
}

// replaySpanKind maps a replayed access type to its span kind.
func replaySpanKind(t access.Type) span.Kind {
	switch t {
	case access.RMAWrite:
		return span.KindPut
	case access.RMARead:
		return span.KindGet
	case access.RMAAccum:
		return span.KindAccum
	}
	return span.KindLocal
}
