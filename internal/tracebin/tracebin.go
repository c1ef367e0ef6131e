// Package tracebin is the binary wire format of package trace: a
// length-prefixed, varint-encoded, append-only record stream built for
// multi-million-event traces where the JSON Lines format's parse cost
// and size dominate ingest.
//
// Layout:
//
//	header   := magic "RMTB" | version u8 | ranks uvarint
//	            | len(window) uvarint | window bytes
//	stream   := header record*
//	record   := len(payload) uvarint | payload
//	payload  := kind u8 | body
//
//	access   := flags u8 | owner uvarint | rank uvarint
//	            | lo uvarint | hi-lo uvarint | type u8
//	            | epoch uvarint | time uvarint | call_time uvarint
//	            | accum_op u8 | stack_id uvarint
//	            | file_id uvarint | line uvarint
//	epochEnd := owner uvarint
//	release  := owner uvarint | rank uvarint
//	fileDef  := id uvarint | len(name) uvarint | name bytes
//	complete := owner uvarint | rank uvarint
//	            | lo uvarint | hi-lo uvarint
//
// File names are interned in a string table: the first access citing a
// file is preceded by a fileDef record assigning it the next id (ids
// start at 1; 0 means "no file"), and every later access cites the id.
// The access flags byte packs the two booleans (bit 0 Stack, bit 1
// Filtered). All uvarints are unsigned LEB128 (encoding/binary); the
// interval's upper bound is delta-encoded against the lower, so the
// short per-element accesses that dominate real traces stay one byte.
//
// The Reader is a zero-allocation streaming decoder over a bufio.Reader:
// one reusable payload buffer, the interned file-name table, and
// constant strings for kinds and access types — steady-state Read calls
// allocate nothing. Both Reader and Writer implement the trace.Source /
// trace.Sink interfaces, so replay, generation and conversion code is
// format-agnostic; Open sniffs the magic and returns the right Source
// for either format.
package tracebin

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"rmarace/internal/detector"
	"rmarace/internal/trace"
)

// Magic opens every binary trace stream.
var Magic = [4]byte{'R', 'M', 'T', 'B'}

// Version is the current wire version byte.
const Version = 1

// Record kind bytes.
const (
	kindAccess   = 0
	kindEpochEnd = 1
	kindRelease  = 2
	kindFileDef  = 3
	kindComplete = 4
)

// maxPayload caps one record's payload so a corrupt length prefix
// cannot force a huge allocation; real records are tens of bytes, and
// the largest legitimate payload is a fileDef carrying a path.
const maxPayload = 1 << 20

// accessTypeCodes maps the JSON wire names to their one-byte codes and
// back. Code 0 is reserved (no type) so a zeroed payload never decodes
// to a valid access.
var accessTypeNames = [...]string{
	1: "local_read",
	2: "local_write",
	3: "rma_read",
	4: "rma_write",
	5: "rma_accum",
}

func accessTypeCode(name string) (byte, bool) {
	for c := 1; c < len(accessTypeNames); c++ {
		if accessTypeNames[c] == name {
			return byte(c), true
		}
	}
	return 0, false
}

// Access flag bits.
const (
	flagStack    = 1 << 0
	flagFiltered = 1 << 1
)

// Writer serialises records to the binary stream. It implements
// trace.Sink.
type Writer struct {
	w       *bufio.Writer
	files   map[string]uint64
	scratch []byte // payload assembly buffer, reused across records
	lenBuf  [binary.MaxVarintLen64]byte
}

// NewWriter writes a binary trace with the given header to w.
func NewWriter(w io.Writer, h trace.Header) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(Version); err != nil {
		return nil, err
	}
	t := &Writer{w: bw, files: make(map[string]uint64)}
	t.scratch = binary.AppendUvarint(t.scratch[:0], uint64(h.Ranks))
	t.scratch = binary.AppendUvarint(t.scratch, uint64(len(h.Window)))
	t.scratch = append(t.scratch, h.Window...)
	if _, err := bw.Write(t.scratch); err != nil {
		return nil, err
	}
	return t, nil
}

// writeRecord emits one length-prefixed payload.
func (t *Writer) writeRecord(payload []byte) error {
	n := binary.PutUvarint(t.lenBuf[:], uint64(len(payload)))
	if _, err := t.w.Write(t.lenBuf[:n]); err != nil {
		return err
	}
	_, err := t.w.Write(payload)
	return err
}

// fileID interns a file name, emitting its fileDef record on first use.
// Id 0 means "no file".
func (t *Writer) fileID(name string) (uint64, error) {
	if name == "" {
		return 0, nil
	}
	if id, ok := t.files[name]; ok {
		return id, nil
	}
	id := uint64(len(t.files) + 1)
	t.files[name] = id
	p := append(t.scratch[:0], kindFileDef)
	p = binary.AppendUvarint(p, id)
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	t.scratch = p[:0]
	return id, t.writeRecord(p)
}

// Record implements trace.Sink: it appends a pre-built record.
func (t *Writer) Record(rec trace.Record) error {
	switch rec.Kind {
	case "access":
		code, ok := accessTypeCode(rec.Type)
		if !ok {
			return fmt.Errorf("tracebin: unknown access type %q", rec.Type)
		}
		if rec.Hi < rec.Lo {
			return fmt.Errorf("tracebin: inverted interval [%d, %d]", rec.Lo, rec.Hi)
		}
		fid, err := t.fileID(rec.File)
		if err != nil {
			return err
		}
		var flags byte
		if rec.Stack {
			flags |= flagStack
		}
		if rec.Filtered {
			flags |= flagFiltered
		}
		p := append(t.scratch[:0], kindAccess, flags)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		p = binary.AppendUvarint(p, uint64(rec.Rank))
		p = binary.AppendUvarint(p, rec.Lo)
		p = binary.AppendUvarint(p, rec.Hi-rec.Lo)
		p = append(p, code)
		p = binary.AppendUvarint(p, rec.Epoch)
		p = binary.AppendUvarint(p, rec.Time)
		p = binary.AppendUvarint(p, rec.CallTime)
		p = append(p, rec.AccumOp)
		p = binary.AppendUvarint(p, uint64(rec.StackID))
		p = binary.AppendUvarint(p, fid)
		p = binary.AppendUvarint(p, uint64(rec.Line))
		t.scratch = p[:0]
		return t.writeRecord(p)
	case "epoch_end":
		p := append(t.scratch[:0], kindEpochEnd)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		t.scratch = p[:0]
		return t.writeRecord(p)
	case "release":
		p := append(t.scratch[:0], kindRelease)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		p = binary.AppendUvarint(p, uint64(rec.Rank))
		t.scratch = p[:0]
		return t.writeRecord(p)
	case "complete":
		if rec.Hi < rec.Lo {
			return fmt.Errorf("tracebin: inverted interval [%d, %d]", rec.Lo, rec.Hi)
		}
		p := append(t.scratch[:0], kindComplete)
		p = binary.AppendUvarint(p, uint64(rec.Owner))
		p = binary.AppendUvarint(p, uint64(rec.Rank))
		p = binary.AppendUvarint(p, rec.Lo)
		p = binary.AppendUvarint(p, rec.Hi-rec.Lo)
		t.scratch = p[:0]
		return t.writeRecord(p)
	}
	return fmt.Errorf("tracebin: unknown record kind %q", rec.Kind)
}

// Access implements trace.Sink.
func (t *Writer) Access(owner int, ev detector.Event) error {
	return t.Record(trace.AccessRecord(owner, ev))
}

// EpochEnd implements trace.Sink.
func (t *Writer) EpochEnd(owner int) error {
	return t.Record(trace.Record{Kind: "epoch_end", Owner: owner})
}

// Release implements trace.Sink.
func (t *Writer) Release(owner, rank int) error {
	return t.Record(trace.Record{Kind: "release", Owner: owner, Rank: rank})
}

// Flush implements trace.Sink.
func (t *Writer) Flush() error { return t.w.Flush() }

var _ trace.Sink = (*Writer)(nil)

// Reader is the zero-allocation streaming decoder. It implements
// trace.Source.
type Reader struct {
	r     *bufio.Reader
	hdr   trace.Header
	files []string // id-1 indexed intern table
	buf   []byte   // reusable payload buffer
	recN  int      // 1-based index of the last record returned
	off   int64    // byte offset where the last record started
	read  int64    // total bytes consumed
}

// NewReader opens a binary trace stream and decodes its header.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	t := &Reader{r: br}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tracebin: reading magic: %w", eofIsUnexpected(err))
	}
	t.read += 4
	if magic != Magic {
		return nil, fmt.Errorf("tracebin: bad magic %q (want %q)", magic[:], Magic[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("tracebin: reading version: %w", eofIsUnexpected(err))
	}
	t.read++
	if ver != Version {
		return nil, fmt.Errorf("tracebin: unsupported version %d (have %d)", ver, Version)
	}
	ranks, err := t.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("tracebin: reading header ranks: %w", err)
	}
	if ranks > trace.MaxRanks {
		return nil, fmt.Errorf("tracebin: header declares %d ranks, above the cap of %d", ranks, trace.MaxRanks)
	}
	wlen, err := t.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("tracebin: reading header window: %w", err)
	}
	if wlen > maxPayload {
		return nil, fmt.Errorf("tracebin: header window length %d exceeds limit %d", wlen, maxPayload)
	}
	win := make([]byte, wlen)
	if _, err := io.ReadFull(br, win); err != nil {
		return nil, fmt.Errorf("tracebin: reading header window: %w", eofIsUnexpected(err))
	}
	t.read += int64(wlen)
	t.hdr = trace.Header{Kind: "header", Ranks: int(ranks), Window: string(win)}
	return t, nil
}

// eofIsUnexpected maps a bare io.EOF to io.ErrUnexpectedEOF: the callers
// are mid-structure, where a clean EOF is still a truncation.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readUvarint reads one LEB128 varint off the stream, tracking consumed
// bytes and rejecting encodings longer than 64 bits.
func (t *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := t.r.ReadByte()
		if err != nil {
			return 0, eofIsUnexpected(err)
		}
		t.read++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("varint overflows 64 bits")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("varint overflows 64 bits")
}

// Head implements trace.Source.
func (t *Reader) Head() trace.Header { return t.hdr }

// Pos implements trace.Source.
func (t *Reader) Pos() string { return fmt.Sprintf("record %d (offset %d)", t.recN, t.off) }

// BytesRead implements trace.Source.
func (t *Reader) BytesRead() int64 { return t.read }

// errAt wraps a decode error with the current record's position.
func (t *Reader) errAt(err error) error {
	return fmt.Errorf("tracebin: %s: %w", t.Pos(), err)
}

// Read implements trace.Source: it decodes the next record into rec, or
// returns io.EOF at a clean record boundary. fileDef records are
// interned transparently; decode errors carry the record index and byte
// offset and a truncated stream reports io.ErrUnexpectedEOF, never a
// bare EOF.
func (t *Reader) Read(rec *trace.Record) error {
	for {
		t.off = t.read
		t.recN++
		// A clean EOF is only legal before the length prefix's first byte.
		if _, err := t.r.Peek(1); err != nil {
			if err == io.EOF {
				t.recN--
				return io.EOF
			}
			return t.errAt(err)
		}
		plen, err := t.readUvarint()
		if err != nil {
			return t.errAt(fmt.Errorf("record length: %w", err))
		}
		if plen > maxPayload {
			return t.errAt(fmt.Errorf("record length %d exceeds limit %d", plen, maxPayload))
		}
		if plen == 0 {
			return t.errAt(fmt.Errorf("empty record"))
		}
		if uint64(cap(t.buf)) < plen {
			t.buf = make([]byte, plen)
		}
		p := t.buf[:plen]
		if _, err := io.ReadFull(t.r, p); err != nil {
			return t.errAt(fmt.Errorf("record payload: %w", eofIsUnexpected(err)))
		}
		t.read += int64(plen)
		kind := p[0]
		if kind == kindFileDef {
			if err := t.internFile(p[1:]); err != nil {
				return t.errAt(err)
			}
			continue
		}
		if err := t.decode(kind, p[1:], rec); err != nil {
			return t.errAt(err)
		}
		return nil
	}
}

// internFile decodes a fileDef payload into the string table.
func (t *Reader) internFile(p []byte) error {
	d := payload(p)
	id, err := d.uvarint("file id")
	if err != nil {
		return err
	}
	if id != uint64(len(t.files)+1) {
		return fmt.Errorf("file id %d out of sequence (want %d)", id, len(t.files)+1)
	}
	nlen, err := d.uvarint("file name length")
	if err != nil {
		return err
	}
	if uint64(len(d)) != nlen {
		return fmt.Errorf("file name length %d does not match payload (%d bytes left)", nlen, len(d))
	}
	t.files = append(t.files, string(d))
	return nil
}

// decode fills rec from one record payload body.
func (t *Reader) decode(kind byte, p []byte, rec *trace.Record) error {
	*rec = trace.Record{}
	d := payload(p)
	switch kind {
	case kindAccess:
		if len(d) < 1 {
			return fmt.Errorf("access record truncated before flags")
		}
		flags := d[0]
		d = d[1:]
		rec.Kind = "access"
		rec.Stack = flags&flagStack != 0
		rec.Filtered = flags&flagFiltered != 0
		owner, err := d.uvarint("owner")
		if err != nil {
			return err
		}
		rank, err := d.uvarint("rank")
		if err != nil {
			return err
		}
		rec.Owner, rec.Rank = int(owner), int(rank)
		if rec.Lo, err = d.uvarint("lo"); err != nil {
			return err
		}
		span, err := d.uvarint("interval span")
		if err != nil {
			return err
		}
		rec.Hi = rec.Lo + span
		if rec.Hi < rec.Lo {
			return fmt.Errorf("interval span %d overflows from lo %d", span, rec.Lo)
		}
		if len(d) < 1 {
			return fmt.Errorf("access record truncated before type")
		}
		code := d[0]
		d = d[1:]
		if int(code) >= len(accessTypeNames) || code == 0 {
			return fmt.Errorf("unknown access type code %d", code)
		}
		rec.Type = accessTypeNames[code]
		if rec.Epoch, err = d.uvarint("epoch"); err != nil {
			return err
		}
		if rec.Time, err = d.uvarint("time"); err != nil {
			return err
		}
		if rec.CallTime, err = d.uvarint("call time"); err != nil {
			return err
		}
		if len(d) < 1 {
			return fmt.Errorf("access record truncated before accum op")
		}
		rec.AccumOp = d[0]
		d = d[1:]
		sid, err := d.uvarint("stack id")
		if err != nil {
			return err
		}
		rec.StackID = uint32(sid)
		fid, err := d.uvarint("file id")
		if err != nil {
			return err
		}
		if fid > uint64(len(t.files)) {
			return fmt.Errorf("file id %d cites an undefined file (table has %d)", fid, len(t.files))
		}
		if fid > 0 {
			rec.File = t.files[fid-1]
		}
		line, err := d.uvarint("line")
		if err != nil {
			return err
		}
		rec.Line = int(line)
	case kindEpochEnd:
		rec.Kind = "epoch_end"
		owner, err := d.uvarint("owner")
		if err != nil {
			return err
		}
		rec.Owner = int(owner)
	case kindRelease:
		rec.Kind = "release"
		owner, err := d.uvarint("owner")
		if err != nil {
			return err
		}
		rank, err := d.uvarint("rank")
		if err != nil {
			return err
		}
		rec.Owner, rec.Rank = int(owner), int(rank)
	case kindComplete:
		rec.Kind = "complete"
		owner, err := d.uvarint("owner")
		if err != nil {
			return err
		}
		rank, err := d.uvarint("rank")
		if err != nil {
			return err
		}
		rec.Owner, rec.Rank = int(owner), int(rank)
		if rec.Lo, err = d.uvarint("lo"); err != nil {
			return err
		}
		span, err := d.uvarint("interval span")
		if err != nil {
			return err
		}
		rec.Hi = rec.Lo + span
		if rec.Hi < rec.Lo {
			return fmt.Errorf("interval span %d overflows from lo %d", span, rec.Lo)
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	if len(d) > 0 {
		return fmt.Errorf("%d trailing bytes after record body", len(d))
	}
	return nil
}

// payload is a cursor over one record's body; its uvarint method
// consumes from the front with field-named errors.
type payload []byte

func (d *payload) uvarint(field string) (uint64, error) {
	x, n := binary.Uvarint(*d)
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("%s: record truncated mid-varint", field)
		}
		return 0, fmt.Errorf("%s: varint overflows 64 bits", field)
	}
	*d = (*d)[n:]
	return x, nil
}

var _ trace.Source = (*Reader)(nil)

// Open sniffs r's leading bytes and returns the matching trace source:
// a binary Reader when the stream opens with the RMTB magic, the JSON
// Lines reader otherwise. format reports which was chosen ("bin" or
// "json").
func Open(r io.Reader) (src trace.Source, format string, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, "", fmt.Errorf("tracebin: sniffing format: %w", err)
	}
	if bytes.Equal(head, Magic[:]) {
		tr, err := NewReader(br)
		return tr, "bin", err
	}
	tr, err := trace.NewReader(br)
	return tr, "json", err
}

// Convert streams every record of src into dst and flushes, returning
// the number of records copied. Both formats implement the interfaces,
// so the same call converts JSON→binary, binary→JSON, or either to
// itself (a canonicalising copy). Conversion is lossless: every field
// of every record round-trips bit-identically.
func Convert(dst trace.Sink, src trace.Source) (int64, error) {
	var n int64
	var rec trace.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if err := dst.Record(rec); err != nil {
			return n, err
		}
		n++
	}
	return n, dst.Flush()
}
