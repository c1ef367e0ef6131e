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
// The Reader is a zero-allocation streaming decoder: records decode in
// place from one input window refilled from the source, each body in
// one loop over its fixed field layout, with the interned file-name
// table and constant strings for kinds and access types — steady-state
// Read calls allocate nothing. Both Reader and Writer implement the
// trace.Source / trace.Sink interfaces, so replay, generation and
// conversion code is format-agnostic; Open sniffs the magic and returns
// the right Source for either format.
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
//
// Every record is decoded in place from one input window: win[pos:end]
// holds bytes read from src and not yet decoded. A record that is not
// wholly buffered triggers a refill, which slides the undecoded tail to
// the window's front and, for a record larger than the whole window,
// grows the window up to maxPayload.
type Reader struct {
	src      io.Reader
	win      []byte
	pos, end int
	err      error // src's sticky error; io.EOF once it is exhausted
	hdr      trace.Header
	files    []string // id-1 indexed intern table
	recN     int      // 1-based index of the last record returned
	off      int64    // byte offset where the last record started
	read     int64    // total bytes consumed
}

// windowSize is the input window's initial size: one refill holds
// thousands of typical records.
const windowSize = 1 << 16

// maxEmptyReads is how many consecutive empty reads from the source a
// refill tolerates before failing with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// NewReader opens a binary trace stream and decodes its header.
func NewReader(r io.Reader) (*Reader, error) {
	t := &Reader{src: r, win: make([]byte, windowSize)}
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

// readHeader decodes the stream header off the window's front.
func (t *Reader) readHeader() error {
	if !t.fill(len(Magic)) {
		return fmt.Errorf("tracebin: reading magic: %w", eofIsUnexpected(t.err))
	}
	magic := t.take(len(Magic))
	if !bytes.Equal(magic, Magic[:]) {
		return fmt.Errorf("tracebin: bad magic %q (want %q)", magic, Magic[:])
	}
	if !t.fill(1) {
		return fmt.Errorf("tracebin: reading version: %w", eofIsUnexpected(t.err))
	}
	if ver := t.take(1)[0]; ver != Version {
		return fmt.Errorf("tracebin: unsupported version %d (have %d)", ver, Version)
	}
	ranks, err := t.uvarint()
	if err != nil {
		return fmt.Errorf("tracebin: reading header ranks: %w", err)
	}
	if ranks > trace.MaxRanks {
		return fmt.Errorf("tracebin: header declares %d ranks, above the cap of %d", ranks, trace.MaxRanks)
	}
	wlen, err := t.uvarint()
	if err != nil {
		return fmt.Errorf("tracebin: reading header window: %w", err)
	}
	if wlen > maxPayload {
		return fmt.Errorf("tracebin: header window length %d exceeds limit %d", wlen, maxPayload)
	}
	if !t.fill(int(wlen)) {
		return fmt.Errorf("tracebin: reading header window: %w", eofIsUnexpected(t.err))
	}
	t.hdr = trace.Header{Kind: "header", Ranks: int(ranks), Window: string(t.take(int(wlen)))}
	return nil
}

// eofIsUnexpected maps a bare io.EOF to io.ErrUnexpectedEOF: the callers
// are mid-structure, where a clean EOF is still a truncation.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// fill reads from src until at least n undecoded bytes are buffered,
// and reports whether they are; false means src failed first (t.err).
// n must not exceed maxPayload. Decoded bytes before pos may be
// overwritten, so slices of the window die at the next fill.
func (t *Reader) fill(n int) bool {
	for empty := 0; t.end-t.pos < n; {
		if t.err != nil {
			return false
		}
		if len(t.win)-t.pos < n {
			win := t.win
			if len(win) < n {
				win = make([]byte, min(max(2*len(win), n), maxPayload))
			}
			t.end = copy(win, t.win[t.pos:t.end])
			t.pos = 0
			t.win = win
		}
		m, err := t.src.Read(t.win[t.end:])
		t.end += m
		if err != nil {
			t.err = err
		} else if m > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads {
			t.err = io.ErrNoProgress
		}
	}
	return true
}

// take consumes n buffered bytes and returns them, aliasing the window.
func (t *Reader) take(n int) []byte {
	b := t.win[t.pos : t.pos+n]
	t.pos += n
	t.read += int64(n)
	return b
}

// uvarint consumes one LEB128 varint off the stream, refilling only as
// far as its bytes reach. Like a byte-at-a-time reader it fails with an
// overflow once ten bytes carry no terminator, and with a truncation
// when the stream ends first.
func (t *Reader) uvarint() (uint64, error) {
	for {
		buf := t.win[t.pos:t.end]
		x, n := binary.Uvarint(buf)
		if n > 0 {
			t.take(n)
			return x, nil
		}
		if n < 0 || len(buf) >= binary.MaxVarintLen64 {
			t.take(binary.MaxVarintLen64)
			return 0, fmt.Errorf("varint overflows 64 bits")
		}
		if !t.fill(len(buf) + 1) {
			t.take(len(buf))
			return 0, eofIsUnexpected(t.err)
		}
	}
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
		p, err := t.next()
		if err != nil {
			return err
		}
		switch kind, body := p[0], p[1:]; kind {
		case kindAccess:
			err = t.decodeAccess(body, rec)
		case kindFileDef:
			if err := t.internFile(body); err != nil {
				return t.errAt(err)
			}
			continue
		default:
			err = decodeSync(kind, body, rec)
		}
		if err != nil {
			return t.errAt(err)
		}
		return nil
	}
}

// next frames the next record and returns its non-empty payload, which
// aliases the window until the following call.
func (t *Reader) next() ([]byte, error) {
	// The common case: a one-byte length and the whole record buffered.
	if buf := t.win[t.pos:t.end]; len(buf) > 0 {
		if n := int(buf[0]); n > 0 && n < 0x80 && n < len(buf) {
			return t.take(1 + n)[1:], nil
		}
	}
	// A clean EOF is only legal before the length prefix's first byte.
	if !t.fill(1) {
		if t.err == io.EOF {
			t.recN--
			return nil, io.EOF
		}
		return nil, t.errAt(t.err)
	}
	plen, err := t.uvarint()
	if err != nil {
		return nil, t.errAt(fmt.Errorf("record length: %w", err))
	}
	if plen > maxPayload {
		return nil, t.errAt(fmt.Errorf("record length %d exceeds limit %d", plen, maxPayload))
	}
	if plen == 0 {
		return nil, t.errAt(fmt.Errorf("empty record"))
	}
	if !t.fill(int(plen)) {
		return nil, t.errAt(fmt.Errorf("record payload: %w", eofIsUnexpected(t.err)))
	}
	return t.take(int(plen)), nil
}

// A layout is a record body's wire layout: its field names in order,
// and a mask of the fields that are one raw byte; the rest are uvarints.
type layout struct {
	names []string
	raw   uint32
}

// The access body's fields, as indexes into accessLayout.
const (
	aFlags = iota
	aOwner
	aRank
	aLo
	aSpan
	aType
	aEpoch
	aTime
	aCallTime
	aAccumOp
	aStackID
	aFileID
	aLine
	accessFields
)

var (
	accessLayout = layout{
		names: []string{"flags", "owner", "rank", "lo", "interval span", "type",
			"epoch", "time", "call time", "accum op", "stack id", "file id", "line"},
		raw: 1<<aFlags | 1<<aType | 1<<aAccumOp,
	}
	// syncLayout is the body of the synchronisation records: epoch_end
	// carries its first field, release its first two, complete all four.
	syncLayout    = layout{names: []string{"owner", "rank", "lo", "interval span"}}
	fileDefLayout = layout{names: []string{"file id", "file name length"}}
)

// decode reads l's fields off the front of p into v in one pass,
// decoding one-byte varints inline. It returns how many fields it
// decoded, the bytes after them, and, if it stopped early, an error
// naming the field it stopped at.
func (l layout) decode(p []byte, v []uint64) (int, []byte, error) {
	i := 0
	for f := range l.names {
		if i < len(p) && (p[i] < 0x80 || l.raw&(1<<f) != 0) {
			v[f] = uint64(p[i])
			i++
			continue
		}
		if l.raw&(1<<f) != 0 {
			return f, nil, fmt.Errorf("access record truncated before %s", l.names[f])
		}
		x, n := binary.Uvarint(p[i:])
		if n == 0 {
			return f, nil, fmt.Errorf("%s: record truncated mid-varint", l.names[f])
		}
		if n < 0 {
			return f, nil, fmt.Errorf("%s: varint overflows 64 bits", l.names[f])
		}
		v[f] = x
		i += n
	}
	return len(l.names), p[i:], nil
}

// trailing reports bytes left after a record body.
func trailing(rest []byte) error {
	return fmt.Errorf("%d trailing bytes after record body", len(rest))
}

// decodeAccess fills rec from an access body.
func (t *Reader) decodeAccess(p []byte, rec *trace.Record) error {
	var v [accessFields]uint64
	n, rest, err := accessLayout.decode(p, v[:])
	// The fields decoded before a framing error are checked first, so
	// errors keep the body's wire order.
	if n > aSpan && v[aLo]+v[aSpan] < v[aLo] {
		return fmt.Errorf("interval span %d overflows from lo %d", v[aSpan], v[aLo])
	}
	if n > aType && (v[aType] == 0 || v[aType] >= uint64(len(accessTypeNames))) {
		return fmt.Errorf("unknown access type code %d", v[aType])
	}
	if n > aFileID && v[aFileID] > uint64(len(t.files)) {
		return fmt.Errorf("file id %d cites an undefined file (table has %d)", v[aFileID], len(t.files))
	}
	if err != nil {
		return err
	}
	if len(rest) > 0 {
		return trailing(rest)
	}
	// Field by field, every one of them: a composite literal would be
	// built in a temporary and copied.
	rec.Kind, rec.Owner, rec.Rank = "access", int(v[aOwner]), int(v[aRank])
	rec.Lo, rec.Hi, rec.Type = v[aLo], v[aLo]+v[aSpan], accessTypeNames[v[aType]]
	rec.Epoch, rec.Time, rec.CallTime = v[aEpoch], v[aTime], v[aCallTime]
	rec.Stack, rec.Filtered = v[aFlags]&flagStack != 0, v[aFlags]&flagFiltered != 0
	rec.StackID, rec.Line, rec.AccumOp = uint32(v[aStackID]), int(v[aLine]), byte(v[aAccumOp])
	rec.File = ""
	if fid := v[aFileID]; fid > 0 {
		rec.File = t.files[fid-1]
	}
	return nil
}

// decodeSync fills rec from an epoch_end, release or complete body.
func decodeSync(kind byte, p []byte, rec *trace.Record) error {
	l := syncLayout
	var name string
	switch kind {
	case kindEpochEnd:
		name, l.names = "epoch_end", l.names[:1]
	case kindRelease:
		name, l.names = "release", l.names[:2]
	case kindComplete:
		name = "complete"
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	var v [4]uint64
	_, rest, err := l.decode(p, v[:])
	if err != nil {
		return err
	}
	lo, hi := v[2], v[2]+v[3]
	if hi < lo {
		return fmt.Errorf("interval span %d overflows from lo %d", v[3], lo)
	}
	if len(rest) > 0 {
		return trailing(rest)
	}
	*rec = trace.Record{Kind: name, Owner: int(v[0]), Rank: int(v[1]), Lo: lo, Hi: hi}
	return nil
}

// internFile decodes a fileDef body into the string table.
func (t *Reader) internFile(p []byte) error {
	var v [2]uint64
	n, name, err := fileDefLayout.decode(p, v[:])
	if n > 0 && v[0] != uint64(len(t.files)+1) {
		return fmt.Errorf("file id %d out of sequence (want %d)", v[0], len(t.files)+1)
	}
	if err != nil {
		return err
	}
	if uint64(len(name)) != v[1] {
		return fmt.Errorf("file name length %d does not match payload (%d bytes left)", v[1], len(name))
	}
	t.files = append(t.files, string(name))
	return nil
}

var _ trace.Source = (*Reader)(nil)

// Open sniffs r's leading bytes and returns the matching trace source:
// a binary Reader when the stream opens with the RMTB magic, the JSON
// Lines reader otherwise. format reports which was chosen ("bin" or
// "json"). The sniff reads into the binary Reader's window, which the
// JSON reader re-reads before the rest of r.
func Open(r io.Reader) (src trace.Source, format string, err error) {
	t := &Reader{src: r, win: make([]byte, windowSize)}
	if !t.fill(len(Magic)) && t.err != io.EOF {
		return nil, "", fmt.Errorf("tracebin: sniffing format: %w", t.err)
	}
	head := t.win[t.pos:t.end]
	if bytes.HasPrefix(head, Magic[:]) {
		if err := t.readHeader(); err != nil {
			return nil, "bin", err
		}
		return t, "bin", nil
	}
	rest := r
	if t.err != nil {
		rest = failedReader{t.err}
	}
	tr, err := trace.NewReader(io.MultiReader(bytes.NewReader(head), rest))
	if err != nil {
		return nil, "json", err
	}
	return tr, "json", nil
}

// failedReader stands in for a source that has already returned err.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

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
