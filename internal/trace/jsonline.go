package trace

import "math"

// decodeLine decodes one record line in the compact shape Writer emits
// into rec, reporting whether it could. The fast path accepts a flat
// object with no whitespace whose keys are Record's 15 JSON names
// spelled exactly, whose strings are printable ASCII without escapes,
// and whose values are integers in range for their field
// (-?(0|[1-9][0-9]*)) or true/false; a repeated key overwrites, as
// with encoding/json. Any other line — whitespace, escapes, non-ASCII,
// unknown or case-folded keys, null, floats, overflow, syntax errors —
// reports false with rec partly written, and Read decodes it with
// encoding/json instead, so unusual input gets exactly encoding/json's
// record or error.
//
// Kind and type names come back as constant strings and a file name
// equal to the previous one reuses its string, so a steady-state
// record allocates nothing.
func (r *Reader) decodeLine(b []byte, rec *Record) bool {
	*rec = Record{}
	end := len(b) - 1 // the closing brace
	if end < 1 || b[0] != '{' || b[end] != '}' {
		return false
	}
	if end == 1 {
		return true
	}
	b = b[:end]
	for i := 1; ; i++ {
		// A key that matches a field name has no escapes, so its
		// closing quote is the next one.
		if i == end || b[i] != '"' {
			return false
		}
		k := i + 1
		for k < end && b[k] != '"' {
			k++
		}
		if k+1 >= end || b[k+1] != ':' {
			return false
		}
		if i = r.decodeField(b, k+2, b[i+1:k], rec); i < 0 {
			return false
		}
		if i == end {
			return true
		}
		if b[i] != ',' {
			return false
		}
	}
}

// decodeField decodes the value of key at b[i:] into rec and returns
// the index after it, or -1 for an unknown key or a value outside the
// fast path.
func (r *Reader) decodeField(b []byte, i int, key []byte, rec *Record) int {
	var v uint64
	var s []byte
	switch string(key) {
	case "kind":
		s, i = quoted(b, i)
		rec.Kind = wireName(s)
	case "owner":
		rec.Owner, i = signed(b, i)
	case "rank":
		rec.Rank, i = signed(b, i)
	case "lo":
		rec.Lo, i = unsigned(b, i, math.MaxUint64)
	case "hi":
		rec.Hi, i = unsigned(b, i, math.MaxUint64)
	case "type":
		s, i = quoted(b, i)
		rec.Type = wireName(s)
	case "epoch":
		rec.Epoch, i = unsigned(b, i, math.MaxUint64)
	case "stack":
		rec.Stack, i = boolean(b, i)
	case "file":
		s, i = quoted(b, i)
		if string(s) != r.file {
			r.file = string(s)
		}
		rec.File = r.file
	case "line":
		rec.Line, i = signed(b, i)
	case "time":
		rec.Time, i = unsigned(b, i, math.MaxUint64)
	case "call_time":
		rec.CallTime, i = unsigned(b, i, math.MaxUint64)
	case "filtered":
		rec.Filtered, i = boolean(b, i)
	case "accum_op":
		v, i = unsigned(b, i, math.MaxUint8)
		rec.AccumOp = uint8(v)
	case "stack_id":
		v, i = unsigned(b, i, math.MaxUint32)
		rec.StackID = uint32(v)
	default:
		return -1
	}
	return i
}

// wireName returns the record kinds and access type names Writer emits
// as constant strings; any other name is copied.
func wireName(b []byte) string {
	switch string(b) {
	case "access":
		return "access"
	case "epoch_end":
		return "epoch_end"
	case "release":
		return "release"
	case "complete":
		return "complete"
	}
	for _, n := range typeNames {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

// The value scanners below parse one value at b[i:] and return the
// index after it, or -1 if the value is outside the fast path.

// quoted returns the contents of a string of printable ASCII without
// escapes. The bytes alias b.
func quoted(b []byte, i int) ([]byte, int) {
	if i >= len(b) || b[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1
		case c < ' ' || c > '~' || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

// unsigned parses 0|[1-9][0-9]* no larger than max. A fraction or an
// exponent is left unread, so the caller's separator check fails and
// the line falls back.
func unsigned(b []byte, i int, max uint64) (uint64, int) {
	if i < len(b) && b[i] == '0' {
		return 0, i + 1
	}
	var v uint64
	j := i
	for ; j < len(b); j++ {
		c := uint64(b[j] - '0')
		if c > 9 {
			break
		}
		if v > (max-c)/10 {
			return 0, -1
		}
		v = v*10 + c
	}
	if j == i {
		return 0, -1
	}
	return v, j
}

// signed parses an optional minus sign and an integer in int's range.
func signed(b []byte, i int) (int, int) {
	if i < len(b) && b[i] == '-' {
		v, j := unsigned(b, i+1, uint64(math.MaxInt)+1)
		return -int(v), j // wraps to math.MinInt at the bound, as intended
	}
	v, j := unsigned(b, i, math.MaxInt)
	return int(v), j
}

// boolean parses a true or false literal.
func boolean(b []byte, i int) (bool, int) {
	switch rest := b[i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		return true, i + 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		return false, i + 5
	}
	return false, -1
}
