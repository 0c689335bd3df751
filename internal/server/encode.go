package server

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The hot serving endpoints (/query, /query/batch, /query/stream) answer
// with a small fixed family of response shapes. Encoding them through
// encoding/json costs reflection, interface boxing, and per-request encoder
// state; at serving QPS that dominated the handler profile. This file
// hand-rolls encoders for exactly those shapes — byte-identical to
// json.NewEncoder with SetIndent("", " ") (the seed's writeJSON), which the
// golden tests in encode_test.go pin — over pooled buffers, so a warm
// request allocates nothing for its response.
//
// Responses carrying a span tree (?trace=1) fall back to encoding/json:
// tracing is an opt-in diagnostic path, and trace.Trace is the one shape
// here with nested time.Time marshaling.

// bufPool recycles response buffers across requests. Buffers that grew
// beyond bufPoolMax are dropped rather than pooled, so one huge batch
// response does not pin its footprint forever.
const bufPoolMax = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= bufPoolMax {
		bufPool.Put(b)
	}
}

// jw writes indented JSON into a buffer, mirroring json.Encoder with
// SetIndent("", " "): one-space indentation per nesting level, a space
// after each key's colon, HTML-escaped strings, and encoding/json's float
// rendering.
type jw struct {
	b       *bytes.Buffer
	depth   int
	scratch [40]byte
}

func (w *jw) newline() {
	w.b.WriteByte('\n')
	for i := 0; i < w.depth; i++ {
		w.b.WriteByte(' ')
	}
}

// key starts an object member: separating comma (unless first), newline at
// the current depth, quoted name, colon, space.
func (w *jw) key(name string, first bool) {
	if !first {
		w.b.WriteByte(',')
	}
	w.newline()
	w.str(name)
	w.b.WriteString(": ")
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes str copies as they are: everything but the
// control characters, '"', '\' and the three HTML escaping takes ('<', '>',
// '&') — one load per byte of every statement and EXPLAIN text answered.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// str writes a quoted, escaped string exactly as encoding/json does with
// HTML escaping on: ", \, control characters, <, >, &, U+2028/U+2029, and
// invalid UTF-8 (replaced by �).
func (w *jw) str(s string) {
	b := w.b
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b.WriteString(s[start:i])
			switch c {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\b':
				b.WriteString(`\b`)
			case '\f':
				b.WriteString(`\f`)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			case '\t':
				b.WriteString(`\t`)
			default: // other control chars and <, >, &
				b.WriteString(`\u00`)
				b.WriteByte(hexDigits[c>>4])
				b.WriteByte(hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteString(s[start:i])
			b.WriteString(`\ufffd`)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b.WriteString(s[start:i])
			b.WriteString(`\u202`)
			b.WriteByte(hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}

// float renders a float64 the way encoding/json does: shortest
// representation, 'f' form in the ±[1e-6, 1e21) magnitude range, 'e'
// otherwise with single-digit exponents unpadded. Engine outputs are finite
// by construction; this path never sees NaN or ±Inf.
func (w *jw) float(f float64) {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	out := strconv.AppendFloat(w.scratch[:0], f, format, -1, 64)
	if format == 'e' {
		if n := len(out); n >= 4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
	}
	w.b.Write(out)
}

// floats writes a []float64 with non-omitempty semantics: nil is null, an
// empty slice is [], otherwise one element per line.
func (w *jw) floats(fs []float64) {
	if fs == nil {
		w.b.WriteString("null")
		return
	}
	if len(fs) == 0 {
		w.b.WriteString("[]")
		return
	}
	w.b.WriteByte('[')
	w.depth++
	for i, f := range fs {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.newline()
		w.float(f)
	}
	w.depth--
	w.newline()
	w.b.WriteByte(']')
}

// strs writes a non-empty []string, one element per line.
func (w *jw) strs(ss []string) {
	w.b.WriteByte('[')
	w.depth++
	for i, s := range ss {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.newline()
		w.str(s)
	}
	w.depth--
	w.newline()
	w.b.WriteByte(']')
}

// rows writes a non-empty [][]float64 (the /query result rows).
func (w *jw) rows(rs [][]float64) {
	w.b.WriteByte('[')
	w.depth++
	for i, r := range rs {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.newline()
		w.floats(r)
	}
	w.depth--
	w.newline()
	w.b.WriteByte(']')
}

// encodeQueryResponse writes one queryResponse object, mirroring its struct
// tags: step_actuals always present, degraded/excluded/columns/rows
// omitempty. The caller guarantees resp.Trace is nil (traced responses take
// the encoding/json fallback).
func encodeQueryResponse(w *jw, resp *queryResponse) {
	w.b.WriteByte('{')
	w.depth++
	w.key("sql", true)
	w.str(resp.SQL)
	w.key("explain", false)
	w.str(resp.Explain)
	w.key("estimated_sec", false)
	w.float(resp.EstimatedSec)
	w.key("actual_sec", false)
	w.float(resp.ActualSec)
	w.key("step_actuals", false)
	w.floats(resp.StepActuals)
	if resp.Degraded {
		w.key("degraded", false)
		w.b.WriteString("true")
	}
	if len(resp.Excluded) > 0 {
		w.key("excluded", false)
		w.strs(resp.Excluded)
	}
	if len(resp.Columns) > 0 {
		w.key("columns", false)
		w.strs(resp.Columns)
	}
	if len(resp.Rows) > 0 {
		w.key("rows", false)
		w.rows(resp.Rows)
	}
	w.depth--
	w.newline()
	w.b.WriteByte('}')
}

// encodeStatementError writes a per-statement error frame. The seed encoded
// these as map[string]string{"sql", "error"}, and encoding/json sorts map
// keys — so "error" precedes "sql".
func encodeStatementError(w *jw, sql, msg string) {
	w.b.WriteByte('{')
	w.depth++
	w.key("error", true)
	w.str(msg)
	w.key("sql", false)
	w.str(sql)
	w.depth--
	w.newline()
	w.b.WriteByte('}')
}

// encodeErrorFrame writes a top-level {"code": ..., "error": ...} frame (the
// writeError shape). The seed encoded these as sorted string maps; "code"
// sorts before "error", so the golden equivalence with encoding/json holds.
func encodeErrorFrame(w *jw, code, msg string) {
	w.b.WriteByte('{')
	w.depth++
	w.key("code", true)
	w.str(code)
	w.key("error", false)
	w.str(msg)
	w.depth--
	w.newline()
	w.b.WriteByte('}')
}
