// Package jsonstr is the one JSON string escaper the serving path uses: the
// server's hand-rolled answer encoder quotes strings with it, and the
// optimizer renders each plan's EXPLAIN through it once, so that an answer
// copies the plan's text already quoted.
package jsonstr

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes Append copies as they are: everything but the
// control characters, '"', '\' and the three HTML escaping takes ('<', '>',
// '&') — one load per byte of every statement answered and of every name a
// plan renders.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// Append appends s to b escaped exactly as encoding/json escapes a string
// with HTML escaping on — ", \, control characters, <, >, &, U+2028/U+2029,
// and invalid UTF-8 (replaced by \ufffd) — without the enclosing quotes.
func Append(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\':
				b = append(b, `\\`...)
			case '"':
				b = append(b, `\"`...)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default: // other control chars and <, >, &
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(append(b, s[start:i]...), `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(b, s[start:]...)
}
