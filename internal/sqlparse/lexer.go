// Package sqlparse implements the SQL subset IntelliSphere accepts from
// end-users: single-block SELECT statements with an optional two-table
// equi-join, conjunctive WHERE predicates over additive expressions (the
// Figure 10 workload's "R.a1 + S.z < threshold" trick parses here), GROUP BY,
// and the SUM/COUNT/AVG/MIN/MAX aggregates. The master engine plans these
// across the federation.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokSymbol  // punctuation and operators
	tokKeyword // recognized SQL keywords (normalized upper-case)
)

// token is one lexeme with its source position (1-based rune column).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// Byte classes of the ASCII range; bytes ≥ 0x80 are decoded and classified
// through package unicode.
const (
	clsSpace  = 1 << iota // unicode.IsSpace
	clsLetter             // unicode.IsLetter or '_'
	clsDigit              // unicode.IsDigit
	clsSymbol             // single-character symbols
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch r := rune(c); {
		case unicode.IsSpace(r):
			t[c] = clsSpace
		case unicode.IsLetter(r) || r == '_':
			t[c] = clsLetter
		case unicode.IsDigit(r):
			t[c] = clsDigit
		case strings.ContainsRune("=+-*,.()", r):
			t[c] = clsSymbol
		}
	}
	return t
}()

// symbols holds the text of every single-character symbol token, so a token
// never allocates.
var symbols = func() (t [utf8.RuneSelf]string) {
	for c := range t {
		t[c] = string(rune(c))
	}
	return t
}()

// lexer scans the statement text by byte offset, one token per call of next.
// Identifier and number tokens are substrings of the input; keyword and
// symbol tokens are constants.
type lexer struct {
	src string
	off int // byte offset of the next unread byte
	// wide counts the UTF-8 continuation bytes before off, so off-wide is the
	// number of runes consumed and positions stay rune columns.
	wide int
}

// class decodes the rune at byte offset i (i < len(src)) and classifies it.
func (l *lexer) class(i int) (r rune, size int, cls uint8) {
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1, asciiClass[c]
	}
	r, size = utf8.DecodeRuneInString(l.src[i:])
	switch {
	case unicode.IsSpace(r):
		cls = clsSpace
	case unicode.IsLetter(r):
		cls = clsLetter
	case unicode.IsDigit(r):
		cls = clsDigit
	}
	return r, size, cls
}

// skip advances over the run of runes whose class is in mask. An ASCII byte
// is classified here, by table; only a byte ≥ 0x80 pays for class's decode.
func (l *lexer) skip(mask uint8) {
	for l.off < len(l.src) {
		if c := l.src[l.off]; c < utf8.RuneSelf {
			if asciiClass[c]&mask == 0 {
				return
			}
			l.off++
			continue
		}
		_, size, cls := l.class(l.off)
		if cls&mask == 0 {
			return
		}
		l.off += size
		l.wide += size - 1
	}
}

// next returns the following token. After the statement's end (or a ';'
// terminator) it keeps returning tokEOF. A character that cannot start a
// token is a *ParseError.
func (l *lexer) next() (token, error) {
	l.skip(clsSpace)
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: l.off - l.wide + 1}, nil
	}
	start, pos := l.off, l.off-l.wide+1
	r, size, cls := l.class(start)
	switch {
	case cls == clsLetter:
		l.skip(clsLetter | clsDigit)
		word := l.src[start:l.off]
		if kw := keyword(word); kw != "" {
			return token{kind: tokKeyword, text: kw, pos: pos}, nil
		}
		return token{kind: tokIdent, text: word, pos: pos}, nil
	case cls == clsDigit:
		l.skip(clsDigit)
		if l.off < len(l.src) && l.src[l.off] == '.' {
			l.off++
			l.skip(clsDigit)
		}
		// Scientific notation: 1e6, 2.5E-3.
		if l.off < len(l.src) && (l.src[l.off] == 'e' || l.src[l.off] == 'E') {
			j := l.off + 1
			if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
				j++
			}
			if j < len(l.src) {
				if _, _, c := l.class(j); c == clsDigit {
					l.off = j
					l.skip(clsDigit)
				}
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.off], pos: pos}, nil
	case cls == clsSymbol:
		l.off++
		return token{kind: tokSymbol, text: symbols[r], pos: pos}, nil
	case r == '<':
		l.off++
		if l.off < len(l.src) {
			switch l.src[l.off] {
			case '=':
				l.off++
				return token{kind: tokSymbol, text: "<=", pos: pos}, nil
			case '>':
				l.off++
				return token{kind: tokSymbol, text: "<>", pos: pos}, nil
			}
		}
		return token{kind: tokSymbol, text: "<", pos: pos}, nil
	case r == '>':
		l.off++
		if l.off < len(l.src) && l.src[l.off] == '=' {
			l.off++
			return token{kind: tokSymbol, text: ">=", pos: pos}, nil
		}
		return token{kind: tokSymbol, text: ">", pos: pos}, nil
	case r == '!' && start+1 < len(l.src) && l.src[start+1] == '=':
		l.off += 2
		return token{kind: tokSymbol, text: "<>", pos: pos}, nil
	case r == ';':
		// Statement terminator: whatever follows is not looked at, and the
		// end-of-input column is that of the whole text.
		l.wide += len(l.src) - l.off - utf8.RuneCountInString(l.src[l.off:])
		l.off = len(l.src)
		return token{kind: tokEOF, pos: l.off - l.wide + 1}, nil
	default:
		// Step over the offender so that a caller draining the input for
		// errors makes progress.
		l.off += size
		l.wide += size - 1
		return token{}, &ParseError{Column: pos, msg: fmt.Sprintf("sqlparse: unexpected %q at column %d", r, pos)}
	}
}

// keyword returns the normalized (upper-case) keyword word spells, or "" for
// an ordinary identifier. Matching ignores case the way strings.ToUpper
// does, which for non-ASCII words also folds a few letters onto ASCII ones
// ("ſelect" is SELECT).
func keyword(word string) string {
	var buf [6]byte // the longest keyword
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return keywordUpper(strings.ToUpper(word))
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if i < len(buf) {
			buf[i] = c
		}
	}
	if len(word) > len(buf) {
		return ""
	}
	return keywordUpper(string(buf[:len(word)]))
}

// keywordUpper maps an upper-cased word onto the keyword constant it equals
// (a switch, which the compiler dispatches on length and value: every word of
// every statement passes through here).
func keywordUpper(upper string) string {
	switch upper {
	case "SELECT":
		return "SELECT"
	case "FROM":
		return "FROM"
	case "JOIN":
		return "JOIN"
	case "INNER":
		return "INNER"
	case "ON":
		return "ON"
	case "WHERE":
		return "WHERE"
	case "GROUP":
		return "GROUP"
	case "BY":
		return "BY"
	case "AND":
		return "AND"
	case "AS":
		return "AS"
	case "SUM":
		return "SUM"
	case "COUNT":
		return "COUNT"
	case "AVG":
		return "AVG"
	case "MIN":
		return "MIN"
	case "MAX":
		return "MAX"
	case "CROSS":
		return "CROSS"
	case "ORDER":
		return "ORDER"
	case "LIMIT":
		return "LIMIT"
	case "ASC":
		return "ASC"
	case "DESC":
		return "DESC"
	}
	return ""
}
