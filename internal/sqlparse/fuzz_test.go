package sqlparse

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzParse feeds arbitrary text to the parser — the serving stack's first
// untrusted input. The checked-in corpus (testdata/fuzz/FuzzParse) holds the
// benchmark generator's statement shapes, the demo statements, multibyte
// identifiers, the number forms, != and ; terminators. Properties:
//
//   - Parse never panics and fails only with a *ParseError;
//   - an accepted statement's rendering parses, and renders to itself — the
//     plan cache keys on that text, so it must be a fixpoint;
//   - the renderers agree with their fmt-based references;
//   - ParseError.Column counts runes, not bytes: it lies within the input,
//     and two-byte spaces put in front shift it by one column each;
//   - the lexer agrees token for token (kind, text, rune column) and error for
//     error (column and message) with refLex, the rune-at-a-time lexer it
//     replaced, drained past every error to the end of the input.
//
// The seeds added here take the non-ASCII paths: words strings.ToUpper folds
// onto keywords ("croſſ" is CROSS), the Kelvin sign, and NBSP and U+2028
// between tokens.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t1 croſſ join t2",
		"ſelect a1 FROM t1",
		"SELECT \u212aelvin FROM t1 WHERE \u212a < 3",
		"SELECT\u00a0a1,\u2028a2\u00a0FROM\u2028t1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if got, want := drainLexer(input), refLex(input); got != want {
			t.Fatalf("lex(%q):\n got %s\nwant %s", input, got, want)
		}
		stmt, err := Parse(input)
		shifted, serr := Parse(strings.Repeat("\u00a0", 3) + input)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Parse(%q) = %v, but %v behind leading spaces", input, err, serr)
		}
		if err != nil {
			var pe, spe *ParseError
			if !errors.As(err, &pe) || !errors.As(serr, &spe) {
				t.Fatalf("Parse(%q) failed with %T (%v), want *ParseError", input, err, err)
			}
			if pe.Column < 1 || pe.Column > utf8.RuneCountInString(input)+1 {
				t.Fatalf("Parse(%q): column %d outside the input's %d runes", input, pe.Column, utf8.RuneCountInString(input))
			}
			if spe.Column != pe.Column+3 {
				t.Fatalf("Parse(%q): column %d, and %d (want %d) behind three two-byte spaces", input, pe.Column, spe.Column, pe.Column+3)
			}
			return
		}
		checkRender(t, stmt)
		rendered := stmt.String()
		if shifted.String() != rendered {
			t.Fatalf("Parse(%q) renders %q, but %q behind leading spaces", input, rendered, shifted.String())
		}
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its rendering %q rejected: %v", input, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("rendering of %q is no fixpoint: %q -> %q", input, rendered, again.String())
		}
	})
}

// drainLexer renders every token and every error the lexer returns for input,
// one a line, up to the first tokEOF: a rejected character is stepped over
// and lexing goes on.
func drainLexer(input string) string {
	var b strings.Builder
	l := lexer{src: input}
	for {
		tok, err := l.next()
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				return fmt.Sprintf("non-ParseError %T %v", err, err)
			}
			fmt.Fprintf(&b, "error %d %s\n", pe.Column, pe.Error())
			continue
		}
		fmt.Fprintf(&b, "%d %q %d\n", tok.kind, tok.text, tok.pos)
		if tok.kind == tokEOF {
			return b.String()
		}
	}
}

// refLex is the reference for drainLexer: the lexer as it was before it read
// bytes, over []rune(input), classifying every rune through package unicode
// and upper-casing every word with strings.ToUpper. An invalid byte is one
// U+FFFD rune in both.
func refLex(input string) string {
	var b strings.Builder
	rs := []rune(input)
	digits := func(i int) int {
		for i < len(rs) && unicode.IsDigit(rs[i]) {
			i++
		}
		return i
	}
	emit := func(kind tokenKind, text string, pos int) {
		fmt.Fprintf(&b, "%d %q %d\n", kind, text, pos)
	}
	keywords := map[string]bool{}
	for _, kw := range strings.Fields("SELECT FROM JOIN INNER ON WHERE GROUP BY AND AS SUM COUNT AVG MIN MAX CROSS ORDER LIMIT ASC DESC") {
		keywords[kw] = true
	}
	for i := 0; ; {
		for i < len(rs) && unicode.IsSpace(rs[i]) {
			i++
		}
		if i == len(rs) {
			emit(tokEOF, "", i+1)
			return b.String()
		}
		start, r := i, rs[i]
		switch {
		case unicode.IsLetter(r) || r == '_':
			for i < len(rs) && (unicode.IsLetter(rs[i]) || rs[i] == '_' || unicode.IsDigit(rs[i])) {
				i++
			}
			word := string(rs[start:i])
			if up := strings.ToUpper(word); keywords[up] {
				emit(tokKeyword, up, start+1)
			} else {
				emit(tokIdent, word, start+1)
			}
		case unicode.IsDigit(r):
			i = digits(i)
			if i < len(rs) && rs[i] == '.' {
				i = digits(i + 1)
			}
			if i < len(rs) && (rs[i] == 'e' || rs[i] == 'E') {
				j := i + 1
				if j < len(rs) && (rs[j] == '+' || rs[j] == '-') {
					j++
				}
				if j < len(rs) && unicode.IsDigit(rs[j]) {
					i = digits(j)
				}
			}
			emit(tokNumber, string(rs[start:i]), start+1)
		case strings.ContainsRune("=+-*,.()", r):
			i++
			emit(tokSymbol, string(r), start+1)
		case r == '<' || r == '>':
			i++
			sym := string(r)
			if i < len(rs) && (rs[i] == '=' || r == '<' && rs[i] == '>') {
				sym += string(rs[i])
				i++
			}
			emit(tokSymbol, sym, start+1)
		case r == '!' && i+1 < len(rs) && rs[i+1] == '=':
			i += 2
			emit(tokSymbol, "<>", start+1)
		case r == ';':
			emit(tokEOF, "", len(rs)+1)
			return b.String()
		default:
			i++
			fmt.Fprintf(&b, "error %d sqlparse: unexpected %q at column %d\n", start+1, r, start+1)
		}
	}
}
