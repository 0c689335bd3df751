package sqlparse

import (
	"errors"
	"strings"
	"testing"
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
//     and two-byte spaces put in front shift it by one column each.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
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
