package sqlparse

import (
	"errors"
	"reflect"
	"testing"
)

// lexAll drains the lexer the way the parser pulls it: tokens up to and
// including the first tokEOF, or the first error.
func lexAll(input string) ([]token, error) {
	l := lexer{src: input}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

type lexCase struct {
	in     string
	toks   []token
	errCol int
	errMsg string
}

// lexGolden was captured from the rune-slice lexer this one replaced
// ([]rune(input), a string per token, strings.ToUpper per word): token kinds,
// texts and 1-based rune columns, and the first error, must not move.
var lexGolden = []lexCase{
	{in: "SELECT a1, a5 FROM t1000000_100 WHERE a5 < 1234", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a1", 8}, {tokSymbol, ",", 10}, {tokIdent, "a5", 12}, {tokKeyword, "FROM", 15}, {tokIdent, "t1000000_100", 20}, {tokKeyword, "WHERE", 33}, {tokIdent, "a5", 39}, {tokSymbol, "<", 42}, {tokNumber, "1234", 44}, {tokEOF, "", 48}}},
	{in: "SELECT a100, SUM(a1), COUNT(*) FROM t10000_250 WHERE a2 < 17 GROUP BY a100", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a100", 8}, {tokSymbol, ",", 12}, {tokKeyword, "SUM", 14}, {tokSymbol, "(", 17}, {tokIdent, "a1", 18}, {tokSymbol, ")", 20}, {tokSymbol, ",", 21}, {tokKeyword, "COUNT", 23}, {tokSymbol, "(", 28}, {tokSymbol, "*", 29}, {tokSymbol, ")", 30}, {tokKeyword, "FROM", 32}, {tokIdent, "t10000_250", 37}, {tokKeyword, "WHERE", 48}, {tokIdent, "a2", 54}, {tokSymbol, "<", 57}, {tokNumber, "17", 59}, {tokKeyword, "GROUP", 62}, {tokKeyword, "BY", 68}, {tokIdent, "a100", 71}, {tokEOF, "", 75}}},
	{in: "SELECT r.a1, s.a2 FROM t80000000_250 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "r", 8}, {tokSymbol, ".", 9}, {tokIdent, "a1", 10}, {tokSymbol, ",", 12}, {tokIdent, "s", 14}, {tokSymbol, ".", 15}, {tokIdent, "a2", 16}, {tokKeyword, "FROM", 19}, {tokIdent, "t80000000_250", 24}, {tokIdent, "r", 38}, {tokKeyword, "JOIN", 40}, {tokIdent, "events", 45}, {tokIdent, "s", 52}, {tokKeyword, "ON", 54}, {tokIdent, "r", 57}, {tokSymbol, ".", 58}, {tokIdent, "a1", 59}, {tokSymbol, "=", 62}, {tokIdent, "s", 64}, {tokSymbol, ".", 65}, {tokIdent, "a1", 66}, {tokKeyword, "WHERE", 69}, {tokIdent, "r", 75}, {tokSymbol, ".", 76}, {tokIdent, "a10", 77}, {tokSymbol, "<", 81}, {tokNumber, "40123", 83}, {tokEOF, "", 88}}},
	{in: "SELECT t1000000_100.a1 FROM t1000000_100 JOIN t100000_100 ON t1000000_100.a1 = t100000_100.a1", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "t1000000_100", 8}, {tokSymbol, ".", 20}, {tokIdent, "a1", 21}, {tokKeyword, "FROM", 24}, {tokIdent, "t1000000_100", 29}, {tokKeyword, "JOIN", 42}, {tokIdent, "t100000_100", 47}, {tokKeyword, "ON", 59}, {tokIdent, "t1000000_100", 62}, {tokSymbol, ".", 74}, {tokIdent, "a1", 75}, {tokSymbol, "=", 78}, {tokIdent, "t100000_100", 80}, {tokSymbol, ".", 91}, {tokIdent, "a1", 92}, {tokEOF, "", 94}}},
	{in: "SELECT a1 FROM dim_local", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a1", 8}, {tokKeyword, "FROM", 11}, {tokIdent, "dim_local", 16}, {tokEOF, "", 25}}},
	{in: "select * from t1 cross join t2 order by a1 desc, a2 asc limit 10", toks: []token{{tokKeyword, "SELECT", 1}, {tokSymbol, "*", 8}, {tokKeyword, "FROM", 10}, {tokIdent, "t1", 15}, {tokKeyword, "CROSS", 18}, {tokKeyword, "JOIN", 24}, {tokIdent, "t2", 29}, {tokKeyword, "ORDER", 32}, {tokKeyword, "BY", 38}, {tokIdent, "a1", 41}, {tokKeyword, "DESC", 44}, {tokSymbol, ",", 48}, {tokIdent, "a2", 50}, {tokKeyword, "ASC", 53}, {tokKeyword, "LIMIT", 57}, {tokNumber, "10", 63}, {tokEOF, "", 65}}},
	{in: "SELECT r.a1 FROM r INNER JOIN s ON r.a1 = s.a1 WHERE r.a1 + s.z < 500000 AND -r.a2 - 3 >= 1e6", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "r", 8}, {tokSymbol, ".", 9}, {tokIdent, "a1", 10}, {tokKeyword, "FROM", 13}, {tokIdent, "r", 18}, {tokKeyword, "INNER", 20}, {tokKeyword, "JOIN", 26}, {tokIdent, "s", 31}, {tokKeyword, "ON", 33}, {tokIdent, "r", 36}, {tokSymbol, ".", 37}, {tokIdent, "a1", 38}, {tokSymbol, "=", 41}, {tokIdent, "s", 43}, {tokSymbol, ".", 44}, {tokIdent, "a1", 45}, {tokKeyword, "WHERE", 48}, {tokIdent, "r", 54}, {tokSymbol, ".", 55}, {tokIdent, "a1", 56}, {tokSymbol, "+", 59}, {tokIdent, "s", 61}, {tokSymbol, ".", 62}, {tokIdent, "z", 63}, {tokSymbol, "<", 65}, {tokNumber, "500000", 67}, {tokKeyword, "AND", 74}, {tokSymbol, "-", 78}, {tokIdent, "r", 79}, {tokSymbol, ".", 80}, {tokIdent, "a2", 81}, {tokSymbol, "-", 84}, {tokNumber, "3", 86}, {tokSymbol, ">=", 88}, {tokNumber, "1e6", 91}, {tokEOF, "", 94}}},
	{in: "SELECT größe AS g FROM tabelle_ü WHERE größe < 10", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "größe", 8}, {tokKeyword, "AS", 14}, {tokIdent, "g", 17}, {tokKeyword, "FROM", 19}, {tokIdent, "tabelle_ü", 24}, {tokKeyword, "WHERE", 34}, {tokIdent, "größe", 40}, {tokSymbol, "<", 46}, {tokNumber, "10", 48}, {tokEOF, "", 50}}},
	{in: "SELECT 列 FROM 表 WHERE 列 <> 2.5E-3", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "列", 8}, {tokKeyword, "FROM", 10}, {tokIdent, "表", 15}, {tokKeyword, "WHERE", 17}, {tokIdent, "列", 23}, {tokSymbol, "<>", 25}, {tokNumber, "2.5E-3", 28}, {tokEOF, "", 34}}},
	{in: "1e6 2.5E-3 1.2.3 1. 1e 1e+ 3e+5x 7E-2.5 0.5.e3", toks: []token{{tokNumber, "1e6", 1}, {tokNumber, "2.5E-3", 5}, {tokNumber, "1.2", 12}, {tokSymbol, ".", 15}, {tokNumber, "3", 16}, {tokNumber, "1.", 18}, {tokNumber, "1", 21}, {tokIdent, "e", 22}, {tokNumber, "1", 24}, {tokIdent, "e", 25}, {tokSymbol, "+", 26}, {tokNumber, "3e+5", 28}, {tokIdent, "x", 32}, {tokNumber, "7E-2", 34}, {tokSymbol, ".", 38}, {tokNumber, "5", 39}, {tokNumber, "0.5", 41}, {tokSymbol, ".", 44}, {tokIdent, "e3", 45}, {tokEOF, "", 47}}},
	{in: "<= >= <> != < > = + - * , . ( )", toks: []token{{tokSymbol, "<=", 1}, {tokSymbol, ">=", 4}, {tokSymbol, "<>", 7}, {tokSymbol, "<>", 10}, {tokSymbol, "<", 13}, {tokSymbol, ">", 15}, {tokSymbol, "=", 17}, {tokSymbol, "+", 19}, {tokSymbol, "-", 21}, {tokSymbol, "*", 23}, {tokSymbol, ",", 25}, {tokSymbol, ".", 27}, {tokSymbol, "(", 29}, {tokSymbol, ")", 31}, {tokEOF, "", 32}}},
	{in: "a<=b>=c<>d!=e<f>g=h", toks: []token{{tokIdent, "a", 1}, {tokSymbol, "<=", 2}, {tokIdent, "b", 4}, {tokSymbol, ">=", 5}, {tokIdent, "c", 7}, {tokSymbol, "<>", 8}, {tokIdent, "d", 10}, {tokSymbol, "<>", 11}, {tokIdent, "e", 13}, {tokSymbol, "<", 14}, {tokIdent, "f", 15}, {tokSymbol, ">", 16}, {tokIdent, "g", 17}, {tokSymbol, "=", 18}, {tokIdent, "h", 19}, {tokEOF, "", 20}}},
	{in: "SELECT a1 FROM t1; garbage @@ ü here", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a1", 8}, {tokKeyword, "FROM", 11}, {tokIdent, "t1", 16}, {tokEOF, "", 37}}},
	{in: "SELECT\u00a0a1\u2003FROM\tt1\r\nWHERE a1 < 1", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a1", 8}, {tokKeyword, "FROM", 11}, {tokIdent, "t1", 16}, {tokKeyword, "WHERE", 20}, {tokIdent, "a1", 26}, {tokSymbol, "<", 29}, {tokNumber, "1", 31}, {tokEOF, "", 32}}},
	{in: "sElEcT Sum sum SUM min Min cOuNt AvG mAx aS bY oN", toks: []token{{tokKeyword, "SELECT", 1}, {tokKeyword, "SUM", 8}, {tokKeyword, "SUM", 12}, {tokKeyword, "SUM", 16}, {tokKeyword, "MIN", 20}, {tokKeyword, "MIN", 24}, {tokKeyword, "COUNT", 28}, {tokKeyword, "AVG", 34}, {tokKeyword, "MAX", 38}, {tokKeyword, "AS", 42}, {tokKeyword, "BY", 45}, {tokKeyword, "ON", 48}, {tokEOF, "", 50}}},
	{in: "ſelect mın Kelvin ınner", toks: []token{{tokKeyword, "SELECT", 1}, {tokKeyword, "MIN", 8}, {tokIdent, "Kelvin", 12}, {tokKeyword, "INNER", 19}, {tokEOF, "", 24}}},
	{in: "SELECT a٣ FROM t WHERE a < ٣", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a٣", 8}, {tokKeyword, "FROM", 11}, {tokIdent, "t", 16}, {tokKeyword, "WHERE", 18}, {tokIdent, "a", 24}, {tokSymbol, "<", 26}, {tokNumber, "٣", 28}, {tokEOF, "", 29}}},
	{in: "SELECT a < ٣٤.٥", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a", 8}, {tokSymbol, "<", 10}, {tokNumber, "٣٤.٥", 12}, {tokEOF, "", 16}}},
	{in: "x1e5 _a _1 a_b __", toks: []token{{tokIdent, "x1e5", 1}, {tokIdent, "_a", 6}, {tokIdent, "_1", 9}, {tokIdent, "a_b", 12}, {tokIdent, "__", 16}, {tokEOF, "", 18}}},
	{in: "", toks: []token{{tokEOF, "", 1}}},
	{in: "   ", toks: []token{{tokEOF, "", 4}}},
	{in: ";", toks: []token{{tokEOF, "", 2}}},
	{in: "; @", toks: []token{{tokEOF, "", 4}}},
	{in: "SELECT a ! b", errCol: 10, errMsg: "sqlparse: unexpected '!' at column 10"},
	{in: "SELECT @", errCol: 8, errMsg: "sqlparse: unexpected '@' at column 8"},
	{in: "sélect # x", errCol: 8, errMsg: "sqlparse: unexpected '#' at column 8"},
	{in: "ü!", errCol: 2, errMsg: "sqlparse: unexpected '!' at column 2"},
	{in: "SELECT a1 FROM t WHERE a1 < 1 \xff", errCol: 31, errMsg: "sqlparse: unexpected '�' at column 31"},
	{in: "\xe2\x82 SELECT", errCol: 1, errMsg: "sqlparse: unexpected '�' at column 1"},
	{in: "SELECT 'x'", errCol: 8, errMsg: "sqlparse: unexpected '\\'' at column 8"},
	{in: "SELECT a1 FROM t1 LIMIT 10;", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a1", 8}, {tokKeyword, "FROM", 11}, {tokIdent, "t1", 16}, {tokKeyword, "LIMIT", 19}, {tokNumber, "10", 25}, {tokEOF, "", 28}}},
	{in: "SELECT a1 FROM t1 -- c", toks: []token{{tokKeyword, "SELECT", 1}, {tokIdent, "a1", 8}, {tokKeyword, "FROM", 11}, {tokIdent, "t1", 16}, {tokSymbol, "-", 19}, {tokSymbol, "-", 20}, {tokIdent, "c", 22}, {tokEOF, "", 23}}},
	{in: "a.b.c 1.a a.1 .5 5.", toks: []token{{tokIdent, "a", 1}, {tokSymbol, ".", 2}, {tokIdent, "b", 3}, {tokSymbol, ".", 4}, {tokIdent, "c", 5}, {tokNumber, "1.", 7}, {tokIdent, "a", 9}, {tokIdent, "a", 11}, {tokSymbol, ".", 12}, {tokNumber, "1", 13}, {tokSymbol, ".", 15}, {tokNumber, "5", 16}, {tokNumber, "5.", 18}, {tokEOF, "", 20}}},
	{in: "SELECT COUNT(*)FROM t", toks: []token{{tokKeyword, "SELECT", 1}, {tokKeyword, "COUNT", 8}, {tokSymbol, "(", 13}, {tokSymbol, "*", 14}, {tokSymbol, ")", 15}, {tokKeyword, "FROM", 16}, {tokIdent, "t", 21}, {tokEOF, "", 22}}},
	{in: "1e5e5 1E+ 1e-x 12ab", toks: []token{{tokNumber, "1e5", 1}, {tokIdent, "e5", 4}, {tokNumber, "1", 7}, {tokIdent, "E", 8}, {tokSymbol, "+", 9}, {tokNumber, "1", 11}, {tokIdent, "e", 12}, {tokSymbol, "-", 13}, {tokIdent, "x", 14}, {tokNumber, "12", 16}, {tokIdent, "ab", 18}, {tokEOF, "", 20}}},
}

func TestLexGolden(t *testing.T) {
	for _, tc := range lexGolden {
		toks, err := lexAll(tc.in)
		if tc.errMsg != "" {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Column != tc.errCol || pe.Error() != tc.errMsg {
				t.Errorf("lex(%q) = %v, %v; want error %q at column %d", tc.in, toks, err, tc.errMsg, tc.errCol)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(toks, tc.toks) {
			t.Errorf("lex(%q)\n got %v, %v\nwant %v", tc.in, toks, err, tc.toks)
		}
	}
}

// The lexer keeps answering tokEOF at the same column once the input (or a
// ';' terminator) is behind it, and steps over a character it rejected, so
// the parser's drain loop always terminates.
func TestLexPastTheEnd(t *testing.T) {
	l := lexer{src: "a ; é @"}
	var last token
	for i := 0; i < 4; i++ {
		tok, err := l.next()
		if err != nil {
			t.Fatal(err)
		}
		last = tok
	}
	if last.kind != tokEOF || last.pos != 8 {
		t.Errorf("token after the terminator = %+v, want EOF at column 8", last)
	}
	l = lexer{src: "@#a"}
	for _, want := range []int{1, 2} {
		var pe *ParseError
		if _, err := l.next(); !errors.As(err, &pe) || pe.Column != want {
			t.Fatalf("next() error = %v, want a ParseError at column %d", err, want)
		}
	}
	if tok, err := l.next(); err != nil || tok.text != "a" {
		t.Errorf("after two rejected characters: %+v, %v", tok, err)
	}
}

func TestParseReportsLexErrorFirst(t *testing.T) {
	// The grammar fails at column 1 (no SELECT), the lexer at column 11: the
	// character no token can start with wins, as it did when the whole input
	// was lexed before parsing began.
	_, err := Parse("FROM t1 x @ y")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Column != 11 || pe.Error() != `sqlparse: unexpected '@' at column 11` {
		t.Errorf("err = %v", err)
	}
	// Behind a terminator nothing is looked at.
	if _, err := Parse("SELECT a1 FROM t1 ; @"); err != nil {
		t.Errorf("err = %v", err)
	}
}
