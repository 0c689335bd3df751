package sqlparse

import (
	"fmt"
	"strconv"
)

// Parse parses one SELECT statement of the supported subset.
func Parse(sql string) (*SelectStmt, error) {
	p := parser{lx: lexer{src: sql}}
	p.advance()
	stmt, err := p.parseSelect()
	if err == nil && !p.at(tokEOF, "") {
		err = p.errorf("trailing input starting with %q", p.cur().text)
	}
	// A character no token can start with is reported ahead of any grammar
	// error, wherever it sits: lex whatever the grammar did not get to.
	for p.lexErr == nil && p.tok.kind != tokEOF {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// parser is a recursive-descent parser with one token of lookahead, pulled
// from the lexer on demand.
type parser struct {
	lx  lexer
	tok token
	// lexErr is the first lexing failure; the grammar sees end of input from
	// there on.
	lexErr error
}

func (p *parser) cur() token { return p.tok }

func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	p.tok, p.lexErr = p.lx.next()
}

func (p *parser) at(kind tokenKind, text string) bool {
	return p.tok.kind == kind && (text == "" || p.tok.text == text)
}

// ParseError is the typed form of every statement parse and lex failure,
// so callers (the serving layer's error-code classifier above all) can
// recognize bad SQL with errors.As instead of string matching. Error()
// keeps the exact historical message format.
type ParseError struct {
	// Column is the 1-based input column the failure was detected at.
	Column int
	msg    string
}

func (e *ParseError) Error() string { return e.msg }

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{
		Column: p.cur().pos,
		msg:    fmt.Sprintf("sqlparse: column %d: %s", p.cur().pos, fmt.Sprintf(format, args...)),
	}
}

func (p *parser) expectKeyword(kw string) error {
	if !p.at(tokKeyword, kw) {
		return p.errorf("expected %s, found %q", kw, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.at(tokSymbol, sym) {
		return p.errorf("expected %q, found %q", sym, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.at(tokSymbol, ",") {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from

	for {
		if p.at(tokKeyword, "CROSS") {
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Table: tr, Cross: true})
			continue
		}
		if p.at(tokKeyword, "INNER") || p.at(tokKeyword, "JOIN") {
			if p.at(tokKeyword, "INNER") {
				p.advance()
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			left, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol("="); err != nil {
				return nil, err
			}
			right, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Table: tr, Left: left, Right: right})
			continue
		}
		break
	}

	if p.at(tokKeyword, "WHERE") {
		p.advance()
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			stmt.Where = append(stmt.Where, pred)
			if !p.at(tokKeyword, "AND") {
				break
			}
			p.advance()
		}
	}

	if p.at(tokKeyword, "GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.at(tokSymbol, ",") {
				break
			}
			p.advance()
		}
	}

	if p.at(tokKeyword, "ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.at(tokKeyword, "DESC") {
				item.Desc = true
				p.advance()
			} else if p.at(tokKeyword, "ASC") {
				p.advance()
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.at(tokSymbol, ",") {
				break
			}
			p.advance()
		}
	}

	if p.at(tokKeyword, "LIMIT") {
		p.advance()
		if !p.at(tokNumber, "") {
			return nil, p.errorf("expected row count after LIMIT, found %q", p.cur().text)
		}
		n, err := strconv.ParseInt(p.cur().text, 10, 64)
		if err != nil || n <= 0 {
			return nil, p.errorf("bad LIMIT %q (want a positive integer)", p.cur().text)
		}
		stmt.Limit = n
		p.advance()
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.at(tokSymbol, "*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	var item SelectItem
	if t := p.cur(); t.kind == tokKeyword {
		switch AggFunc(t.text) {
		case AggSum, AggCount, AggAvg, AggMin, AggMax:
			item.Agg = AggFunc(t.text)
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return item, err
			}
			if item.Agg == AggCount && p.at(tokSymbol, "*") {
				p.advance()
				item.Arg = Expr{Terms: []Term{{Constant: 1}}}
			} else {
				expr, err := p.parseExpr()
				if err != nil {
					return item, err
				}
				item.Arg = expr
			}
			if err := p.expectSymbol(")"); err != nil {
				return item, err
			}
		default:
			return item, p.errorf("unexpected keyword %q in select list", t.text)
		}
	} else {
		col, err := p.parseColRef()
		if err != nil {
			return item, err
		}
		item.Col = col
	}
	if p.at(tokKeyword, "AS") {
		p.advance()
		if !p.at(tokIdent, "") {
			return item, p.errorf("expected alias after AS, found %q", p.cur().text)
		}
		item.Alias = p.cur().text
		p.advance()
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.advance()
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if !p.at(tokIdent, "") {
		return TableRef{}, p.errorf("expected table name, found %q", p.cur().text)
	}
	tr := TableRef{Name: p.cur().text}
	p.advance()
	if p.at(tokKeyword, "AS") {
		p.advance()
	}
	if p.at(tokIdent, "") {
		tr.Alias = p.cur().text
		p.advance()
	}
	return tr, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	if !p.at(tokIdent, "") {
		return ColRef{}, p.errorf("expected column reference, found %q", p.cur().text)
	}
	first := p.cur().text
	p.advance()
	if p.at(tokSymbol, ".") {
		p.advance()
		if !p.at(tokIdent, "") {
			return ColRef{}, p.errorf("expected column after %q., found %q", first, p.cur().text)
		}
		col := ColRef{Qualifier: first, Column: p.cur().text}
		p.advance()
		return col, nil
	}
	return ColRef{Column: first}, nil
}

// parseExpr parses a sum of column references and numeric constants.
func (p *parser) parseExpr() (Expr, error) {
	var e Expr
	negate := false
	if p.at(tokSymbol, "-") {
		negate = true
		p.advance()
	}
	for {
		term, err := p.parseTerm()
		if err != nil {
			return e, err
		}
		term.Negated = negate
		e.Terms = append(e.Terms, term)
		switch {
		case p.at(tokSymbol, "+"):
			negate = false
			p.advance()
		case p.at(tokSymbol, "-"):
			negate = true
			p.advance()
		default:
			return e, nil
		}
	}
}

func (p *parser) parseTerm() (Term, error) {
	if p.at(tokNumber, "") {
		v, err := strconv.ParseFloat(p.cur().text, 64)
		if err != nil {
			return Term{}, p.errorf("bad number %q: %v", p.cur().text, err)
		}
		p.advance()
		return Term{Constant: v}, nil
	}
	col, err := p.parseColRef()
	if err != nil {
		return Term{}, err
	}
	return Term{Col: &col}, nil
}

func (p *parser) parsePredicate() (Predicate, error) {
	left, err := p.parseExpr()
	if err != nil {
		return Predicate{}, err
	}
	t := p.cur()
	switch {
	case t.kind == tokSymbol && (t.text == "=" || t.text == "<" || t.text == "<=" ||
		t.text == ">" || t.text == ">=" || t.text == "<>"):
		p.advance()
	default:
		return Predicate{}, p.errorf("expected comparison operator, found %q", t.text)
	}
	op := t.text
	if !p.at(tokNumber, "") {
		return Predicate{}, p.errorf("expected numeric literal after %q, found %q", op, p.cur().text)
	}
	v, err := strconv.ParseFloat(p.cur().text, 64)
	if err != nil {
		return Predicate{}, p.errorf("bad number %q: %v", p.cur().text, err)
	}
	p.advance()
	return Predicate{Left: left, Op: op, Value: v}, nil
}
