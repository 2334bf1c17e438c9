package minisql

import "fmt"

// Parse parses one SELECT statement; any other statement is a syntax
// error.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("%w: trailing input at %d", errSyntax, p.peek().pos)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("%w: expected %s at %d", errSyntax, kw, p.peek().pos)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("%w: expected %q at %d", errSyntax, sym, p.peek().pos)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("%w: expected identifier at %d", errSyntax, t.pos)
	}
	p.i++
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	if !p.acceptKeyword("SELECT") {
		return nil, fmt.Errorf("%w: expected SELECT at %d", errSyntax, p.peek().pos)
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	stmt := &SelectStmt{Limit: -1}
	for {
		if p.acceptSymbol("*") {
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			stmt.Items = append(stmt.Items, item)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("%w: expected number after LIMIT at %d", errSyntax, t.pos)
		}
		p.i++
		stmt.Limit = int(t.num)
		if stmt.Limit < 0 {
			return nil, fmt.Errorf("%w: negative LIMIT", errSyntax)
		}
	}
	return stmt, nil
}

// Expression grammar, lowest precedence first:
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((=|!=|<>|<|<=|>|>=|LIKE|IN|IS|BETWEEN) ...)?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | primary
//	primary:= literal | column | ( or )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.i++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &binaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	if t.kind == tokKeyword {
		negate := false
		if t.text == "NOT" {
			// x NOT LIKE / NOT IN / NOT BETWEEN
			save := p.i
			p.i++
			nt := p.peek()
			if nt.kind == tokKeyword && (nt.text == "LIKE" || nt.text == "IN" || nt.text == "BETWEEN") {
				negate = true
				t = nt
			} else {
				p.i = save
				return l, nil
			}
		}
		switch t.text {
		case "LIKE":
			p.i++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			var e Expr = &binaryExpr{Op: "LIKE", L: l, R: r}
			if negate {
				e = &unaryExpr{Op: "NOT", X: e}
			}
			return e, nil
		case "IN":
			p.i++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &inExpr{X: l, List: list, Not: negate}, nil
		case "BETWEEN":
			p.i++
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &betweenExpr{X: l, Lo: lo, Hi: hi, Not: negate}, nil
		case "IS":
			p.i++
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return &isNullExpr{X: l, Not: not}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.i++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.i++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.i++
		return &literalExpr{Val: Number(t.num)}, nil
	case tokString:
		p.i++
		return &literalExpr{Val: Text(t.text)}, nil
	case tokIdent:
		p.i++
		return &columnExpr{Name: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.i++
			return &literalExpr{Val: Null()}, nil
		case "TRUE":
			p.i++
			return &literalExpr{Val: Bool(true)}, nil
		case "FALSE":
			p.i++
			return &literalExpr{Val: Bool(false)}, nil
		}
	case tokSymbol:
		if t.text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("%w: unexpected token %q at %d", errSyntax, t.text, t.pos)
}
