package esql

import (
	"fmt"
	"strconv"
	"strings"

	"lera/internal/guard"
	"lera/internal/value"
)

// errorf formats an error of this package, a text that is not ESQL: it
// wraps guard.ErrParse, whose text "esql" heads the message, so
// guard.CodeOf reports it as PARSE.
func errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{guard.ErrParse}, args...)...)
}

// Parse parses a sequence of ESQL statements.
func Parse(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for !p.atEOF() {
		if p.peek().is(";") {
			p.advance()
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.peek().is(";") && !p.atEOF() {
			t := p.peek()
			return nil, errorf("%d:%d: expected ';', got %q", t.line, t.col, t.text)
		}
	}
	return out, nil
}

// ParseQuery parses a single SELECT statement.
func ParseQuery(src string) (*Select, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, errorf("expected one statement, got %d", len(stmts))
	}
	s, ok := stmts[0].(*Select)
	if !ok {
		return nil, errorf("expected a SELECT statement")
	}
	return s, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peekAt(off int) token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+off]
}
func (p *parser) atEOF() bool { return p.peek().kind == tEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.peek().is(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	t := p.peek()
	if t.is(text) {
		p.advance()
		return nil
	}
	return errorf("%d:%d: expected %q, got %q", t.line, t.col, text, t.text)
}

func (p *parser) ident(what string) (string, error) {
	t := p.peek()
	if t.kind != tIdent {
		return "", errorf("%d:%d: expected %s, got %q", t.line, t.col, what, t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.is("TYPE"):
		return p.parseType()
	case t.is("TABLE"):
		return p.parseTable()
	case t.is("CREATE"):
		return p.parseCreate()
	case t.is("SELECT"):
		return p.parseSelect()
	case t.is("INSERT"):
		return p.parseInsert()
	case t.is("EXPLAIN"):
		return p.parseExplain()
	case t.is("PREPARE"):
		return p.parsePrepare()
	case t.is("EXECUTE"):
		return p.parseExecute()
	}
	return nil, errorf("%d:%d: unexpected %q (expected TYPE, TABLE, CREATE, SELECT, INSERT, EXPLAIN, PREPARE or EXECUTE)", t.line, t.col, t.text)
}

// parsePrepare parses PREPARE name AS SELECT ... ($n placeholders are
// allowed anywhere a literal is).
func (p *parser) parsePrepare() (Stmt, error) {
	p.advance() // PREPARE
	name, err := p.ident("prepared-statement name")
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	t := p.peek()
	if !t.is("SELECT") {
		return nil, errorf("%d:%d: PREPARE expects a SELECT body, got %q", t.line, t.col, t.text)
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &PrepareStmt{Name: name, Sel: sel.(*Select)}, nil
}

// parseExecute parses EXECUTE name(arg, ...); the parentheses are
// required even for zero arguments.
func (p *parser) parseExecute() (Stmt, error) {
	p.advance() // EXECUTE
	name, err := p.ident("prepared-statement name")
	if err != nil {
		return nil, err
	}
	args, err := p.parseArgList()
	if err != nil {
		return nil, err
	}
	return &ExecuteStmt{Name: name, Args: args}, nil
}

// parseExplain parses EXPLAIN [ANALYZE] SELECT ....
func (p *parser) parseExplain() (Stmt, error) {
	p.advance() // EXPLAIN
	ex := &Explain{}
	if p.accept("ANALYZE") {
		ex.Analyze = true
	}
	t := p.peek()
	if !t.is("SELECT") {
		return nil, errorf("%d:%d: EXPLAIN expects a SELECT, got %q", t.line, t.col, t.text)
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	ex.Sel = sel.(*Select)
	return ex, nil
}

// parseType parses the TYPE declarations of Figure 2.
func (p *parser) parseType() (Stmt, error) {
	p.advance() // TYPE
	name, err := p.ident("type name")
	if err != nil {
		return nil, err
	}
	d := &TypeDecl{Name: name}
	if p.accept("SUBTYPE") {
		if err := p.expect("OF"); err != nil {
			return nil, err
		}
		d.Super, err = p.ident("supertype name")
		if err != nil {
			return nil, err
		}
	}
	t := p.peek()
	switch {
	case t.is("ENUMERATION"):
		p.advance()
		if err := p.expect("OF"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		d.Kind = TypeEnum
		for !p.peek().is(")") {
			v := p.peek()
			if v.kind != tString {
				return nil, errorf("%d:%d: enumeration values must be strings", v.line, v.col)
			}
			p.advance()
			d.EnumVals = append(d.EnumVals, v.text)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}

	case t.is("OBJECT"), t.is("TUPLE"):
		if p.accept("OBJECT") {
			d.Object = true
		}
		if err := p.expect("TUPLE"); err != nil {
			return nil, err
		}
		d.Kind = TypeTuple
		fields, err := p.parseFieldList()
		if err != nil {
			return nil, err
		}
		d.Fields = fields
		// Optional FUNCTION declarations (Figure 2's IncreaseSalary).
		for p.accept("FUNCTION") {
			fn, err := p.ident("function name")
			if err != nil {
				return nil, err
			}
			d.Methods = append(d.Methods, fn)
			// Skip the signature parenthesis.
			if p.peek().is("(") {
				if err := p.skipParens(); err != nil {
					return nil, err
				}
			}
		}

	case t.is("SET"), t.is("BAG"), t.is("LIST"), t.is("ARRAY"):
		d.Kind = TypeColl
		ref, err := p.parseTypeRef()
		if err != nil {
			return nil, err
		}
		d.CollKind = ref.CollKind
		d.Elem = ref.Elem

	default:
		return nil, errorf("%d:%d: unexpected %q in TYPE declaration", t.line, t.col, t.text)
	}
	return d, nil
}

func (p *parser) skipParens() error {
	if err := p.expect("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		if p.atEOF() {
			return errorf("unbalanced parentheses")
		}
		t := p.advance()
		if t.is("(") {
			depth++
		}
		if t.is(")") {
			depth--
		}
	}
	return nil
}

func (p *parser) parseFieldList() ([]FieldDecl, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []FieldDecl
	for !p.peek().is(")") {
		name, err := p.ident("field name")
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		ref, err := p.parseTypeRef()
		if err != nil {
			return nil, err
		}
		out = append(out, FieldDecl{Name: name, Type: ref})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseTypeRef() (*TypeRef, error) {
	t := p.peek()
	for _, ck := range []struct {
		kw   string
		kind value.Kind
	}{{"SET", value.KSet}, {"BAG", value.KBag}, {"LIST", value.KList}, {"ARRAY", value.KArray}} {
		if t.is(ck.kw) && p.peekAt(1).is("OF") {
			p.advance()
			p.advance()
			elem, err := p.parseTypeRef()
			if err != nil {
				return nil, err
			}
			return &TypeRef{CollKind: ck.kind, Elem: elem}, nil
		}
	}
	if t.is("TUPLE") && p.peekAt(1).is("(") {
		p.advance()
		fields, err := p.parseFieldList()
		if err != nil {
			return nil, err
		}
		return &TypeRef{Fields: fields}, nil
	}
	name, err := p.ident("type name")
	if err != nil {
		return nil, err
	}
	return &TypeRef{Name: name}, nil
}

func (p *parser) parseTable() (Stmt, error) {
	p.advance() // TABLE
	name, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	cols, err := p.parseFieldList()
	if err != nil {
		return nil, err
	}
	return &TableDecl{Name: name, Cols: cols}, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	p.advance() // CREATE
	if err := p.expect("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident("view name")
	if err != nil {
		return nil, err
	}
	v := &ViewDecl{Name: name}
	if p.peek().is("(") {
		p.advance()
		for !p.peek().is(")") {
			c, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			v.Cols = append(v.Cols, c)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	// Optional outer parenthesis around the select/union body (Figure 5).
	wrapped := p.accept("(")
	for {
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		v.Selects = append(v.Selects, s.(*Select))
		if !p.accept("UNION") {
			break
		}
		// Each arm may itself be parenthesised.
		if p.accept("(") {
			arm, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			v.Selects = append(v.Selects, arm.(*Select))
			if !p.accept("UNION") {
				break
			}
		}
	}
	if wrapped {
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	s := &Select{}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Proj = append(s.Proj, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		tr := TableRef{Table: name}
		// Optional alias: a bare identifier that is not a clause keyword.
		if t := p.peek(); t.kind == tIdent && !isClauseKeyword(t.text) {
			tr.Alias = t.text
			p.advance()
		}
		s.From = append(s.From, tr)
		if !p.accept(",") {
			break
		}
	}
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.peek().is("GROUP") {
		p.advance()
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	return s, nil
}

func isClauseKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "GROUP", "UNION", "AND", "OR", "ORDER", "FROM", "SELECT", "AS", "ON":
		return true
	}
	return false
}

func (p *parser) parseInsert() (Stmt, error) {
	p.advance() // INSERT
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Expr
		for !p.peek().is(")") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(",") {
			break
		}
	}
	return ins, nil
}

// --- expressions ---
// Precedence: OR < AND < NOT < comparison < additive < multiplicative < unary < primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().is("OR") {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().is("AND") {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.peek().is("NOT") {
		p.advance()
		a, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{Arg: a}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.peek().is(op) {
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Bin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.peek().is("+") || p.peek().is("-") {
		op := p.advance().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().is("*") || p.peek().is("/") {
		op := p.advance().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().is("-") {
		p.advance()
		a, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := a.(*Lit); ok {
			switch lit.Val.K {
			case value.KInt:
				return &Lit{Val: value.Int(-lit.Val.I)}, nil
			case value.KReal:
				return &Lit{Val: value.Real(-lit.Val.F())}, nil
			}
		}
		return &App{Fn: "NEG", Args: []Expr{a}}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, errorf("%d:%d: bad number %q", t.line, t.col, t.text)
			}
			return &Lit{Val: value.Real(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errorf("%d:%d: bad number %q", t.line, t.col, t.text)
		}
		return &Lit{Val: value.Int(n)}, nil

	case tString:
		p.advance()
		return &Lit{Val: value.String(t.text)}, nil

	case tParam:
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, errorf("%d:%d: bad parameter $%s (parameters are $1, $2, ...)", t.line, t.col, t.text)
		}
		return &Param{Index: n}, nil

	case tIdent:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			p.advance()
			return &Lit{Val: value.True}, nil
		case "FALSE":
			p.advance()
			return &Lit{Val: value.False}, nil
		case "NULL":
			p.advance()
			return &Lit{Val: value.Null}, nil
		case "ALL", "EXIST":
			if p.peekAt(1).is("(") {
				all := strings.EqualFold(t.text, "ALL")
				p.advance()
				p.advance()
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return &Quant{All: all, Arg: arg}, nil
			}
		case "SET", "BAG", "LIST", "ARRAY":
			if p.peekAt(1).is("(") {
				kind := map[string]value.Kind{"SET": value.KSet, "BAG": value.KBag, "LIST": value.KList, "ARRAY": value.KArray}[strings.ToUpper(t.text)]
				p.advance()
				elems, err := p.parseArgList()
				if err != nil {
					return nil, err
				}
				return &CollLit{Kind: kind, Elems: elems}, nil
			}
		case "TUPLE":
			if p.peekAt(1).is("(") {
				p.advance()
				p.advance()
				tl := &TupleLit{}
				for !p.peek().is(")") {
					n, err := p.ident("field name")
					if err != nil {
						return nil, err
					}
					if err := p.expect(":"); err != nil {
						return nil, err
					}
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					tl.Names = append(tl.Names, n)
					tl.Elems = append(tl.Elems, e)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return tl, nil
			}
		}
		p.advance()
		// Function application.
		if p.peek().is("(") {
			args, err := p.parseArgList()
			if err != nil {
				return nil, err
			}
			return &App{Fn: t.text, Args: args}, nil
		}
		// Qualified reference R.attr.
		if p.peek().is(".") {
			p.advance()
			attr, err := p.ident("attribute name")
			if err != nil {
				return nil, err
			}
			return &Ref{Qualifier: t.text, Name: attr}, nil
		}
		return &Ref{Name: t.text}, nil

	case tPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errorf("%d:%d: unexpected token %q", t.line, t.col, t.text)
}

func (p *parser) parseArgList() ([]Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []Expr
	for !p.peek().is(")") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}
