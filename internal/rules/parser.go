package rules

import (
	"fmt"
	"strconv"
	"strings"

	"lera/internal/term"
	"lera/internal/value"
)

// Rule is a compiled rewrite rule: "if the left term appears in the query
// under the given set of constraints, it is rewritten as the given right
// term after the application of the given set of methods" (Section 4.1).
type Rule struct {
	Name        string
	LHS         *term.Term
	Constraints []*term.Term
	RHS         *term.Term
	Methods     []*term.Term
	// Line and Col locate the "rule" keyword in the source the rule was
	// parsed from (1-based; zero for rules built programmatically), so
	// diagnostics can point at the offending declaration.
	Line, Col int
}

// Decreasing reports whether the rule's right-hand side has strictly fewer
// nodes than its left-hand side — the paper's §4.2 criterion for rules
// that are guaranteed to terminate when applied alone.
func (r *Rule) Decreasing() bool { return r.RHS.Size() < r.LHS.Size() }

// String renders the rule in the concrete syntax.
func (r *Rule) String() string {
	var sb strings.Builder
	sb.WriteString(r.Name)
	sb.WriteString(": ")
	sb.WriteString(r.LHS.String())
	sb.WriteString(" / ")
	sb.WriteString(joinTerms(r.Constraints))
	sb.WriteString(" --> ")
	sb.WriteString(r.RHS.String())
	sb.WriteString(" / ")
	sb.WriteString(joinTerms(r.Methods))
	return sb.String()
}

func joinTerms(ts []*term.Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// Infinite is the block limit meaning "apply up to saturation".
const Infinite = -1

// Block groups rules with an application limit (§4.2): each time a rule
// condition is checked the remaining limit decreases by one.
type Block struct {
	Name  string
	Rules []string
	Limit int // Infinite or a non-negative budget
	// Line and Col locate the "block" keyword in the source (1-based;
	// zero for blocks built programmatically).
	Line, Col int
}

// Seq is the meta-rule forcing blocks to run in order, at most Limit times
// around the whole list (§4.2).
type Seq struct {
	Blocks []string
	Limit  int
	// Line and Col locate the "seq" keyword in the source (1-based; zero
	// when built programmatically).
	Line, Col int
}

// RuleSet is the result of parsing a rule program: rules, blocks and the
// (at most one) sequence meta-rule.
type RuleSet struct {
	Rules      map[string]*Rule
	RuleOrder  []string
	Blocks     map[string]*Block
	BlockOrder []string
	Sequence   *Seq
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{Rules: map[string]*Rule{}, Blocks: map[string]*Block{}}
}

// Merge adds all definitions of other into rs, overriding same-named rules
// and blocks and replacing the sequence if other declares one — the
// database implementor's extension mechanism.
func (rs *RuleSet) Merge(other *RuleSet) {
	for _, n := range other.RuleOrder {
		if _, dup := rs.Rules[n]; !dup {
			rs.RuleOrder = append(rs.RuleOrder, n)
		}
		rs.Rules[n] = other.Rules[n]
	}
	for _, n := range other.BlockOrder {
		if _, dup := rs.Blocks[n]; !dup {
			rs.BlockOrder = append(rs.BlockOrder, n)
		}
		rs.Blocks[n] = other.Blocks[n]
	}
	if other.Sequence != nil {
		rs.Sequence = other.Sequence
	}
}

// ValidateBlocks checks that every block references declared rules.
func (rs *RuleSet) ValidateBlocks() error {
	for _, bn := range rs.BlockOrder {
		b := rs.Blocks[bn]
		for _, rn := range b.Rules {
			if _, ok := rs.Rules[rn]; !ok {
				return fmt.Errorf("rules: block %q references unknown rule %q", b.Name, rn)
			}
		}
	}
	return nil
}

// Validate checks block-to-rule references and that the sequence (if any)
// references declared blocks. Parse only checks blocks, so that a rule
// source can carry a sequence over blocks defined elsewhere and be merged
// before full validation.
func (rs *RuleSet) Validate() error {
	if err := rs.ValidateBlocks(); err != nil {
		return err
	}
	if rs.Sequence != nil {
		for _, bn := range rs.Sequence.Blocks {
			if _, ok := rs.Blocks[bn]; !ok {
				return fmt.Errorf("rules: seq references unknown block %q", bn)
			}
		}
	}
	return nil
}

// Parse parses a rule program.
func Parse(src string) (*RuleSet, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	rs := NewRuleSet()
	for !p.atEOF() {
		switch {
		case p.peekIdent("rule"):
			r, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			if _, dup := rs.Rules[r.Name]; dup {
				return nil, fmt.Errorf("rules: duplicate rule %q", r.Name)
			}
			rs.Rules[r.Name] = r
			rs.RuleOrder = append(rs.RuleOrder, r.Name)
		case p.peekIdent("block"):
			b, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			if _, dup := rs.Blocks[b.Name]; dup {
				return nil, fmt.Errorf("rules: duplicate block %q", b.Name)
			}
			rs.Blocks[b.Name] = b
			rs.BlockOrder = append(rs.BlockOrder, b.Name)
		case p.peekIdent("seq"):
			s, err := p.parseSeq()
			if err != nil {
				return nil, err
			}
			rs.Sequence = s
		default:
			t := p.peek()
			return nil, fmt.Errorf("rules: %d:%d: expected 'rule', 'block' or 'seq', got %q", t.line, t.col, t.text)
		}
	}
	if err := rs.ValidateBlocks(); err != nil {
		return nil, err
	}
	return rs, nil
}

// ParseSequence parses a standalone "seq({...}, n);" declaration without
// validating block references — callers merge it into a rule set that
// defines the blocks.
func ParseSequence(src string) (*Seq, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if !p.peekIdent("seq") {
		t := p.peek()
		return nil, fmt.Errorf("rules: %d:%d: expected 'seq', got %q", t.line, t.col, t.text)
	}
	s, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("rules: %d:%d: unexpected %q after sequence", t.line, t.col, t.text)
	}
	return s, nil
}

// MustParse parses or panics; for embedded built-in rule programs.
func MustParse(src string) *RuleSet {
	rs, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return rs
}

type parser struct {
	toks []token
	pos  int
	// depth tracks parenthesis nesting: at depth 0 a '/' is always the
	// rule-section delimiter, never division; inside parentheses it is
	// division.
	depth int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) peekIdent(text string) bool {
	t := p.peek()
	return (t.kind == tIdent || t.kind == tVar) && strings.EqualFold(t.text, text)
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind == tPunct && t.text == s {
		p.advance()
		return nil
	}
	return fmt.Errorf("rules: %d:%d: expected %q, got %q", t.line, t.col, s, t.text)
}

func (p *parser) expectOp(s string) error {
	t := p.peek()
	if t.kind == tOp && t.text == s {
		p.advance()
		return nil
	}
	return fmt.Errorf("rules: %d:%d: expected %q, got %q", t.line, t.col, s, t.text)
}

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.kind == tPunct && t.text == s
}

func (p *parser) atOp(s string) bool {
	t := p.peek()
	return t.kind == tOp && t.text == s
}

func (p *parser) parseName(what string) (string, error) {
	t := p.peek()
	if t.kind != tIdent && t.kind != tVar && t.kind != tString {
		return "", fmt.Errorf("rules: %d:%d: expected %s name, got %q", t.line, t.col, what, t.text)
	}
	p.advance()
	return t.text, nil
}

// parseRule parses: rule <name>: <lhs> [/ constraints] --> <rhs> [/ methods] ;
func (p *parser) parseRule() (*Rule, error) {
	kw := p.advance() // 'rule'
	name, err := p.parseName("rule")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var constraints []*term.Term
	if p.atOp("/") {
		p.advance()
		constraints, err = p.parseTermList(func() bool { return p.atOp("-->") })
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectOp("-->"); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var methods []*term.Term
	if p.atOp("/") {
		p.advance()
		methods, err = p.parseTermList(func() bool { return p.atPunct(";") })
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	r := &Rule{Name: name, LHS: lhs, Constraints: constraints, RHS: rhs, Methods: methods,
		Line: kw.line, Col: kw.col}
	if r.LHS.Kind != term.Fun {
		return nil, fmt.Errorf("rules: %d:%d: rule %q: left-hand side must be a functional expression", kw.line, kw.col, name)
	}
	return r, nil
}

// parseTermList parses comma-separated terms until stop() or the list is
// empty (a bare delimiter means an empty list, as in "lhs / --> rhs /").
func (p *parser) parseTermList(stop func() bool) ([]*term.Term, error) {
	var out []*term.Term
	if stop() || p.atPunct(";") {
		return out, nil
	}
	for {
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if p.atPunct(",") {
			p.advance()
			continue
		}
		return out, nil
	}
}

// parseBlock parses: block(<name>, {<rule>, ...}, <limit>);
func (p *parser) parseBlock() (*Block, error) {
	kw := p.advance() // 'block'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	name, err := p.parseName("block")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	names, err := p.parseNameSet("rule")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	limit, err := p.parseLimit()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &Block{Name: name, Rules: names, Limit: limit, Line: kw.line, Col: kw.col}, nil
}

// parseSeq parses: seq({<block>, ...}, <limit>);
func (p *parser) parseSeq() (*Seq, error) {
	kw := p.advance() // 'seq'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	names, err := p.parseNameSet("block")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	limit, err := p.parseLimit()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &Seq{Blocks: names, Limit: limit, Line: kw.line, Col: kw.col}, nil
}

func (p *parser) parseNameSet(what string) ([]string, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var names []string
	for !p.atPunct("}") {
		n, err := p.parseName(what)
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if p.atPunct(",") {
			p.advance()
		}
	}
	p.advance() // '}'
	return names, nil
}

func (p *parser) parseLimit() (int, error) {
	t := p.peek()
	if (t.kind == tIdent || t.kind == tVar) && strings.EqualFold(t.text, "inf") {
		p.advance()
		return Infinite, nil
	}
	if t.kind == tNumber {
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("rules: %d:%d: invalid limit %q", t.line, t.col, t.text)
		}
		return n, nil
	}
	return 0, fmt.Errorf("rules: %d:%d: expected limit (number or inf), got %q", t.line, t.col, t.text)
}

// --- term expressions with infix operators ---
//
// Precedence (loosest to tightest):
//   OR < AND < NOT < comparison (= <> < > <= >=) < + - < * / < unary - < primary

func (p *parser) parseExpr() (*term.Term, error) { return p.parseOr() }

func (p *parser) parseOr() (*term.Term, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekIdent("OR") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = term.F("OR", left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (*term.Term, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peekIdent("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = term.F("AND", left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (*term.Term, error) {
	if p.peekIdent("NOT") {
		p.advance()
		arg, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return term.F("NOT", arg), nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (*term.Term, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.atOp(op) {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return term.F(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (*term.Term, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := p.advance().text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = term.F(op, left, right)
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (*term.Term, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") {
		// A '/' also delimits rule sections; it is division only inside
		// parentheses.
		if p.atOp("/") && p.depth == 0 {
			break
		}
		op := p.advance().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = term.F(op, left, right)
	}
	return left, nil
}

func (p *parser) parseUnary() (*term.Term, error) {
	if p.atOp("-") {
		p.advance()
		var arg *term.Term
		var err error
		if p.atPunct("(") {
			// -(x) negates; -(x, y) is the prefix form of x - y.
			var args []*term.Term
			if args, err = p.parseArgs(); err == nil && len(args) != 1 {
				return term.F("-", args...), nil
			}
			if err == nil {
				arg = args[0]
			}
		} else {
			arg, err = p.parseUnary()
		}
		if err != nil {
			return nil, err
		}
		if arg.Kind == term.Const {
			if arg.Val.K == value.KInt {
				return term.Num(-arg.Val.I), nil
			}
			if arg.Val.K == value.KReal {
				return term.Flt(-arg.Val.F()), nil
			}
		}
		return term.F("NEG", arg), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*term.Term, error) {
	t := p.peek()
	switch t.kind {
	case tNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".e") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("rules: %d:%d: bad number %q", t.line, t.col, t.text)
			}
			return term.Flt(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("rules: %d:%d: bad number %q", t.line, t.col, t.text)
		}
		return term.Num(n), nil

	case tString:
		p.advance()
		return term.Str(t.text), nil

	case tSeqVar:
		p.advance()
		return term.SV(t.text), nil

	case tVar:
		p.advance()
		// Application with a single-letter head is a function variable
		// (Figure 6: F, G, ..., and p(x) in Figure 11).
		if p.atPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if isFunVarName(t.text) {
				return term.FV(t.text, args...), nil
			}
			return term.F(t.text, args...), nil
		}
		return term.V(t.text), nil

	case tIdent:
		p.advance()
		switch strings.ToUpper(t.text) {
		case "TRUE":
			return term.TrueT(), nil
		case "FALSE":
			return term.FalseT(), nil
		}
		if p.atPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if isFunVarName(t.text) {
				return term.FV(t.text, args...), nil
			}
			return term.F(t.text, args...), nil
		}
		// A bare multi-letter identifier is a symbolic constant
		// (e.g. a type name in ISA(x, Point)).
		return term.Str(t.text), nil

	case tOp:
		// The prefix form of an operator, as a term renders it: =(x, y).
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == "(" && t.text != "-->" {
			p.advance()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return term.F(t.text, args...), nil
		}

	case tPunct:
		if t.text == "(" {
			p.advance()
			p.depth++
			e, err := p.parseExpr()
			p.depth--
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("rules: %d:%d: unexpected token %q", t.line, t.col, t.text)
}

func (p *parser) parseArgs() ([]*term.Term, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.depth++
	defer func() { p.depth-- }()
	var args []*term.Term
	for !p.atPunct(")") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}
