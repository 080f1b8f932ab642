// Package rules implements the paper's rule language (Figure 6): term
// rewriting rules of the form
//
//	rule <name>: <lhs> / <constraints> --> <rhs> / <methods> ;
//
// extended with the meta-rule language of Section 4.2:
//
//	block(<name>, {<rule>, ...}, <limit>);
//	seq({<block>, ...}, <limit>);
//
// where <limit> is a non-negative integer or "inf" (application up to
// saturation). Terms use the conventions of Figure 6: single-letter
// identifiers (optionally followed by one digit or letter, e.g. x, f2,
// gs) are variables; a variable immediately followed by '*' is a
// collection variable; a single-letter identifier applied to arguments is
// a function variable; longer identifiers are function symbols. Infix
// comparison (= <> < > <= >=), arithmetic (+ - * /) and the connectives
// AND, OR, NOT are accepted and parsed into their prefix functional form.
package rules

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tVar    // variable (single-letter rule per package comment)
	tSeqVar // x*
	tNumber // integer or real
	tString // 'quoted'
	tPunct  // ( ) { } , ; : /
	tOp     // = <> < > <= >= + - * / -->
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src), line: 1, col: 1}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekRuneAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		r := l.peekRune()
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		// SQL-style comment to end of line.
		if r == '-' && l.peekRuneAt(1) == '-' && l.peekRuneAt(2) != '>' {
			for l.pos < len(l.src) && l.peekRune() != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: line, col: col}, nil
	}
	r := l.peekRune()

	switch {
	case unicode.IsLetter(r) || r == '_':
		var sb strings.Builder
		for l.pos < len(l.src) {
			c := l.peekRune()
			if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' {
				// A '-' inside an identifier is allowed only when
				// followed by a letter/digit (e.g. set-union), so that
				// "x --> y" lexes as an arrow, and "x - y" as minus.
				if c == '-' {
					n1, n2 := l.peekRuneAt(1), l.peekRuneAt(2)
					if !(unicode.IsLetter(n1) || unicode.IsDigit(n1)) || (n1 == '-' && n2 == '>') {
						break
					}
					if n1 == '-' {
						break
					}
				}
				sb.WriteRune(c)
				l.advance()
				continue
			}
			break
		}
		text := sb.String()
		// Collection variable: variable immediately followed by '*'.
		if isVarName(text) && l.peekRune() == '*' {
			l.advance()
			return token{kind: tSeqVar, text: text, line: line, col: col}, nil
		}
		if isVarName(text) {
			return token{kind: tVar, text: text, line: line, col: col}, nil
		}
		return token{kind: tIdent, text: text, line: line, col: col}, nil

	case unicode.IsDigit(r):
		var sb strings.Builder
		seenDot := false
		for l.pos < len(l.src) {
			c := l.peekRune()
			if unicode.IsDigit(c) {
				sb.WriteRune(c)
				l.advance()
				continue
			}
			if c == '.' && !seenDot && unicode.IsDigit(l.peekRuneAt(1)) {
				seenDot = true
				sb.WriteRune(c)
				l.advance()
				continue
			}
			break
		}
		// An exponent, as a real renders it: 1e-07, 1e+21.
		if n1, n2 := l.peekRuneAt(1), l.peekRuneAt(2); l.peekRune() == 'e' && (n1 == '-' || n1 == '+') && unicode.IsDigit(n2) {
			for i := 0; i < 2; i++ {
				sb.WriteRune(l.advance())
			}
			for l.pos < len(l.src) && unicode.IsDigit(l.peekRune()) {
				sb.WriteRune(l.advance())
			}
		}
		return token{kind: tNumber, text: sb.String(), line: line, col: col}, nil

	case r == '\'':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("rules: %d:%d: unterminated string literal", line, col)
			}
			c := l.advance()
			if c == '\'' {
				if l.peekRune() == '\'' { // escaped quote
					sb.WriteRune('\'')
					l.advance()
					continue
				}
				break
			}
			sb.WriteRune(c)
		}
		return token{kind: tString, text: sb.String(), line: line, col: col}, nil
	}

	// Operators and punctuation.
	two := string(r) + string(l.peekRuneAt(1))
	switch two {
	case "--":
		if l.peekRuneAt(2) == '>' {
			l.advance()
			l.advance()
			l.advance()
			return token{kind: tOp, text: "-->", line: line, col: col}, nil
		}
	case "<>", "<=", ">=":
		l.advance()
		l.advance()
		return token{kind: tOp, text: two, line: line, col: col}, nil
	}
	switch r {
	case '(', ')', '{', '}', ',', ';', ':':
		l.advance()
		return token{kind: tPunct, text: string(r), line: line, col: col}, nil
	case '/', '=', '<', '>', '+', '-', '*':
		l.advance()
		return token{kind: tOp, text: string(r), line: line, col: col}, nil
	}
	return token{}, fmt.Errorf("rules: %d:%d: unexpected character %q", line, col, string(r))
}

// isVarName reports whether an identifier denotes a variable under the
// Figure 6 convention generalised in the package comment: a lowercase
// letter optionally followed by a single letter or digit.
func isVarName(s string) bool {
	if len(s) == 0 || len(s) > 2 {
		return false
	}
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	if len(s) == 2 {
		c := s[1]
		ok := (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// isFunVarName reports whether an applied identifier is a function
// variable (single letter, as F, G, ... in Figure 6; lowercase p(x) of
// Figure 11 included).
func isFunVarName(s string) bool {
	return len(s) == 1 && unicode.IsLetter(rune(s[0]))
}
