package esql

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString
	tPunct // ( ) , ; . :
	tOp    // = <> < > <= >= + - * /
	tParam // $1, $2, ... (text holds the digits)
)

// token is one lexeme. Its text is a slice of the source (a string
// literal's only when it holds no doubled quote).
type token struct {
	kind      tokKind
	text      string
	line, col int
}

func (t token) is(text string) bool {
	return (t.kind == tIdent && strings.EqualFold(t.text, text)) ||
		((t.kind == tPunct || t.kind == tOp) && t.text == text)
}

// lexer walks the source's bytes; line and col count runes, as error
// messages report them.
type lexer struct {
	src       string
	pos       int
	line, col int
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	// About four bytes a token in a query; a long string literal must not
	// size the buffer.
	toks := make([]token, 0, min(len(src)/4+4, 1024))
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

// runeAt decodes the rune at byte offset i (0 past the end). An invalid
// byte decodes as utf8.RuneError of width 1.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

// peekNext is the rune after the current one.
func (l *lexer) peekNext() rune {
	_, n := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + n)
	return r
}

func (l *lexer) advance() rune {
	r, n := l.runeAt(l.pos)
	l.pos += n
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		r := l.peek()
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		if r == '-' && l.peekNext() == '-' {
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: line, col: col}, nil
	}
	start := l.pos
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		for l.pos < len(l.src) {
			c := l.peek()
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
				break
			}
			l.advance()
		}
		return token{kind: tIdent, text: l.src[start:l.pos], line: line, col: col}, nil

	case unicode.IsDigit(r):
		seenDot := false
		for l.pos < len(l.src) {
			c := l.peek()
			if c == '.' && !seenDot && unicode.IsDigit(l.peekNext()) {
				seenDot = true
			} else if !unicode.IsDigit(c) {
				break
			}
			l.advance()
		}
		return token{kind: tNumber, text: l.src[start:l.pos], line: line, col: col}, nil

	case r == '\'':
		l.advance()
		escaped := false
		for {
			if l.pos >= len(l.src) {
				return token{}, errorf("%d:%d: unterminated string", line, col)
			}
			if l.advance() == '\'' {
				if l.peek() != '\'' {
					break
				}
				escaped = true
				l.advance()
			}
		}
		return token{kind: tString, text: unquote(l.src[start+1:l.pos-1], escaped), line: line, col: col}, nil

	case r == '$':
		if !unicode.IsDigit(l.peekNext()) {
			return token{}, errorf("%d:%d: expected parameter number after '$'", line, col)
		}
		l.advance()
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
		return token{kind: tParam, text: l.src[start+1 : l.pos], line: line, col: col}, nil
	}
	if next := l.peekNext(); next == '>' && r == '<' || next == '=' && (r == '<' || r == '>') {
		l.advance()
		l.advance()
		return token{kind: tOp, text: l.src[start:l.pos], line: line, col: col}, nil
	}
	switch r {
	case '(', ')', ',', ';', '.', ':':
		l.advance()
		return token{kind: tPunct, text: l.src[start:l.pos], line: line, col: col}, nil
	case '=', '<', '>', '+', '-', '*', '/':
		l.advance()
		return token{kind: tOp, text: l.src[start:l.pos], line: line, col: col}, nil
	}
	return token{}, errorf("%d:%d: unexpected character %q", line, col, string(r))
}

// unquote is a string literal's value from the text between its quotes:
// a doubled quote stands for one, and an invalid UTF-8 byte reads as
// U+FFFD, as it does in every other token.
func unquote(s string, escaped bool) string {
	if escaped {
		s = strings.ReplaceAll(s, "''", "'")
	}
	if utf8.ValidString(s) {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		sb.WriteRune(r)
	}
	return sb.String()
}
