package minisql

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// errSyntax reports lexical or grammatical errors with position info.
var errSyntax = errors.New("minisql: syntax error")

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokKeyword
	tokSymbol
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, symbols verbatim
	num  float64
	pos  int
}

// keywords keeps INSERT, INTO, VALUES, CREATE and TABLE although no
// statement uses them: a SELECT naming a column after one stays refused.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "LIKE": true, "IN": true, "IS": true, "NULL": true,
	"INSERT": true, "INTO": true, "VALUES": true, "CREATE": true,
	"TABLE": true, "AS": true, "TRUE": true, "FALSE": true,
	"BETWEEN": true, "LIMIT": true,
}

// lex tokenizes the input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			// String literal with '' escaping.
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("%w: unterminated string at %d", errSyntax, start)
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.' ||
				input[i] == 'e' || input[i] == 'E' ||
				(input[i] == '+' || input[i] == '-') && (input[i-1] == 'e' || input[i-1] == 'E')) {
				i++
			}
			text := input[start:i]
			var f float64
			if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
				return nil, fmt.Errorf("%w: bad number %q at %d", errSyntax, text, start)
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: f, pos: start})
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		default:
			start := i
			// Two-character operators first.
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					toks = append(toks, token{kind: tokSymbol, text: two, pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '%':
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: start})
				i++
			default:
				return nil, fmt.Errorf("%w: unexpected character %q at %d", errSyntax, string(c), start)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
