package xpath

import (
	"fmt"
	"strings"
)

// SyntaxError describes a parse failure with its input position.
type SyntaxError struct {
	Input string
	Pos   int
	Msg   string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %s at offset %d in %q", e.Msg, e.Pos, e.Input)
}

// Parse parses the canonical dialect:
//
//	query    := axis step ( axis step )*
//	axis     := '/' | '//'
//	step     := name valueOpt pred*
//	pred     := '[' axisOpt step ( axis step )* ']'
//	valueOpt := ( '=' value )?
//	name     := [A-Za-z0-9_.-]+ | '*'
//	value    := ( [^\\[\]/=] | '\\' [\\[\]/=] )+
//
// Examples: /article[author[first=John][last=Smith]][conf=SIGCOMM],
// //author[last=Smith], /article/title=TCP (a path is sugar for nesting).
// An input that is already canonical becomes the query's String as it
// is, without a copy.
func Parse(input string) (Query, error) {
	return parse(input, nil)
}

// ParseWithSchema parses the paper's informal syntax, in which a value
// appears as a path segment after a leaf element (e.g. `title/TCP`,
// `[last/Smith]`). isLeaf reports whether an element name is a leaf in the
// application schema; the segment (or lone predicate) following a leaf
// element is then read as its value constraint. The paper notes (§IV-C)
// that exploiting descriptor structure "requires human input" — the schema
// is that input.
func ParseWithSchema(input string, isLeaf func(name string) bool) (Query, error) {
	if isLeaf == nil {
		return Parse(input)
	}
	return parse(input, isLeaf)
}

type parser struct {
	in     string
	pos    int
	isLeaf func(string) bool
}

func parse(input string, isLeaf func(string) bool) (Query, error) {
	p := &parser{in: input, isLeaf: isLeaf}
	root, err := p.parsePath(true)
	if err != nil {
		return Query{}, err
	}
	if p.pos != len(p.in) {
		return Query{}, p.errf("trailing input")
	}
	if root == nil {
		return Query{}, ErrEmptyQuery
	}
	return freezeFrom(&pattern{node: *root}, input), nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Input: p.in, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// parsePath parses `axis step (axis step)*` and returns the head node of
// the chain (each further step nested as the single predicate of the
// previous one — path syntax is sugar for nesting).
func (p *parser) parsePath(requireAxis bool) (*node, error) {
	head, err := p.parseOne(requireAxis)
	if err != nil {
		return nil, err
	}
	cur := head
	for p.peekAxis() {
		// Paper-style value segment: `title/TCP` — under schema parsing,
		// the segment after a leaf element is that leaf's value, read
		// with value lexing so spaces are allowed ("Scalable Lookup").
		if p.isLeaf != nil && p.isLeaf(cur.name) && cur.value == "" &&
			!strings.HasPrefix(p.in[p.pos:], "//") {
			p.pos++ // consume '/'
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			cur.value = v
			break
		}
		next, err := p.parseOne(true)
		if err != nil {
			return nil, err
		}
		cur.kids = append(cur.kids, next)
		cur = next
	}
	return head, nil
}

// parseOne parses a single step with optional leading axis, value and
// predicates.
func (p *parser) parseOne(requireAxis bool) (*node, error) {
	n := &node{}
	switch {
	case strings.HasPrefix(p.in[p.pos:], "//"):
		n.desc = true
		p.pos += 2
	case strings.HasPrefix(p.in[p.pos:], "/"):
		p.pos++
	default:
		if requireAxis {
			return nil, p.errf("expected '/' or '//'")
		}
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	n.name = name
	if p.pos < len(p.in) && p.in[p.pos] == '=' {
		p.pos++
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		n.value = v
	}
	for p.pos < len(p.in) && p.in[p.pos] == '[' {
		p.pos++
		kid, err := p.parsePath(false)
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.in) || p.in[p.pos] != ']' {
			return nil, p.errf("expected ']'")
		}
		p.pos++
		// Paper-style lone-value predicate on a leaf: `title[TCP]` is not
		// used by the paper, but `[last/Smith]` inside predicates is — it
		// is handled by parsePath above. A leaf with a single bare child
		// constraint is read as a value under schema parsing.
		if p.isLeaf != nil && p.isLeaf(n.name) && n.value == "" &&
			!kid.desc && len(kid.kids) == 0 && kid.value == "" {
			n.value = kid.name
			continue
		}
		n.kids = append(n.kids, kid)
	}
	return n, nil
}

func isNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= '0' && b <= '9' || b == '_' || b == '.' || b == '-'
}

func (p *parser) parseName() (string, error) {
	if p.pos < len(p.in) && p.in[p.pos] == '*' {
		p.pos++
		return Wildcard, nil
	}
	start := p.pos
	for p.pos < len(p.in) && isNameByte(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected element name")
	}
	return p.in[start:p.pos], nil
}

// parseValue reads a value: any run of characters other than the
// metacharacters `[ ] / =`, in which a backslash makes the next
// metacharacter, or a backslash, literal (the escaping canonical forms
// write, see appendValue). Spaces are allowed inside values ("John Smith"
// as a single element value is legal in descriptors).
func (p *parser) parseValue() (string, error) {
	start := p.pos
	escaped := false
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case '[', ']', '/', '=':
			goto done
		case '\\':
			if p.pos+1 == len(p.in) || !isValueMeta(p.in[p.pos+1]) {
				return "", p.errf("expected a metacharacter after '\\'")
			}
			escaped = true
			p.pos++
		}
		p.pos++
	}
done:
	if p.pos == start {
		return "", p.errf("expected value after '='")
	}
	v := p.in[start:p.pos]
	if !escaped {
		return v, nil
	}
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' {
			i++
		}
		out = append(out, v[i])
	}
	return string(out), nil
}

// peekAxis reports whether the next token starts a path continuation.
func (p *parser) peekAxis() bool {
	return p.pos < len(p.in) && p.in[p.pos] == '/'
}

// MustParse parses the canonical dialect and panics on error. Use only for
// compile-time-constant queries in tests and examples.
func MustParse(input string) Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}
