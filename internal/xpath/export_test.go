package xpath

import (
	"slices"
	"strings"
	"unsafe"

	"dhtindex/internal/descriptor"
)

// PatternSize is the size of the struct behind a Query's pointer.
const PatternSize = unsafe.Sizeof(pattern{})

// CountNodes walks the pattern tree and counts its nodes: the reference
// the derived tests hold Query.Constraints against.
func CountNodes(q Query) int {
	if q.root == nil {
		return 0
	}
	var count func(n *node) int
	count = func(n *node) int {
		total := 1
		for _, k := range n.kids {
			total += count(k)
		}
		return total
	}
	return count(&q.root.node)
}

// CoversWalk is Covers without the signature test: the tree walk alone.
func CoversWalk(q, other Query) bool { return q.coversWalk(other) }

// Signature returns the constraint signature frozen into q.
func Signature(q Query) uint64 {
	if q.root == nil {
		return 0
	}
	return q.root.sig
}

// DeriveSignature recomputes q's constraint signature by a walk of its
// own: the reference the derived tests hold Signature against.
func DeriveSignature(q Query) uint64 {
	if q.root == nil {
		return 0
	}
	var sig uint64
	var walk func(n *node, path uint64)
	walk = func(n *node, path uint64) {
		if n.name == Wildcard || n.desc {
			return
		}
		path = sigPath(path, n.name)
		if _, form := classifyValue(n.value); n.value != "" && form == formExact {
			sig |= sigBits(path, n.value)
		}
		for _, k := range n.kids {
			walk(k, path)
		}
	}
	walk(&q.root.node, sigRoot)
	return sig
}

// Reference is what the reference renderer makes of a pattern tree: its
// canonical form, node count and constraint signature.
type Reference struct {
	Form        string
	Constraints int
	Sig         uint64
}

// ReferenceOf renders a copy of q's frozen tree with the reference
// renderer. A constructor that ordered, deduplicated or rendered the tree
// differently gets a different answer here.
func ReferenceOf(q Query) Reference {
	if q.root == nil {
		return Reference{}
	}
	return reference(referenceClone(&q.root.node))
}

// ReferenceParse parses input into the parser's raw tree, before any
// normalization, and renders it with the reference renderer.
func ReferenceParse(input string) (Reference, error) {
	p := &parser{in: input}
	root, err := p.parsePath(true)
	if err != nil {
		return Reference{}, err
	}
	if p.pos != len(p.in) {
		return Reference{}, p.errf("trailing input")
	}
	return reference(root), nil
}

// ReferenceMostSpecific builds d's raw pattern tree one node at a time and
// renders it with the reference renderer.
func ReferenceMostSpecific(d descriptor.Descriptor) Reference {
	var build func(e *descriptor.Element) *node
	build = func(e *descriptor.Element) *node {
		n := &node{name: e.Name}
		if e.IsLeaf() {
			n.value = e.Value
			return n
		}
		for _, c := range e.Children {
			n.kids = append(n.kids, build(c))
		}
		return n
	}
	return reference(build(d.Root))
}

func reference(root *node) Reference {
	form, count, sig := referenceCanonicalize(root, true, sigRoot)
	return Reference{Form: form, Constraints: count, Sig: sig}
}

// referenceClone deep-copies a pattern subtree one node at a time.
func referenceClone(n *node) *node {
	out := &node{name: n.name, desc: n.desc, value: n.value}
	for _, k := range n.kids {
		out.kids = append(out.kids, referenceClone(k))
	}
	return out
}

// referenceCanonicalize is the reference renderer: every subtree renders
// its own string, and a parent sorts and deduplicates its predicates by
// those strings and copies them into its own. It sorts n's predicates in
// place, like canonicalize, and returns n's canonical form, node count and
// signature.
func referenceCanonicalize(n *node, top bool, path uint64) (string, int, uint64) {
	type rendered struct {
		kid   *node
		str   string
		count int
	}
	var sig uint64
	if path != 0 && n.name != Wildcard && !n.desc {
		path = sigPath(path, n.name)
		if n.value != "" {
			if _, form := classifyValue(n.value); form == formExact {
				sig = sigBits(path, n.value)
			}
		}
	} else {
		path = 0
	}
	var kids []rendered
	count := 1
	for _, k := range n.kids {
		str, c, s := referenceCanonicalize(k, false, path)
		kids = append(kids, rendered{kid: k, str: str, count: c})
		sig |= s
	}
	slices.SortStableFunc(kids, func(a, b rendered) int { return strings.Compare(a.str, b.str) })
	kids = slices.CompactFunc(kids, func(a, b rendered) bool { return a.str == b.str })
	n.kids = n.kids[:len(kids)]
	for i, r := range kids {
		n.kids[i] = r.kid
		count += r.count
	}
	var sb strings.Builder
	switch {
	case n.desc:
		sb.WriteString("//")
	case top:
		sb.WriteString("/")
	}
	sb.WriteString(n.name)
	if n.value != "" {
		sb.WriteByte('=')
		sb.WriteString(referenceEscaper.Replace(n.value))
	}
	for _, r := range kids {
		sb.WriteByte('[')
		sb.WriteString(r.str)
		sb.WriteByte(']')
	}
	return sb.String(), count, sig
}

// referenceEscaper escapes a value's metacharacters as canonical forms do.
var referenceEscaper = strings.NewReplacer(`\`, `\\`, "[", `\[`, "]", `\]`, "/", `\/`, "=", `\=`)
