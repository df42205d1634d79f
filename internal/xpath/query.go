// Package xpath implements the paper's query language (§III-B): a subset
// of the XPath addressing language over semi-structured descriptors.
//
// A query is a conjunctive tree pattern. Each pattern node constrains an
// element name (or `*` wildcard), optionally its text value, optionally its
// axis (child `/` or descendant `//`), and carries child constraints
// (XPath predicates). A descriptor matches a query when the pattern tree
// embeds into the descriptor tree.
//
// Queries have a unique canonical form (sorted, deduplicated predicates and
// explicit `=value` constraints) so that equivalent XPath expressions hash
// to the same DHT key, as the paper's footnote 1 requires. The covering
// relation of §III-B — q' ⊒ q iff every descriptor matching q matches q' —
// is decided syntactically on canonical forms.
package xpath

import (
	"bytes"
	"errors"
	"slices"

	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
)

// Wildcard is the element-name wildcard of the XPath dialect.
const Wildcard = "*"

// node is one constraint in the pattern tree.
type node struct {
	name  string  // element name or Wildcard
	desc  bool    // descendant axis (`//`): matches at any strictly lower depth
	value string  // "" = value unconstrained
	kids  []*node // predicate constraints, all must hold
}

// Query is an immutable, normalized tree pattern. The zero Query is empty
// and matches nothing; build queries with Parse, MostSpecific, or Builder.
type Query struct {
	root *pattern
	str  string // canonical form, computed at construction
}

// pattern is a frozen query's root constraint together with what freeze
// derives from the canonical form. It sits behind Query's pointer so that a
// Query stays pointer + string however much is precomputed: responses are
// []Query and are copied by value.
//
// sig is the query's constraint signature, a 64-bit Bloom filter of its
// exact values: two bits per exact-valued node, hashed from the node's name
// path and its value. Only nodes on a signed chain count: the root when it
// is not floating, then child-axis steps named without a wildcard. The chain
// stops at `*` and `//`, and prefix, suffix and contains values add no bits.
// q ⊒ other needs every bit of q's signature in other's (see Covers).
//
// constraints is an int32 so that it fills the padding after the 20-byte
// key and the struct fits the 96-byte allocation size class: every Query
// a response decodes allocates one.
type pattern struct {
	node
	key         keyspace.Key // h(q), the SHA-1 of the canonical form
	constraints int32        // pattern nodes in the tree
	sig         uint64       // constraint signature
}

// zeroKey is h("") — the key of the zero Query, whose canonical form is
// empty.
var zeroKey = keyspace.NewKey("")

// ErrEmptyQuery is returned when parsing or building yields no constraint.
var ErrEmptyQuery = errors.New("xpath: empty query")

// IsZero reports whether the query is the empty (unusable) zero value.
func (q Query) IsZero() bool { return q.root == nil }

// String returns the canonical form. Equal canonical forms ⇔ equivalent
// queries (within the normalization the package performs).
func (q Query) String() string { return q.str }

// Key returns the DHT key of the canonical form — the paper's h(q). The
// hash is taken once, when the query is constructed; Key only reads it.
func (q Query) Key() keyspace.Key {
	if q.root == nil {
		return zeroKey
	}
	return q.root.key
}

// Equal reports whether two queries have identical canonical forms.
func (q Query) Equal(other Query) bool { return q.str == other.str }

// Constraints returns the number of pattern nodes, a rough measure of query
// specificity; the directed search prefers the response entry with the most.
// Like the key it is counted once, at construction.
func (q Query) Constraints() int {
	if q.root == nil {
		return 0
	}
	return int(q.root.constraints)
}

// freeze normalizes the tree rooted at p's node in place and fills in what
// its canonical form determines: the key, the constraint count and the
// constraint signature. The form is rendered into one buffer, on
// the stack while it fits, and the query's string is the one copy made of
// it.
func freeze(p *pattern) Query { return freezeFrom(p, "") }

// freezeFrom is freeze for a pattern parsed from input. When input is
// the canonical form already, as every stored index entry is, the query
// keeps input itself as its string and makes no copy: a form read from a
// store and the query parsed from it then share their bytes.
func freezeFrom(p *pattern, input string) Query {
	var stack [512]byte
	buf, constraints, sig := canonicalize(stack[:0], &p.node, true, sigRoot)
	str := input
	if string(buf) != input {
		str = string(buf)
	}
	p.key = keyspace.NewKey(str)
	p.constraints = int32(constraints)
	p.sig = sig
	return Query{root: p, str: str}
}

// rendered is one predicate of a node being canonicalized: where its form
// lies in the render buffer, brackets excluded, and its node count.
type rendered struct {
	kid        *node
	start, end int
	count      int
}

// canonicalize appends n's canonical form to buf and returns the buffer,
// n's node count and its signature. Along the way it sorts n's predicates
// by canonical form and removes exact duplicate sibling constraints,
// recursively. Top-level nodes are prefixed with their axis; predicate
// heads omit the child-axis slash; values are escaped (see appendValue).
// Each predicate is rendered once, in place: the node orders its
// predicates by their byte ranges in buf and rewrites its own tail only
// when they were out of order or repeated. path is the hash of the
// parent's name path, or 0 when the parent is off every signed chain.
func canonicalize(buf []byte, n *node, top bool, path uint64) ([]byte, int, uint64) {
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
	switch {
	case n.desc:
		buf = append(buf, "//"...)
	case top:
		buf = append(buf, '/')
	}
	buf = append(buf, n.name...)
	if n.value != "" {
		buf = append(buf, '=')
		buf = appendValue(buf, n.value)
	}
	if len(n.kids) == 0 {
		return buf, 1, sig
	}
	var kbuf [8]rendered // most nodes have a handful of predicates: no heap
	kids := kbuf[:0]
	tail := len(buf)
	for _, k := range n.kids {
		buf = append(buf, '[')
		start := len(buf)
		var c int
		var s uint64
		buf, c, s = canonicalize(buf, k, false, path)
		kids = append(kids, rendered{kid: k, start: start, end: len(buf), count: c})
		buf = append(buf, ']')
		sig |= s
	}
	compare := func(a, b rendered) int { return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]) }
	ordered := true
	for i := 1; i < len(kids) && ordered; i++ {
		ordered = compare(kids[i-1], kids[i]) < 0
	}
	if !ordered {
		slices.SortStableFunc(kids, compare)
		kids = slices.CompactFunc(kids, func(a, b rendered) bool { return compare(a, b) == 0 })
		end := len(buf)
		for _, r := range kids {
			buf = append(buf, buf[r.start-1:r.end+1]...)
		}
		buf = append(buf[:tail], buf[end:]...)
		n.kids = n.kids[:len(kids)]
		for i, r := range kids {
			n.kids[i] = r.kid
		}
	}
	count := 1
	for _, r := range kids {
		count += r.count
	}
	return buf, count, sig
}

// appendValue appends a value with the dialect's metacharacters escaped:
// a backslash goes before each `\`, `[`, `]`, `/` and `=`, so that any
// value renders to a form that parses back to it (see parseValue).
func appendValue(buf []byte, v string) []byte {
	start := 0
	for i := 0; i < len(v); i++ {
		if isValueMeta(v[i]) {
			buf = append(buf, v[start:i]...)
			buf = append(buf, '\\')
			start = i
		}
	}
	return append(buf, v[start:]...)
}

// isValueMeta reports whether a rendered value escapes b.
func isValueMeta(b byte) bool {
	switch b {
	case '\\', '[', ']', '/', '=':
		return true
	}
	return false
}

// The signature hashes are FNV-1a over the name path, one '/' after each
// name, continued over the value and finished by a 64-bit mixer.
const (
	sigRoot  uint64 = 14695981039346656037 // FNV-1a offset basis: the empty path
	sigPrime uint64 = 1099511628211
)

// sigPath extends the hash of a name path by one step. It never returns 0,
// which canonicalize reserves for "off every signed chain".
func sigPath(h uint64, name string) uint64 {
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * sigPrime
	}
	return (h^'/')*sigPrime | 1
}

// sigBits returns the two signature bits of the exact value at the name
// path hashed to h. Equal path and value give equal bits; a collision only
// sets bits that let a pair through to the full walk.
func sigBits(h uint64, value string) uint64 {
	for i := 0; i < len(value); i++ {
		h = (h ^ uint64(value[i])) * sigPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return 1<<(h&63) | 1<<(h>>6&63)
}

// slab hands out the nodes and kid-pointer slices of pattern trees from
// two allocations, sized by a count taken before the trees are laid out.
type slab struct {
	nodes []node
	kids  []*node
}

// newSlab makes room for n nodes below the roots, which live in their
// patterns: one kid pointer per node.
func newSlab(n int) slab {
	return slab{nodes: make([]node, n), kids: make([]*node, n)}
}

// next takes the next free node.
func (s *slab) next() *node {
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return n
}

// kidsOf takes n kid pointers, capped so an append cannot run into the
// next node's.
func (s *slab) kidsOf(n int) []*node {
	k := s.kids[:n:n]
	s.kids = s.kids[n:]
	return k
}

// clone deep-copies the subtree at src into dst, taking every node below
// dst from the slab.
func (s *slab) clone(dst, src *node) {
	*dst = node{name: src.name, desc: src.desc, value: src.value}
	if len(src.kids) == 0 {
		return
	}
	dst.kids = s.kidsOf(len(src.kids))
	for i, k := range src.kids {
		dst.kids[i] = s.next()
		s.clone(dst.kids[i], k)
	}
}

// size counts the nodes of a pattern subtree.
func (n *node) size() int {
	total := 1
	for _, k := range n.kids {
		total += k.size()
	}
	return total
}

// cloneQuery deep-copies the tree rooted at n into a new pattern, all its
// nodes in one slab. The copy is not frozen yet.
func cloneQuery(n *node) *pattern {
	p := &pattern{}
	s := newSlab(n.size() - 1)
	s.clone(&p.node, n)
	return p
}

// MostSpecific returns the most specific query (MSD) for a descriptor: the
// pattern that tests the presence of every element and every value of d
// (§III-B). It is the unique minimal query under ⊒ that d matches.
func MostSpecific(d descriptor.Descriptor) Query {
	if d.Root == nil {
		return Query{}
	}
	p := &pattern{}
	s := newSlab(elements(d.Root) - 1)
	s.fromElement(&p.node, d.Root)
	return freeze(p)
}

// elements counts the elements of a descriptor subtree.
func elements(e *descriptor.Element) int {
	total := 1
	for _, c := range e.Children {
		total += elements(c)
	}
	return total
}

// fromElement lays the element subtree at e out as the pattern subtree at
// dst: a leaf's value becomes its constraint.
func (s *slab) fromElement(dst *node, e *descriptor.Element) {
	dst.name = e.Name
	if e.IsLeaf() {
		dst.value = e.Value
		return
	}
	dst.kids = s.kidsOf(len(e.Children))
	for i, c := range e.Children {
		dst.kids[i] = s.next()
		s.fromElement(dst.kids[i], c)
	}
}

// ErrNotConcrete is returned by Descriptor when the query contains
// wildcards, descendant axes, or presence-only leaves and therefore does
// not determine a unique descriptor.
var ErrNotConcrete = errors.New("xpath: query is not a most-specific descriptor")

// Descriptor reconstructs the unique descriptor of a most-specific query:
// the inverse of MostSpecific. The paper relies on this direction to go
// from an MSD back to d and compute k = h(d).
func (q Query) Descriptor() (descriptor.Descriptor, error) {
	if q.root == nil {
		return descriptor.Descriptor{}, ErrEmptyQuery
	}
	root, err := nodeToElement(&q.root.node)
	if err != nil {
		return descriptor.Descriptor{}, err
	}
	return descriptor.New(root), nil
}

func nodeToElement(n *node) (*descriptor.Element, error) {
	if n.name == Wildcard || n.desc {
		return nil, ErrNotConcrete
	}
	if len(n.kids) == 0 {
		if n.value == "" {
			return nil, ErrNotConcrete
		}
		if _, isPrefix := prefixStem(n.value); isPrefix {
			return nil, ErrNotConcrete
		}
		return descriptor.NewLeaf(n.name, n.value), nil
	}
	if n.value != "" {
		return nil, ErrNotConcrete
	}
	children := make([]*descriptor.Element, 0, len(n.kids))
	for _, k := range n.kids {
		c, err := nodeToElement(k)
		if err != nil {
			return nil, err
		}
		children = append(children, c)
	}
	return descriptor.NewNode(n.name, children...), nil
}
