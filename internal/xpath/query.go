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
	"errors"
	"slices"
	"strings"

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

// pattern is a frozen query's root constraint together with what newQuery
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

// newQuery normalizes the pattern and freezes its canonical form, its key,
// its constraint count and its constraint signature.
func newQuery(root *node) Query {
	if root == nil {
		return Query{}
	}
	str, constraints, sig := canonicalize(root, true, sigRoot)
	return Query{
		root: &pattern{node: *root, key: keyspace.NewKey(str), constraints: int32(constraints), sig: sig},
		str:  str,
	}
}

// canonicalize sorts n's predicates by canonical form and removes exact
// duplicate sibling constraints, recursively, and returns n's canonical
// form, node count and signature. Top-level nodes are prefixed with their
// axis; predicate heads omit the child-axis slash. Each subtree is
// rendered once: a parent orders its predicates by the strings they
// returned and assembles its own form from them. path is the hash of the
// parent's name path, or 0 when the parent is off every signed chain.
func canonicalize(n *node, top bool, path uint64) (string, int, uint64) {
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
	var buf [8]rendered // most nodes have a handful of predicates: no heap
	kids := buf[:0]
	size, count := len(n.name), 1
	if len(n.kids) > 0 {
		for _, k := range n.kids {
			str, c, s := canonicalize(k, false, path)
			kids = append(kids, rendered{kid: k, str: str, count: c})
			sig |= s
		}
		slices.SortStableFunc(kids, func(a, b rendered) int { return strings.Compare(a.str, b.str) })
		kids = slices.CompactFunc(kids, func(a, b rendered) bool { return a.str == b.str })
		n.kids = n.kids[:len(kids)]
		for i, r := range kids {
			n.kids[i] = r.kid
			size += len(r.str) + 2
			count += r.count
		}
	}
	var sb strings.Builder
	sb.Grow(size + len(n.value) + 3)
	switch {
	case n.desc:
		sb.WriteString("//")
	case top:
		sb.WriteString("/")
	}
	sb.WriteString(n.name)
	if n.value != "" {
		sb.WriteByte('=')
		sb.WriteString(n.value)
	}
	for _, r := range kids {
		sb.WriteByte('[')
		sb.WriteString(r.str)
		sb.WriteByte(']')
	}
	return sb.String(), count, sig
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

// clone deep-copies a pattern subtree.
func (n *node) clone() *node {
	out := &node{name: n.name, desc: n.desc, value: n.value}
	if len(n.kids) > 0 {
		out.kids = make([]*node, len(n.kids))
		for i, k := range n.kids {
			out.kids[i] = k.clone()
		}
	}
	return out
}

// MostSpecific returns the most specific query (MSD) for a descriptor: the
// pattern that tests the presence of every element and every value of d
// (§III-B). It is the unique minimal query under ⊒ that d matches.
func MostSpecific(d descriptor.Descriptor) Query {
	if d.Root == nil {
		return Query{}
	}
	return newQuery(elementToNode(d.Root))
}

func elementToNode(e *descriptor.Element) *node {
	n := &node{name: e.Name}
	if e.IsLeaf() {
		n.value = e.Value
		return n
	}
	n.kids = make([]*node, 0, len(e.Children))
	for _, c := range e.Children {
		n.kids = append(n.kids, elementToNode(c))
	}
	return n
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
