package xpath

import "unsafe"

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
