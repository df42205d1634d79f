package xpath

import (
	"cmp"
	"slices"
	"strings"
)

// Generalizations returns the queries obtained by dropping exactly one
// top-level predicate from q, ordered most-specific first (most remaining
// constraints, ties broken by canonical form). These are the immediate
// upward neighbours of q in the covering partial order that the
// generalization/specialization fallback of §IV-B explores when q itself
// is not present in any index: each returned query g satisfies g ⊒ q.
//
// A query whose root has fewer than two predicates has no useful
// generalization at this level and yields nil.
//
// The generalizations share three allocations: their patterns, and one
// node slab with its kid pointers. Generalization i holds every node of q
// below the root but those of the predicate it drops, so the k of them
// hold k-1 copies of each.
func (q Query) Generalizations() []Query {
	if q.root == nil || len(q.root.kids) < 2 {
		return nil
	}
	root := &q.root.node
	k := len(root.kids)
	pats := make([]pattern, k)
	s := newSlab((k - 1) * (int(q.root.constraints) - 1))
	out := make([]Query, k)
	for drop := range root.kids {
		p := &pats[drop]
		p.name, p.desc, p.value = root.name, root.desc, root.value
		p.kids = s.kidsOf(k - 1)
		i := 0
		for j, kid := range root.kids {
			if j != drop {
				p.kids[i] = s.next()
				s.clone(p.kids[i], kid)
				i++
			}
		}
		out[drop] = freeze(p)
	}
	slices.SortFunc(out, func(a, b Query) int {
		if c := cmp.Compare(b.Constraints(), a.Constraints()); c != 0 {
			return c
		}
		return strings.Compare(a.str, b.str)
	})
	return out
}
