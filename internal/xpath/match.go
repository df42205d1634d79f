package xpath

import (
	"strings"

	"dhtindex/internal/descriptor"
)

// valueForm classifies a value constraint's matching semantics. The `*`
// metacharacter implements the paper's §IV-C substring matching: "Smi*"
// is a prefix constraint ("all the files of an author that start with the
// letter A..."), "*Routing*" a contains constraint (the "words in title"
// queries of the BibFinder interface, §V-B).
type valueForm int

const (
	formExact valueForm = iota
	formPrefix
	formSuffix
	formContains
)

// classifyValue returns the constraint's stem and form.
func classifyValue(v string) (string, valueForm) {
	leading := strings.HasPrefix(v, "*") && len(v) > 1
	trailing := strings.HasSuffix(v, "*")
	switch {
	case leading && trailing:
		return v[1 : len(v)-1], formContains
	case trailing:
		return v[:len(v)-1], formPrefix
	case leading:
		return v[1:], formSuffix
	default:
		return v, formExact
	}
}

// prefixStem reports whether v is any non-exact constraint (kept for the
// concreteness check: such values do not identify a unique descriptor).
func prefixStem(v string) (string, bool) {
	stem, form := classifyValue(v)
	return stem, form != formExact
}

// valueMatches tests a value constraint against an actual leaf value.
func valueMatches(constraint, actual string) bool {
	stem, form := classifyValue(constraint)
	switch form {
	case formPrefix:
		return strings.HasPrefix(actual, stem)
	case formSuffix:
		return strings.HasSuffix(actual, stem)
	case formContains:
		return strings.Contains(actual, stem)
	default:
		return constraint == actual
	}
}

// valueImplies reports that satisfying the spec constraint guarantees the
// gen constraint.
func valueImplies(gen, spec string) bool {
	if gen == "" {
		return true
	}
	if spec == "" {
		return false
	}
	genStem, genForm := classifyValue(gen)
	specStem, specForm := classifyValue(spec)
	switch genForm {
	case formExact:
		return specForm == formExact && gen == spec
	case formPrefix:
		// Guaranteed when spec pins a value (or prefix) starting with the
		// stem.
		return (specForm == formExact || specForm == formPrefix) &&
			strings.HasPrefix(specStem, genStem)
	case formSuffix:
		return (specForm == formExact || specForm == formSuffix) &&
			strings.HasSuffix(specStem, genStem)
	case formContains:
		// Any form whose stem contains the gen stem guarantees it: an
		// exact value containing it, or a prefix/suffix/contains pattern
		// whose mandatory part contains it.
		return strings.Contains(specStem, genStem)
	default:
		return false
	}
}

// Matches reports whether the descriptor matches the query: the pattern
// tree embeds into the descriptor tree ("the evaluation of the expression
// on the document yields a non-null object", §III-B).
func (q Query) Matches(d descriptor.Descriptor) bool {
	if q.root == nil || d.Root == nil {
		return false
	}
	if q.root.desc {
		return matchesAnywhere(&q.root.node, d.Root)
	}
	return matches(&q.root.node, d.Root)
}

// matches tests the pattern node against exactly this element.
func matches(n *node, e *descriptor.Element) bool {
	if n.name != Wildcard && n.name != e.Name {
		return false
	}
	if n.value != "" && (!e.IsLeaf() || !valueMatches(n.value, e.Value)) {
		return false
	}
	for _, k := range n.kids {
		if !matchKid(k, e) {
			return false
		}
	}
	return true
}

// matchKid tests a child constraint against the children (or, for the
// descendant axis, the strict descendants) of e.
func matchKid(k *node, e *descriptor.Element) bool {
	if k.desc {
		return matchesAnywhereBelow(k, e)
	}
	for _, c := range e.Children {
		if matches(k, c) {
			return true
		}
	}
	return false
}

// matchesAnywhere tests the pattern against e or any of its descendants
// (descendant-or-self, used for a top-level `//` step).
func matchesAnywhere(n *node, e *descriptor.Element) bool {
	if matches(n, e) {
		return true
	}
	return matchesAnywhereBelow(n, e)
}

// matchesAnywhereBelow tests the pattern against the strict descendants
// of e.
func matchesAnywhereBelow(n *node, e *descriptor.Element) bool {
	for _, c := range e.Children {
		if matches(n, c) || matchesAnywhereBelow(n, c) {
			return true
		}
	}
	return false
}

// Covers implements the paper's covering relation: q.Covers(other) ⇔
// q ⊒ other ⇔ every descriptor that matches other also matches q.
//
// The decision is syntactic on the normalized pattern trees: every
// constraint of q must be implied by a constraint of other (a pattern
// homomorphism). The check is sound for the conjunctive tree patterns of
// this dialect, and complete on wildcard-free patterns; with wildcards it
// may rarely answer false for exotic semantically-covering pairs, which is
// safe for indexing (an index entry is simply not created).
//
// Covers is reflexive and transitive, inducing the partial order of Fig. 3.
//
// Before it walks the trees, Covers rejects any pair in which q's
// constraint signature has a bit that other's lacks (see pattern). That
// answer is always the walk's: if q ⊒ other, implies maps every signed
// node of q onto a node of other with the same name path and the same
// exact value, and that node sets the same bits. Most entries of an index
// list that do not cover the target fail here, at the cost of one AND.
func (q Query) Covers(other Query) bool {
	if q.root == nil || other.root == nil {
		return false
	}
	if q.root.sig&^other.root.sig != 0 {
		return false
	}
	return q.coversWalk(other)
}

// coversWalk decides q ⊒ other by the pattern homomorphism alone, without
// the signature test: the reference the tests hold Covers to.
func (q Query) coversWalk(other Query) bool {
	if q.root == nil || other.root == nil {
		return false
	}
	if q.root.desc {
		// `//x` is satisfied by x anywhere; other must pin x at some depth.
		return impliedAnywhere(&q.root.node, &other.root.node)
	}
	if other.root.desc {
		// other floats while q pins the root: only a wildcard-rooted q
		// with no further constraints could cover it; be conservative.
		return false
	}
	return implies(&q.root.node, &other.root.node)
}

// implies reports that any element matching spec (the more specific
// pattern) also matches gen (the more general one), at the same context.
func implies(gen, spec *node) bool {
	if gen.name != Wildcard && gen.name != spec.name {
		return false
	}
	if !valueImplies(gen.value, spec.value) {
		return false
	}
	for _, gk := range gen.kids {
		if !kidImplied(gk, spec) {
			return false
		}
	}
	return true
}

// kidImplied reports that the child constraint gk of the general pattern
// is guaranteed by the specific pattern spec's subtree.
func kidImplied(gk *node, spec *node) bool {
	if gk.desc {
		return impliedSomewhereBelow(gk, spec)
	}
	for _, sk := range spec.kids {
		if sk.desc {
			// A floating constraint of spec does not guarantee a direct
			// child of the right shape.
			continue
		}
		if implies(gk, sk) {
			return true
		}
	}
	return false
}

// impliedAnywhere: gk (ignoring its own axis) is guaranteed at spec or
// strictly below it.
func impliedAnywhere(gk, spec *node) bool {
	bare := *gk
	bare.desc = false
	if implies(&bare, spec) {
		return true
	}
	return impliedSomewhereBelow(gk, spec)
}

func impliedSomewhereBelow(gk, spec *node) bool {
	bare := *gk
	bare.desc = false
	for _, sk := range spec.kids {
		// A descendant constraint in spec pins its pattern at *some*
		// depth ≥ 1, which satisfies a descendant requirement of gen.
		if implies(&bare, sk) || impliedSomewhereBelow(gk, sk) {
			return true
		}
	}
	return false
}
