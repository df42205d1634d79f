package xpath

// Compatible reports whether two queries could both match some descriptor.
// It is a conservative check: false is returned only on a definite
// conflict (two different exact values required for the same
// unambiguously-named element path). The automated search mode uses it to
// prune index branches that cannot contain results for the original query.
func Compatible(a, b Query) bool {
	if a.root == nil || b.root == nil {
		return false
	}
	if a.root.desc || b.root.desc {
		return true // floating patterns: never a definite conflict
	}
	return compatibleNodes(&a.root.node, &b.root.node)
}

func compatibleNodes(a, b *node) bool {
	if a.name == Wildcard || b.name == Wildcard {
		return true
	}
	if a.name != b.name {
		// Distinct element names at the same (root) position conflict
		// when compared at the root; as children they simply refer to
		// different elements, handled by the caller grouping.
		return false
	}
	if a.value != "" && b.value != "" && !valuesCompatible(a.value, b.value) {
		return false
	}
	// Compare children pairwise only when each side constrains a name
	// exactly once — otherwise multiple same-named siblings make the
	// pairing ambiguous and we stay conservative.
	for _, ak := range a.kids {
		if ak.desc || ak.name == Wildcard {
			continue
		}
		if uniqueA := soleKid(a, ak.name); uniqueA == nil {
			continue
		}
		bk := soleKid(b, ak.name)
		if bk == nil || bk.desc {
			continue
		}
		if !compatibleNodes(ak, bk) {
			return false
		}
	}
	return true
}

// soleKid returns n's unique non-descendant child with the given name, or
// nil when there is none or more than one.
func soleKid(n *node, name string) *node {
	var found *node
	for _, k := range n.kids {
		if k.desc || k.name != name {
			continue
		}
		if found != nil {
			return nil
		}
		found = k
	}
	return found
}

// valuesCompatible reports whether two value constraints can be satisfied
// by one value. Exact values are checked precisely against the other
// side's form; two non-exact patterns are decided conservatively except
// for the prefix/prefix case, which is exact.
func valuesCompatible(a, b string) bool {
	as, af := classifyValue(a)
	bs, bf := classifyValue(b)
	switch {
	case af == formExact && bf == formExact:
		return a == b
	case af == formExact:
		return valueMatches(b, a)
	case bf == formExact:
		return valueMatches(a, b)
	case af == formPrefix && bf == formPrefix:
		return hasPrefix(as, bs) || hasPrefix(bs, as)
	default:
		return true // conservative: some value may satisfy both patterns
	}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
