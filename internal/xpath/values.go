package xpath

// ValueConstraint is one (element path, value) requirement of a query.
// The path is relative to the root element (e.g. ["author", "last"]).
type ValueConstraint struct {
	Path  []string
	Value string
}

// ValueConstraints lists the query's value requirements in canonical
// (sorted) order. Wildcard and descendant steps are skipped — fuzzy
// correction only applies to concrete paths.
func (q Query) ValueConstraints() []ValueConstraint {
	if q.root == nil {
		return nil
	}
	var out []ValueConstraint
	var walk func(n *node, path []string)
	walk = func(n *node, path []string) {
		if n.name == Wildcard || n.desc {
			return
		}
		if n.value != "" {
			vc := ValueConstraint{Path: append([]string(nil), path...), Value: n.value}
			out = append(out, vc)
		}
		for _, k := range n.kids {
			walk(k, append(path, k.name))
		}
	}
	walk(&q.root.node, nil)
	return out
}

// WithValue returns a copy of the query whose value at the given path is
// replaced. When several same-named siblings exist along the path, the
// first one carrying a value (or, failing that, the first) is followed.
// The query is returned unchanged if the path does not resolve.
func (q Query) WithValue(path []string, value string) Query {
	if q.root == nil || len(path) == 0 {
		return q
	}
	p := cloneQuery(&q.root.node)
	cur := &p.node
	for _, name := range path {
		var next *node
		for _, k := range cur.kids {
			if k.name != name || k.desc {
				continue
			}
			if next == nil || (next.value == "" && k.value != "") {
				next = k
			}
		}
		if next == nil {
			return q
		}
		cur = next
	}
	if len(cur.kids) > 0 {
		return q // interior node: not a value position
	}
	cur.value = value
	return freeze(p)
}
