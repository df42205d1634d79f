package xpath

// Builder assembles queries programmatically, merging constraints that
// share a path prefix (so author/first and author/last end up under one
// author predicate, as in the paper's q3). Builders are what the indexing
// schemes and the workload generator use; end users typically Parse.
type Builder struct {
	root *node
}

// NewBuilder starts a query rooted at the given element name.
func NewBuilder(rootName string) *Builder {
	return &Builder{root: &node{name: rootName}}
}

// Require adds a presence constraint for the element path below the root
// (no value). It returns the builder for chaining.
func (b *Builder) Require(path ...string) *Builder {
	b.descend(path)
	return b
}

// Equal adds a value constraint at the element path below the root.
func (b *Builder) Equal(value string, path ...string) *Builder {
	n := b.descend(path)
	n.value = value
	return b
}

// descend walks (creating as needed) the constraint chain for path and
// returns the final node. Existing children are reused only while they
// carry no value, so two distinct valued constraints on the same element
// name (e.g. two authors) stay separate.
func (b *Builder) descend(path []string) *node {
	cur := b.root
	for _, name := range path {
		var found *node
		for _, k := range cur.kids {
			if k.name == name && k.value == "" && !k.desc {
				found = k
				break
			}
		}
		if found == nil {
			found = &node{name: name}
			cur.kids = append(cur.kids, found)
		}
		cur = found
	}
	return cur
}

// Build freezes the builder into a normalized Query. The builder can keep
// being used afterwards; Build clones the pattern.
func (b *Builder) Build() Query {
	return freeze(cloneQuery(b.root))
}
