package xpath

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
