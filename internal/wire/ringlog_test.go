package wire

import (
	"slices"
	"strings"
	"testing"
)

// logRingState logs what each given member knows of the ring — its
// predecessor, successor list and known peers — and the members that
// departed, in order, so that a ring that fails to converge or a leave
// that finds no taker names its own shape. Ring tests call it when
// WaitConverged fails.
func logRingState(t testing.TB, members []*Node, departed []string) {
	t.Helper()
	members = slices.Clone(members)
	slices.SortFunc(members, func(a, b *Node) int { return strings.Compare(a.Addr(), b.Addr()) })
	for _, n := range members {
		t.Logf("member %s: predecessor %q, successors %v, known peers %v", n.Addr(), n.Predecessor(), n.Successors(), n.KnownPeers())
	}
	t.Logf("departed: %v", departed)
}

// nodesOf lists the nodes of an address-keyed set, for logRingState.
func nodesOf(byAddr map[string]*Node) []*Node {
	out := make([]*Node, 0, len(byAddr))
	for _, n := range byAddr {
		out = append(out, n)
	}
	return out
}
