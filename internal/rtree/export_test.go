package rtree

import "casper/internal/geom"

// CheckInvariants exposes structural validation to the tests.
func (t *Tree) CheckInvariants() error { return t.checkInvariants() }

// NearestKNoPrune runs the k-NN search with distance pruning disabled,
// so tests can assert the pruned search returns identical results.
func (t *Tree) NearestKNoPrune(q geom.Point, k int, m Metric) []Neighbor {
	return t.nearestK(q, k, m, nil, nil, false)
}

// UnsharedWith counts the nodes of t that src does not also reach: the
// nodes t's writes have copied since it was cloned from src.
func (t *Tree) UnsharedWith(src *Tree) int {
	seen := map[*node]bool{}
	var mark func(n *node)
	mark = func(n *node) {
		seen[n] = true
		for _, c := range n.children {
			mark(c)
		}
	}
	mark(src.root)
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		if !seen[n] {
			count++
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return count
}
