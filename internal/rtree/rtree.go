// Package rtree implements an R-tree spatial index over axis-aligned
// rectangles (Guttman's quadratic-split variant with an STR bulk
// loader).
//
// The privacy-aware query processor of the Casper paper explicitly
// leaves the choice of spatial index open ("it can be employed using
// R-tree or any other methods", Sec. 5.1.1); this package provides that
// traditional location-based server substrate. It supports the two
// query primitives Algorithm 2 needs:
//
//   - range search (Search / SearchFunc) for the candidate-list step, and
//   - best-first k-nearest-neighbor search (Nearest / NearestK) for the
//     filter step, under either the usual min-distance metric (public
//     point data) or the min-max metric (private data represented by
//     cloaked rectangles, Sec. 5.2.1, where a target's distance from a
//     vertex is measured to its furthest corner).
//
// The tree is not safe for concurrent mutation; readers may run
// concurrently with each other. Callers that interleave writes and
// reads must serialize externally, or write to a Clone and publish it
// (internal/server does the latter). Clone is O(1) and re-stamps the
// source's owner token, so two Clones of one tree must not run
// concurrently; readers of the source are unaffected.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"casper/internal/geom"
)

// Default node capacity. 32 entries keeps internal nodes within one or
// two cache lines of child pointers while staying shallow for the
// 10K-50K object populations used in the paper's experiments.
const (
	defaultMaxEntries = 32
)

// Item is a spatial object stored in the tree: a rectangle (a point is
// a degenerate rectangle), a caller-assigned identifier, and an
// optional payload.
type Item struct {
	Rect geom.Rect
	ID   int64
	Data any
}

// Metric selects the distance function used by nearest-neighbor
// searches.
type Metric int

const (
	// MinDist ranks an item by the minimum distance from the query
	// point to the item's rectangle (zero if the point is inside).
	// This is the standard metric for public point data.
	MinDist Metric = iota
	// MaxDist ranks an item by the distance from the query point to
	// the furthest corner of the item's rectangle. Casper uses this
	// pessimistic metric when targets are private cloaked regions:
	// the target is assumed to be at its furthest corner (Sec. 5.2.1).
	MaxDist
)

// DistTo evaluates the metric for an item rectangle.
func (m Metric) DistTo(q geom.Point, r geom.Rect) float64 {
	if m == MaxDist {
		return q.MaxDistRect(r)
	}
	return q.MinDistRect(r)
}

// Tree is an R-tree. The zero value is not usable; call New.
//
// Trees are copy-on-write. Every node carries the owner token of the
// tree that created it, and a tree mutates only nodes bearing its own
// token: Insert and Delete copy each node on their root-to-leaf path
// that another tree owns, so after a Clone a write costs one path copy.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
	owner      *owner
}

// owner is a tree's copy-on-write token; only its address matters. It
// is not zero-sized, so two live tokens never share an address.
type owner struct{ _ byte }

type node struct {
	mbr      geom.Rect
	leaf     bool
	owner    *owner
	items    []Item  // leaf only
	children []*node // internal only
}

// pathBuf sizes the on-stack buffers for root-to-leaf paths; deeper
// trees still work, their paths just spill to the heap.
const pathBuf = 16

// New returns an empty tree with the default node capacity.
func New() *Tree { return NewWithCapacity(defaultMaxEntries) }

// NewWithCapacity returns an empty tree whose nodes hold at most
// maxEntries entries (minimum fill is 40%). It panics if maxEntries < 4.
func NewWithCapacity(maxEntries int) *Tree {
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: capacity %d too small (need >= 4)", maxEntries))
	}
	o := new(owner)
	return &Tree{
		root:       &node{leaf: true, owner: o},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
		owner:      o,
	}
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Bounds returns the minimum bounding rectangle of all items and false
// when the tree is empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr, true
}

// mutable returns n when t owns it, and otherwise a copy stamped with
// t's token. The copy gets entry slices of its own, with room for one
// more entry, so appends and in-place removals never reach the node it
// was copied from.
func (t *Tree) mutable(n *node) *node {
	if n.owner == t.owner {
		return n
	}
	c := &node{mbr: n.mbr, leaf: n.leaf, owner: t.owner}
	if n.leaf {
		c.items = append(make([]Item, 0, len(n.items)+1), n.items...)
	} else {
		c.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	return c
}

// Insert adds an item. Duplicate IDs are allowed (the tree is a
// multiset); Delete removes by (ID, Rect) match.
func (t *Tree) Insert(it Item) {
	if !it.Rect.IsValid() {
		panic(fmt.Sprintf("rtree: inserting invalid rect %v", it.Rect))
	}
	var buf [pathBuf]*node
	path := t.chooseLeaf(it.Rect, buf[:0])
	leaf := path[len(path)-1]
	if len(leaf.items) == 0 {
		leaf.mbr = it.Rect
	} else {
		leaf.mbr = leaf.mbr.Union(it.Rect)
	}
	leaf.items = append(leaf.items, it)
	t.size++
	t.splitUpward(path)
}

// chooseLeaf descends to the leaf whose MBR needs least enlargement to
// absorb r, breaking ties by smaller area (Guttman's ChooseLeaf). Every
// node on the way is made mutable and internal ones grow to cover r, so
// splits see fresh bounds. It appends the root-to-leaf path to path.
func (t *Tree) chooseLeaf(r geom.Rect, path []*node) []*node {
	t.root = t.mutable(t.root)
	n := t.root
	for !n.leaf {
		n.mbr = n.mbr.Union(r)
		path = append(path, n)
		bi := 0
		bestEnl, bestArea := enlargement(n.children[0].mbr, r), n.children[0].mbr.Area()
		for i, c := range n.children[1:] {
			enl := enlargement(c.mbr, r)
			area := c.mbr.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				bi, bestEnl, bestArea = i+1, enl, area
			}
		}
		c := t.mutable(n.children[bi])
		n.children[bi] = c
		n = c
	}
	return append(path, n)
}

func enlargement(mbr, r geom.Rect) float64 {
	return mbr.Union(r).Area() - mbr.Area()
}

// splitUpward splits overfull nodes bottom-up along path (root first,
// all owned by t), attaching each split-off sibling to the next node up
// and growing a new root when the root itself splits. A parent's MBR
// already covers the sibling: chooseLeaf grew it on the way down.
func (t *Tree) splitUpward(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.count() <= t.maxEntries {
			return
		}
		sib := t.splitNode(n)
		if i == 0 {
			t.root = &node{
				mbr:      n.mbr.Union(sib.mbr),
				owner:    t.owner,
				children: []*node{n, sib},
			}
			return
		}
		path[i-1].children = append(path[i-1].children, sib)
	}
}

// count returns the entry count of n (items for leaves, children for
// internal nodes).
func (n *node) count() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

func (n *node) rectAt(i int) geom.Rect {
	if n.leaf {
		return n.items[i].Rect
	}
	return n.children[i].mbr
}

// splitNode performs Guttman's quadratic split, mutating n to hold one
// group and returning a new sibling holding the other.
func (t *Tree) splitNode(n *node) *node {
	cnt := n.count()
	// Pick seeds: the pair wasting the most area.
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < cnt; i++ {
		for j := i + 1; j < cnt; j++ {
			ri, rj := n.rectAt(i), n.rectAt(j)
			waste := ri.Union(rj).Area() - ri.Area() - rj.Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	groupA := []int{seedA}
	groupB := []int{seedB}
	mbrA, mbrB := n.rectAt(seedA), n.rectAt(seedB)
	assigned := make([]bool, cnt)
	assigned[seedA], assigned[seedB] = true, true
	remaining := cnt - 2

	for remaining > 0 {
		// Force-assign when one group must take everything left to
		// reach minimum fill.
		if len(groupA)+remaining == t.minEntries {
			for i := 0; i < cnt; i++ {
				if !assigned[i] {
					assigned[i] = true
					groupA = append(groupA, i)
					mbrA = mbrA.Union(n.rectAt(i))
				}
			}
			remaining = 0
			break
		}
		if len(groupB)+remaining == t.minEntries {
			for i := 0; i < cnt; i++ {
				if !assigned[i] {
					assigned[i] = true
					groupB = append(groupB, i)
					mbrB = mbrB.Union(n.rectAt(i))
				}
			}
			remaining = 0
			break
		}
		// PickNext: entry with max preference for one group.
		bestIdx, bestDiff := -1, -1.0
		var bestToA bool
		for i := 0; i < cnt; i++ {
			if assigned[i] {
				continue
			}
			r := n.rectAt(i)
			dA := enlargement(mbrA, r)
			dB := enlargement(mbrB, r)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
				bestToA = dA < dB ||
					(dA == dB && mbrA.Area() < mbrB.Area()) ||
					(dA == dB && mbrA.Area() == mbrB.Area() && len(groupA) <= len(groupB))
			}
		}
		assigned[bestIdx] = true
		if bestToA {
			groupA = append(groupA, bestIdx)
			mbrA = mbrA.Union(n.rectAt(bestIdx))
		} else {
			groupB = append(groupB, bestIdx)
			mbrB = mbrB.Union(n.rectAt(bestIdx))
		}
		remaining--
	}

	sib := &node{leaf: n.leaf, owner: t.owner}
	if n.leaf {
		oldItems := n.items
		n.items = make([]Item, 0, len(groupA))
		for _, i := range groupA {
			n.items = append(n.items, oldItems[i])
		}
		sib.items = make([]Item, 0, len(groupB))
		for _, i := range groupB {
			sib.items = append(sib.items, oldItems[i])
		}
	} else {
		oldChildren := n.children
		n.children = make([]*node, 0, len(groupA))
		for _, i := range groupA {
			n.children = append(n.children, oldChildren[i])
		}
		sib.children = make([]*node, 0, len(groupB))
		for _, i := range groupB {
			sib.children = append(sib.children, oldChildren[i])
		}
	}
	n.mbr, sib.mbr = mbrA, mbrB
	return sib
}

func recomputeMBR(n *node) geom.Rect {
	if n.count() == 0 {
		return geom.Rect{}
	}
	mbr := n.rectAt(0)
	for i := 1; i < n.count(); i++ {
		mbr = mbr.Union(n.rectAt(i))
	}
	return mbr
}

// Delete removes one item matching id whose stored rectangle equals r.
// It returns false when no such item exists. Orphaned entries from
// underfull nodes are reinserted (Guttman's CondenseTree).
func (t *Tree) Delete(id int64, r geom.Rect) bool {
	var atBuf [pathBuf]int
	at, ok := findLeaf(t.root, id, r, atBuf[:0])
	if !ok {
		return false
	}
	var buf [pathBuf]*node
	path := buf[:0]
	t.root = t.mutable(t.root)
	n := t.root
	for _, i := range at[:len(at)-1] {
		path = append(path, n)
		c := t.mutable(n.children[i])
		n.children[i] = c
		n = c
	}
	path = append(path, n)
	i := at[len(at)-1]
	n.items = append(n.items[:i], n.items[i+1:]...)
	t.size--
	t.condense(path, at, r)
	return true
}

// findLeaf looks for the item (id, r) below n and appends to at the
// child index taken at each internal level, then the item's index in
// its leaf. An item lies inside the MBR of every node above it, so the
// search enters only children whose MBR contains r.
func findLeaf(n *node, id int64, r geom.Rect, at []int) ([]int, bool) {
	if n.leaf {
		for i, it := range n.items {
			if it.ID == id && it.Rect == r {
				return append(at, i), true
			}
		}
		return at, false
	}
	for i, c := range n.children {
		if !c.mbr.ContainsRect(r) {
			continue
		}
		if found, ok := findLeaf(c, id, r, append(at, i)); ok {
			return found, true
		}
	}
	return at, false
}

// condense walks the root-to-leaf path of a deletion bottom-up (every
// node on it owned by t; at[i] is the index of path[i+1] among
// path[i]'s children; gone is the deleted item's rectangle). An
// underfull node is unlinked from its parent and its items are
// collected for reinsertion; any other node has its MBR re-bounded.
// Nothing off the path can have changed, and the walk stops early once
// a node's MBR is known not to have changed: only losing an entry that
// touched its edge can shrink it, and then only a parent of a node that
// shrank or was unlinked can shrink in turn. The root finally shrinks
// while it is an internal node with one child.
func (t *Tree) condense(path []*node, at []int, gone geom.Rect) {
	var orphans []Item
	leafMBR := path[len(path)-1].mbr
	stale := gone.Min.X == leafMBR.Min.X || gone.Min.Y == leafMBR.Min.Y ||
		gone.Max.X == leafMBR.Max.X || gone.Max.Y == leafMBR.Max.Y
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if i > 0 && n.count() < t.minEntries {
			j := at[i-1]
			path[i-1].children = append(path[i-1].children[:j], path[i-1].children[j+1:]...)
			collectItems(n, &orphans)
			stale = true
			continue
		}
		if !stale {
			break
		}
		old := n.mbr
		n.mbr = recomputeMBR(n)
		stale = n.mbr != old
	}
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true, owner: t.owner}
	}
	// Orphans are still counted in size; Insert counts them again.
	t.size -= len(orphans)
	for _, it := range orphans {
		t.Insert(it)
	}
}

func collectItems(n *node, out *[]Item) {
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, out)
	}
}

// Search returns all items whose rectangles intersect q. Order is
// unspecified.
func (t *Tree) Search(q geom.Rect) []Item {
	return t.SearchAppend(q, nil)
}

// SearchAppend appends all items intersecting q to buf and returns the
// extended slice. Passing buf[:0] of a retained buffer makes repeated
// range searches allocation-free once the buffer has grown to the
// working-set size; Search is SearchAppend with a nil buffer.
func (t *Tree) SearchAppend(q geom.Rect, buf []Item) []Item {
	t.SearchFunc(q, func(it Item) bool {
		buf = append(buf, it)
		return true
	})
	return buf
}

// SearchFunc streams all items intersecting q to fn; returning false
// from fn stops the search early.
func (t *Tree) SearchFunc(q geom.Rect, fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	searchNode(t.root, q, fn)
}

func searchNode(n *node, q geom.Rect, fn func(Item) bool) bool {
	if !n.mbr.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, q, fn) {
			return false
		}
	}
	return true
}

// Count returns the number of items intersecting q without
// materializing them.
func (t *Tree) Count(q geom.Rect) int {
	n := 0
	t.SearchFunc(q, func(Item) bool { n++; return true })
	return n
}

// Neighbor is a nearest-neighbor result: the item and its distance
// under the chosen metric.
type Neighbor struct {
	Item Item
	Dist float64
}

// Nearest returns the single nearest item to q under metric m, and
// false when the tree is empty.
func (t *Tree) Nearest(q geom.Point, m Metric) (Neighbor, bool) {
	ns := t.NearestK(q, 1, m)
	if len(ns) == 0 {
		return Neighbor{}, false
	}
	return ns[0], true
}

// NearestK returns the k items nearest to q under metric m in
// ascending distance order (fewer if the tree holds fewer). It runs a
// best-first search over the tree: node MBRs are ranked by min-dist,
// which lower-bounds both metrics (for MaxDist, a degenerate rectangle
// at the nearest point of the MBR attains min-dist), so the search is
// admissible and terminates as soon as k items are closer than the
// best unexplored node.
func (t *Tree) NearestK(q geom.Point, k int, m Metric) []Neighbor {
	return t.nearestK(q, k, m, nil, nil, true)
}

// NearestKInto is NearestK with caller-owned scratch: the heap h (nil
// allocates a private one) and the result slice out are reused, so a
// caller that retains both across queries pays no allocations once
// they have grown to the working-set size. out is truncated to out[:0]
// before use; the returned slice aliases its backing array.
func (t *Tree) NearestKInto(q geom.Point, k int, m Metric, h *NNHeap, out []Neighbor) []Neighbor {
	return t.nearestK(q, k, m, h, out[:0], true)
}

// NearestKMerge folds t's items into out, an ascending list of at most
// k neighbors found elsewhere (say, the other fragments of a sharded
// table), and returns the k nearest of both. The search starts pruned
// at out's k-th distance, so a tree with nothing closer costs one root
// comparison; on equal distances the entries already in out stay
// ahead. h is reused as in NearestKInto, and the result aliases out's
// backing array.
func (t *Tree) NearestKMerge(q geom.Point, k int, m Metric, h *NNHeap, out []Neighbor) []Neighbor {
	return t.nearestK(q, k, m, h, out, true)
}

// nearestK is the shared best-first search, merging into the sorted
// neighbors already in out. When prune is set, leaf items and child
// nodes whose metric distance (resp. min-dist lower bound) already
// exceeds the current k-th best are never pushed: the k-th best
// distance only decreases as results accumulate, so an entry beyond
// it can never enter the final top k. The pruned and unpruned
// searches return identical results (asserted by TestNearestKPruning).
func (t *Tree) nearestK(q geom.Point, k int, m Metric, h *NNHeap, out []Neighbor, prune bool) []Neighbor {
	if k <= 0 || t.size == 0 {
		return out
	}
	if h == nil {
		h = &NNHeap{}
	}
	h.reset()
	kth := math.Inf(1)
	if len(out) == k {
		kth = out[k-1].Dist
	}
	h.push(nnEntry{dist: q.MinDistRect(t.root.mbr), node: t.root})
	for h.Len() > 0 {
		e := h.pop()
		if len(out) == k && e.dist > out[len(out)-1].Dist {
			break
		}
		if e.node == nil {
			// A concrete item surfaced: its metric distance is exact.
			out = insertNeighbor(out, Neighbor{Item: e.item, Dist: e.dist}, k)
			if len(out) == k {
				kth = out[k-1].Dist
			}
			continue
		}
		n := e.node
		if n.leaf {
			for _, it := range n.items {
				d := m.DistTo(q, it.Rect)
				if prune && d > kth {
					continue
				}
				h.push(nnEntry{dist: d, item: it})
			}
		} else {
			for _, c := range n.children {
				d := q.MinDistRect(c.mbr)
				if prune && d > kth {
					continue
				}
				h.push(nnEntry{dist: d, node: c})
			}
		}
	}
	return out
}

// insertNeighbor inserts nb into the sorted slice keeping at most k.
func insertNeighbor(out []Neighbor, nb Neighbor, k int) []Neighbor {
	i := sort.Search(len(out), func(i int) bool { return out[i].Dist > nb.Dist })
	out = append(out, Neighbor{})
	copy(out[i+1:], out[i:])
	out[i] = nb
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// All returns every item in the tree in unspecified order.
func (t *Tree) All() []Item {
	var out []Item
	collectItems(t.root, &out)
	return out
}

// Clone returns a copy of the tree in O(1). The copy shares every node
// with t, and both trees get fresh owner tokens, so neither owns a
// shared node any more: the first write to either copies only the nodes
// on its root-to-leaf path, O(log n), and later writes to the same tree
// reuse those copies. Item payloads (Data) are shared. Mutating the
// clone never touches the original and vice versa, which is what makes
// read-copy-update snapshot publication cheap (internal/server clones
// the published tree, applies a write batch, and publishes the result
// while readers keep traversing the original lock-free).
//
// Clone re-stamps t's token, so for the write discipline it counts as a
// write to t: two Clones of one tree must not run concurrently, nor a
// Clone and an Insert or Delete on t. Readers of t are unaffected and
// may run concurrently with Clone.
func (t *Tree) Clone() *Tree {
	c := *t
	t.owner, c.owner = new(owner), new(owner)
	return &c
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing,
// which produces a tighter tree than repeated insertion and costs
// O(n log n). The input slice is not retained but is reordered.
func BulkLoad(items []Item) *Tree {
	return BulkLoadWithCapacity(items, defaultMaxEntries)
}

// BulkLoadWithCapacity is BulkLoad with an explicit node capacity.
func BulkLoadWithCapacity(items []Item, maxEntries int) *Tree {
	t := NewWithCapacity(maxEntries)
	if len(items) == 0 {
		return t
	}
	for _, it := range items {
		if !it.Rect.IsValid() {
			panic(fmt.Sprintf("rtree: bulk loading invalid rect %v", it.Rect))
		}
	}
	leaves := strPackLeaves(items, maxEntries, t.owner)
	t.size = len(items)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level, maxEntries, t.owner)
	}
	t.root = level[0]
	return t
}

// Typed sort.Sort adapters for the STR packing passes. sort.Slice
// closes over the slice and allocates both the closure and an
// interface header per call; these fixed types sort with zero
// allocations, which matters because strPackLeaves sorts every strip.
type itemsByCenterX []Item

func (s itemsByCenterX) Len() int           { return len(s) }
func (s itemsByCenterX) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s itemsByCenterX) Less(i, j int) bool { return s[i].Rect.Center().X < s[j].Rect.Center().X }

type itemsByCenterY []Item

func (s itemsByCenterY) Len() int           { return len(s) }
func (s itemsByCenterY) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s itemsByCenterY) Less(i, j int) bool { return s[i].Rect.Center().Y < s[j].Rect.Center().Y }

type nodesByCenterX []*node

func (s nodesByCenterX) Len() int           { return len(s) }
func (s nodesByCenterX) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s nodesByCenterX) Less(i, j int) bool { return s[i].mbr.Center().X < s[j].mbr.Center().X }

type nodesByCenterY []*node

func (s nodesByCenterY) Len() int           { return len(s) }
func (s nodesByCenterY) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s nodesByCenterY) Less(i, j int) bool { return s[i].mbr.Center().Y < s[j].mbr.Center().Y }

func strPackLeaves(items []Item, cap_ int, o *owner) []*node {
	n := len(items)
	numLeaves := (n + cap_ - 1) / cap_
	numStrips := intSqrtCeil(numLeaves)
	sort.Sort(itemsByCenterX(items))
	perStrip := (n + numStrips - 1) / numStrips
	var leaves []*node
	for s := 0; s < n; s += perStrip {
		e := min(s+perStrip, n)
		strip := items[s:e]
		sort.Sort(itemsByCenterY(strip))
		for i := 0; i < len(strip); i += cap_ {
			j := min(i+cap_, len(strip))
			leaf := &node{leaf: true, owner: o, items: append([]Item(nil), strip[i:j]...)}
			leaf.mbr = recomputeMBR(leaf)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(nodes []*node, cap_ int, o *owner) []*node {
	n := len(nodes)
	numParents := (n + cap_ - 1) / cap_
	numStrips := intSqrtCeil(numParents)
	sort.Sort(nodesByCenterX(nodes))
	perStrip := (n + numStrips - 1) / numStrips
	var parents []*node
	for s := 0; s < n; s += perStrip {
		e := min(s+perStrip, n)
		strip := nodes[s:e]
		sort.Sort(nodesByCenterY(strip))
		for i := 0; i < len(strip); i += cap_ {
			j := min(i+cap_, len(strip))
			p := &node{owner: o, children: append([]*node(nil), strip[i:j]...)}
			p.mbr = recomputeMBR(p)
			parents = append(parents, p)
		}
	}
	return parents
}

func intSqrtCeil(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// Stats describes the shape of the tree; useful in tests and for
// tuning.
type Stats struct {
	Height     int
	Nodes      int
	Leaves     int
	Items      int
	AvgLeafOcc float64
}

// Stats computes tree-shape statistics.
func (t *Tree) Stats() Stats {
	var s Stats
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.leaf {
			s.Leaves++
			s.Items += len(n.items)
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 1)
	if s.Leaves > 0 {
		s.AvgLeafOcc = float64(s.Items) / float64(s.Leaves)
	}
	return s
}

// checkInvariants validates structural invariants; it is exported to
// the package tests via export_test.go.
func (t *Tree) checkInvariants() error {
	itemCount := 0
	var walk func(n *node, isRoot bool, depth int) (int, error)
	walk = func(n *node, isRoot bool, depth int) (int, error) {
		if n.count() == 0 && !isRoot {
			return 0, fmt.Errorf("empty non-root node at depth %d", depth)
		}
		if !isRoot && n.count() < t.minEntries {
			return 0, fmt.Errorf("underfull node (%d < %d) at depth %d", n.count(), t.minEntries, depth)
		}
		if n.count() > t.maxEntries {
			return 0, fmt.Errorf("overfull node (%d > %d) at depth %d", n.count(), t.maxEntries, depth)
		}
		if n.count() > 0 && n.mbr != recomputeMBR(n) {
			return 0, fmt.Errorf("MBR %v is not the bound %v of its entries at depth %d", n.mbr, recomputeMBR(n), depth)
		}
		if n.leaf {
			for _, it := range n.items {
				if !n.mbr.ContainsRect(it.Rect) {
					return 0, fmt.Errorf("leaf MBR %v misses item %v", n.mbr, it.Rect)
				}
			}
			itemCount += len(n.items)
			return depth, nil
		}
		if len(n.items) != 0 {
			return 0, fmt.Errorf("internal node holds items")
		}
		leafDepth := -1
		for _, c := range n.children {
			if !n.mbr.ContainsRect(c.mbr) {
				return 0, fmt.Errorf("node MBR %v misses child %v", n.mbr, c.mbr)
			}
			d, err := walk(c, false, depth+1)
			if err != nil {
				return 0, err
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if leafDepth != d {
				return 0, fmt.Errorf("unbalanced: leaves at depths %d and %d", leafDepth, d)
			}
		}
		return leafDepth, nil
	}
	if _, err := walk(t.root, true, 1); err != nil {
		return err
	}
	if itemCount != t.size {
		return fmt.Errorf("size %d != counted items %d", t.size, itemCount)
	}
	return nil
}

// nnEntry is one element of the best-first frontier: either a node
// (ranked by min-dist lower bound) or a concrete item (exact metric
// distance).
type nnEntry struct {
	dist float64
	node *node
	item Item
}

// NNHeap is the priority queue of the best-first nearest-neighbor
// search, exported so callers of NearestKInto can own and reuse it
// across queries: the backing array survives between searches, making
// repeated k-NN probes allocation-free. The zero value is ready to
// use. It is a binary min-heap hand-rolled to avoid the interface
// boxing of container/heap on this hot path.
type NNHeap struct {
	es []nnEntry
}

// Len returns the number of queued entries.
func (h *NNHeap) Len() int { return len(h.es) }

// reset empties the heap, keeping its capacity.
func (h *NNHeap) reset() { h.es = h.es[:0] }

func (h *NNHeap) push(e nnEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.es[parent].dist <= h.es[i].dist {
			break
		}
		h.es[parent], h.es[i] = h.es[i], h.es[parent]
		i = parent
	}
}

func (h *NNHeap) pop() nnEntry {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.es) && h.es[l].dist < h.es[smallest].dist {
			smallest = l
		}
		if r < len(h.es) && h.es[r].dist < h.es[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.es[i], h.es[smallest] = h.es[smallest], h.es[i]
		i = smallest
	}
	return top
}
