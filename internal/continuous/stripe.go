package continuous

import (
	"sync"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// The monitor is striped by top-level pyramid quadrant, the same
// split the anonymizer's write path uses: four half-open quadrants
// around the universe center plus a seam stripe for every region that
// crosses a quadrant boundary. Because the quadrants are half-open,
// two rects confined to different quadrants cannot intersect — so a
// location update whose region is confined to quadrant s can only
// affect queries homed in stripe s or the seam stripe, and the
// ingestion path locks exactly those. A seam-confined update (or a
// full re-evaluation, which reads the whole table) escalates to all
// stripes, always acquired in ascending index order.
const (
	numStripes  = 5
	crossStripe = 4 // seam stripe: regions crossing a quadrant boundary
)

// stripe is one shard of the monitor: its slice of the shadow tables,
// the interest-region index over the queries homed here, and the lock
// guarding all of it (plus every homed query's mutable state).
type stripe struct {
	mu   sync.Mutex
	pub  *rtree.Tree
	priv *rtree.Tree
	// qidx indexes the interest regions of the queries homed in this
	// stripe (nil in LinearScan mode).
	qidx *rtree.Tree
	byID map[QueryID]*query
}

func (st *stripe) addQuery(q *query) {
	st.byID[q.id] = q
	if st.qidx != nil {
		st.qidx.Insert(rtree.Item{Rect: q.interest, ID: int64(q.id)})
	}
}

func (st *stripe) removeQuery(q *query) {
	delete(st.byID, q.id)
	if st.qidx != nil {
		st.qidx.Delete(int64(q.id), q.interest)
	}
}

// stripeOf maps a region to the stripe that owns it: the quadrant it
// is confined to, or the seam stripe if it straddles a boundary (or
// is invalid). In LinearScan mode everything lives in stripe 0.
func (m *Monitor) stripeOf(r geom.Rect) int {
	if m.linear {
		return 0
	}
	if !r.IsValid() {
		return crossStripe
	}
	// Half-open quadrants: the split lines belong to the upper/right
	// side, so a rect touching a line from below/left is seam-bound.
	var s int
	switch {
	case r.Max.X < m.cx:
		s = 0
	case r.Min.X >= m.cx:
		s = 1
	default:
		return crossStripe
	}
	if r.Min.Y >= m.cy {
		s += 2
	} else if r.Max.Y >= m.cy {
		return crossStripe
	}
	return s
}

// stripeSet is the set of stripe locks one batch needs.
type stripeSet [numStripes]bool

func (ss *stripeSet) all() {
	for i := range ss {
		ss[i] = true
	}
}

// addRect marks the stripes an update confined to r must lock: its
// own quadrant's stripe (seam-confined regions escalate to all —
// their matches may be homed anywhere).
func (ss *stripeSet) addRect(m *Monitor, r geom.Rect) {
	s := m.stripeOf(r)
	if s == crossStripe {
		ss.all()
		return
	}
	ss[s] = true
}

// lockSet acquires the marked stripe locks in ascending order.
func (m *Monitor) lockSet(ss *stripeSet) {
	for i := 0; i < numStripes; i++ {
		if ss[i] {
			m.stripes[i].mu.Lock()
		}
	}
}

func (m *Monitor) unlockSet(ss *stripeSet) {
	for i := numStripes - 1; i >= 0; i-- {
		if ss[i] {
			m.stripes[i].mu.Unlock()
		}
	}
}

// lockAll is the escalation path: every stripe, ascending.
func (m *Monitor) lockAll() {
	for i := 0; i < numStripes; i++ {
		m.stripes[i].mu.Lock()
	}
}

func (m *Monitor) unlockAll() {
	for i := numStripes - 1; i >= 0; i-- {
		m.stripes[i].mu.Unlock()
	}
}

// lockHome locks the stripe a query is homed in, rechecking after
// acquisition: re-evaluation can move a query between stripes, but
// only while holding both the old and the new home's lock, so one
// stable read under the lock confirms the home.
func (m *Monitor) lockHome(q *query) *stripe {
	for {
		st := m.stripes[q.home.Load()]
		st.mu.Lock()
		if m.stripes[q.home.Load()] == st {
			return st
		}
		st.mu.Unlock()
	}
}

// forMatching invokes fn for every live query whose interest region
// intersects r, using the interest-region indexes of the stripes that
// can home such queries: r's own stripe plus the seam stripe (all
// stripes when r itself is seam-bound). The caller must hold those
// stripes' locks. In LinearScan mode this is the historical O(Q)
// scan.
func (m *Monitor) forMatching(r geom.Rect, fn func(*query)) {
	if m.linear {
		for _, q := range m.stripes[0].byID {
			if !q.dead && q.interest.Intersects(r) {
				fn(q)
			}
		}
		return
	}
	s := m.stripeOf(r)
	if s == crossStripe {
		for _, st := range m.stripes {
			st.matchInto(r, fn)
		}
		return
	}
	m.stripes[s].matchInto(r, fn)
	m.stripes[crossStripe].matchInto(r, fn)
}

func (st *stripe) matchInto(r geom.Rect, fn func(*query)) {
	st.qidx.SearchFunc(r, func(it rtree.Item) bool {
		if q := st.byID[QueryID(it.ID)]; q != nil && !q.dead {
			fn(q)
		}
		return true
	})
}

// table returns the monitor-wide view of one shadow table as a single
// SpatialIndex spanning all stripes; the caller must hold every
// stripe lock (re-evaluations run under lockAll).
func (m *Monitor) table(kind privacyqp.DataKind) unionIndex {
	var u unionIndex
	for i, st := range m.stripes {
		if kind == privacyqp.PublicData {
			u.trees[i] = st.pub
		} else {
			u.trees[i] = st.priv
		}
	}
	return u
}

// privateTable and publicTable expose the sharded shadow tables as
// one index for in-package tests and snapshots (unsynchronized; the
// caller coordinates with writers).
func (m *Monitor) privateTable() unionIndex { return m.table(privacyqp.PrivateData) }
func (m *Monitor) publicTable() unionIndex  { return m.table(privacyqp.PublicData) }

// unionIndex presents the five per-stripe R-tree fragments of one
// shadow table as a single privacyqp.SpatialIndex. Queries fan out to
// the fragments and merge; this runs only on the evaluation path —
// the per-update path never touches it.
type unionIndex struct {
	trees [numStripes]*rtree.Tree
}

var _ privacyqp.SpatialIndex = unionIndex{}

func (u unionIndex) Len() int {
	n := 0
	for _, t := range u.trees {
		if t != nil {
			n += t.Len()
		}
	}
	return n
}

func (u unionIndex) Search(r geom.Rect) []rtree.Item {
	return u.SearchAppend(r, nil)
}

func (u unionIndex) SearchAppend(r geom.Rect, dst []rtree.Item) []rtree.Item {
	for _, t := range u.trees {
		if t != nil {
			dst = t.SearchAppend(r, dst)
		}
	}
	return dst
}

func (u unionIndex) SearchFunc(r geom.Rect, fn func(rtree.Item) bool) {
	stopped := false
	for _, t := range u.trees {
		if t == nil || stopped {
			continue
		}
		t.SearchFunc(r, func(it rtree.Item) bool {
			if !fn(it) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

func (u unionIndex) All() []rtree.Item {
	var out []rtree.Item
	for _, t := range u.trees {
		if t != nil {
			out = append(out, t.All()...)
		}
	}
	return out
}

func (u unionIndex) Nearest(q geom.Point, metric rtree.Metric) (rtree.Neighbor, bool) {
	var best rtree.Neighbor
	found := false
	for _, t := range u.trees {
		if t == nil {
			continue
		}
		if n, ok := t.Nearest(q, metric); ok && (!found || n.Dist < best.Dist) {
			best, found = n, true
		}
	}
	return best, found
}

func (u unionIndex) NearestK(q geom.Point, k int, metric rtree.Metric) []rtree.Neighbor {
	return u.NearestKInto(q, k, metric, nil, nil)
}

// NearestKInto visits the fragments in order of their root MBRs'
// min-dist to q and folds each into one top-k list with
// NearestKMerge, stopping at the first fragment whose bound exceeds
// the k-th best so far: the filter probes of an evaluation usually
// touch one or two fragments, and none of them allocates once h and
// out have grown.
func (u unionIndex) NearestKInto(q geom.Point, k int, metric rtree.Metric, h *rtree.NNHeap, out []rtree.Neighbor) []rtree.Neighbor {
	out = out[:0]
	if k <= 0 {
		return out
	}
	type frag struct {
		bound float64
		t     *rtree.Tree
	}
	var order [numStripes]frag
	n := 0
	for _, t := range u.trees {
		if t == nil {
			continue
		}
		if b, ok := t.Bounds(); ok {
			// Insertion sort: five fragments at most.
			f := frag{q.MinDistRect(b), t}
			i := n
			for ; i > 0 && order[i-1].bound > f.bound; i-- {
				order[i] = order[i-1]
			}
			order[i] = f
			n++
		}
	}
	if h == nil {
		h = &rtree.NNHeap{}
	}
	for _, f := range order[:n] {
		if len(out) == k && f.bound > out[k-1].Dist {
			break
		}
		out = f.t.NearestKMerge(q, k, metric, h, out)
	}
	return out
}
