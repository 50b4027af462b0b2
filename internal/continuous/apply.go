package continuous

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// PrivateUpdate is one cloaked-region refresh in a batch: the stored
// pseudonym and its new cloak. The monitor is pseudonymous by design —
// it never sees real user identities.
type PrivateUpdate struct {
	ID     int64
	Region geom.Rect
}

// applyOp is one private-table mutation flowing through the two-phase
// ingestion path.
type applyOp struct {
	pid    int64
	region geom.Rect // ignored for removes
	remove bool

	e   *privEntry
	had bool
	old geom.Rect
	ok  bool
}

// ApplyUpdates ingests a batch of private-object updates, taking each
// needed stripe lock once for the whole batch. Every region must be
// valid or the whole batch is rejected before any mutation. Duplicate
// IDs within a batch collapse to the last occurrence. Updates for
// disjoint quadrants ingest in parallel with other batches.
func (m *Monitor) ApplyUpdates(batch []PrivateUpdate) error {
	if len(batch) == 0 {
		return nil
	}
	for _, u := range batch {
		if !u.Region.IsValid() {
			return fmt.Errorf("continuous: invalid region %v for object %d", u.Region, u.ID)
		}
	}
	ops := make([]applyOp, 0, len(batch))
	for _, u := range batch {
		ops = append(ops, applyOp{pid: u.ID, region: u.Region})
	}
	if len(ops) > 1 {
		sortOps(ops)
		// Collapse duplicate pids to the last occurrence (sort is
		// stable, so the final op of a run is the final update).
		w := 0
		for i := range ops {
			if i+1 < len(ops) && ops[i+1].pid == ops[i].pid {
				continue
			}
			ops[w] = ops[i]
			w++
		}
		ops = ops[:w]
	}
	m.applyPrivate(ops)
	return nil
}

// UpsertPrivate inserts or moves one private object (a user's cloaked
// region keyed by her stored pseudonym). Range counts over the old
// and new regions adjust incrementally. NN and radius queries over
// private data whose interest regions are touched absorb the move into
// their candidate lists; only an NN query whose filter step the move
// can change (a filter object moved, or the object now comes within a
// filter probe's nearest distance) re-evaluates.
func (m *Monitor) UpsertPrivate(id int64, region geom.Rect) error {
	if !region.IsValid() {
		return fmt.Errorf("continuous: invalid region %v for object %d", region, id)
	}
	ops := [1]applyOp{{pid: id, region: region}}
	m.applyPrivate(ops[:])
	return nil
}

// RemovePrivate deletes a private object, reporting whether it was
// present.
func (m *Monitor) RemovePrivate(id int64) bool {
	ops := [1]applyOp{{pid: id, remove: true}}
	m.applyPrivate(ops[:])
	return ops[0].ok
}

// applyPrivate is the two-phase ingestion core. ops must be pid-unique
// and pid-sorted.
//
// Phase 1 locks each op's entry mutex (pid order), reads the old
// regions, locks the union of affected stripes (ascending), then for
// every op mutates the shadow table, folds range-count deltas inline,
// absorbs the move into matched NN/radius answers, and dirty-marks the
// matched queries it cannot absorb. Phase 2, outside the entry locks,
// escalates to all stripes once and re-evaluates the dirty queries.
// The dirty flag is set inside the same critical section as the table
// mutation and cleared only under all stripe locks, so a re-evaluation
// can never miss a concurrent mutation: the mutation either happened
// before the re-evaluation (which reads the current table) or is
// absorbed into, or re-marks dirty, the answer it produced.
func (m *Monitor) applyPrivate(ops []applyOp) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		m.applyTicks.Add(1)
		m.applyNanos.Add(int64(d))
		monApplySeconds.Observe(d.Seconds())
	}()
	m.noteUpdates(int64(len(ops)))
	for i := range ops {
		ops[i].e = m.entry(ops[i].pid)
	}
	for i := range ops {
		ops[i].e.mu.Lock()
	}
	var need stripeSet
	need[crossStripe] = true // matches can always be homed on the seam
	for i := range ops {
		op := &ops[i]
		op.had = op.e.present
		op.old = op.e.region
		if op.had {
			need.addRect(m, op.old)
		}
		if !op.remove {
			need.addRect(m, op.region)
		}
	}
	var pending []*query
	m.lockSet(&need)
	for i := range ops {
		m.applyOneLocked(&ops[i], &pending)
	}
	m.unlockSet(&need)
	for i := len(ops) - 1; i >= 0; i-- {
		ops[i].e.mu.Unlock()
	}
	m.reevalPending(pending)
}

// applyOneLocked mutates the shadow table for one op and joins the
// old and new regions against the interest-region indexes. Caller
// holds the op's entry lock and every stripe lock the op can touch.
func (m *Monitor) applyOneLocked(op *applyOp, pending *[]*query) {
	e := op.e
	if op.remove {
		if !e.present {
			return
		}
		e.present = false
		m.stripes[m.stripeOf(op.old)].priv.Delete(op.pid, op.old)
		m.matchPrivate(op.pid, op.old, geom.Rect{}, true, false, pending)
		op.ok = true
		return
	}
	if e.present && e.region == op.region {
		// Same region re-announced: counted as an update (the stream
		// delivered it) but nothing can have changed.
		op.ok = true
		return
	}
	if e.present {
		m.stripes[m.stripeOf(op.old)].priv.Delete(op.pid, op.old)
	}
	m.stripes[m.stripeOf(op.region)].priv.Insert(rtree.Item{Rect: op.region, ID: op.pid})
	e.present = true
	e.region = op.region
	m.matchPrivate(op.pid, op.old, op.region, op.had, true, pending)
	op.ok = true
}

// matchPrivate joins one private-object transition (pid's old region
// -> new region) against the standing queries: range counts get the
// contribution delta applied inline, and NN/radius queries over
// private data absorb the move or are dirty-marked for phase 2 (see
// absorbMove). Each matched query is visited once. Caller holds the
// stripes of both regions (and the seam stripe).
func (m *Monitor) matchPrivate(pid int64, old, new geom.Rect, hadOld, hasNew bool, pending *[]*query) {
	if hadOld {
		m.forMatching(old, func(q *query) {
			switch q.kind {
			case qRange:
				delta := -contribution(old, q.rect, q.policy)
				if hasNew {
					delta += contribution(new, q.rect, q.policy)
				}
				m.applyCountDelta(q, delta)
			default:
				m.absorbMove(q, pid, new, hasNew, pending)
			}
		})
	}
	if !hasNew {
		return
	}
	m.forMatching(new, func(q *query) {
		// Queries also matched by the old region were fully handled
		// above (a range delta already includes the new contribution,
		// an absorbed move already placed the new region); skip them.
		if hadOld && q.interest.Intersects(old) {
			return
		}
		switch q.kind {
		case qRange:
			// The old region (if any) does not intersect q.rect, so
			// its contribution was zero under every policy.
			m.applyCountDelta(q, contribution(new, q.rect, q.policy))
		default:
			m.absorbMove(q, pid, new, true, pending)
		}
	})
}

// absorbMove folds pid's move (to region r, or out of the table when
// !present) into a matched NN or radius answer over private data, in
// place: the object joins, leaves, or refreshes its rect in the
// candidate list, and subscribers hear about it only when the ID set
// changes. That is exactly what a fresh evaluation would return as
// long as the move leaves A_EXT unchanged. A radius query's A_EXT is
// its evaluation cloak expanded by the radius, whatever the data. An
// NN query's A_EXT depends only on its filter objects, so the move is
// absorbed unless pid is a filter or r comes within some probe's
// nearest distance (ties included). Those queries are dirty-marked
// for phase 2, as are ones whose last evaluation failed; a query
// already dirty is left to its pending re-evaluation, and one over
// public data is not affected at all.
func (m *Monitor) absorbMove(q *query, pid int64, r geom.Rect, present bool, pending *[]*query) {
	if q.dataKind != privacyqp.PrivateData || q.dirty {
		return
	}
	if !q.absorbs || (q.kind == qNN && q.mayChangeFilters(pid, r, present)) {
		markDirty(q, pending)
		return
	}
	if q.setMember(pid, r, present && pid != q.exclude && q.admits(r)) {
		m.emitCandidates(q)
	}
	m.absorbed.Add(1)
	contAbsorbed.Inc()
}

// mayChangeFilters reports whether pid's move to r (or removal) could
// change the filter step of q's last evaluation. Every side of A_EXT
// lies at least a probe's recorded distance beyond that probe, so a
// region within that distance, like every filter, lies inside A_EXT:
// any move that could change the filter step matches q and gets here.
func (q *query) mayChangeFilters(pid int64, r geom.Rect, present bool) bool {
	for _, id := range q.filters[:q.nFilters] {
		if id == pid {
			return true
		}
	}
	if !present {
		return false
	}
	for _, pr := range q.probes[:q.nProbes] {
		if rtree.MaxDist.DistTo(pr.p, r) <= pr.d {
			return true
		}
	}
	return false
}

// admits is the candidate test of q's last evaluation applied to one
// region: PrivateRange's radius test over the evaluation cloak, or
// PrivateNN's A_EXT overlap under the MinOverlap policy.
func (q *query) admits(r geom.Rect) bool {
	if !r.Intersects(q.interest) {
		return false
	}
	if q.kind == qRadius {
		return geom.MinDistRects(q.evalCloak, r) <= q.radius
	}
	return q.opt.MinOverlap <= 0 || geom.OverlapFraction(r, q.interest) >= q.opt.MinOverlap
}

// candGrowth is how many slots a full candidate list grows by: lists
// change by one object at a time, and doubling would hold ~2x the
// memory across a thousand standing answers.
const candGrowth = 4

// setMember makes pid a candidate with region r (member) or not, and
// reports whether the candidate ID set changed.
func (q *query) setMember(pid int64, r geom.Rect, member bool) bool {
	c := q.candidates
	i, found := slices.BinarySearchFunc(c, pid, func(it rtree.Item, id int64) int { return cmp.Compare(it.ID, id) })
	switch {
	case member && found:
		c[i].Rect = r
		return false
	case member:
		if len(c) == cap(c) {
			c = append(make([]rtree.Item, 0, len(c)+candGrowth), c...)
		}
		c = slices.Insert(c, i, rtree.Item{Rect: r, ID: pid})
	case found:
		c = slices.Delete(c, i, i+1)
	default:
		return false
	}
	q.candidates = c
	return true
}

// matchPublic dirty-marks the NN/radius queries over public data whose
// interest regions one public-table change touches.
func (m *Monitor) matchPublic(r geom.Rect, pending *[]*query) {
	m.forMatching(r, func(q *query) {
		if q.kind != qRange && q.dataKind == privacyqp.PublicData {
			markDirty(q, pending)
		}
	})
}

func markDirty(q *query, pending *[]*query) {
	if !q.dirty {
		q.dirty = true
		*pending = append(*pending, q)
	}
}

func (m *Monitor) applyCountDelta(q *query, delta float64) {
	if delta == 0 {
		return
	}
	q.count += delta
	m.emit(Event{Query: q.id, Kind: CountChanged, Count: q.count})
}

// reevalPending is phase 2: escalate to all stripes once and
// re-evaluate every query the batch dirtied. A query already
// re-evaluated by a concurrent batch (its flag cleared) is skipped —
// marks coalesce, which is itself an incremental saving.
func (m *Monitor) reevalPending(pending []*query) {
	if len(pending) == 0 {
		return
	}
	m.lockAll()
	for _, q := range pending {
		if q.dead || !q.dirty {
			continue
		}
		q.dirty = false
		m.reevalLocked(q)
	}
	m.unlockAll()
}

// SetPublic replaces the public table (stationary objects of
// interest), striping the items by quadrant, and re-evaluates every
// standing query over public data.
func (m *Monitor) SetPublic(items []rtree.Item) {
	var parts [numStripes][]rtree.Item
	for _, it := range items {
		s := m.stripeOf(it.Rect)
		parts[s] = append(parts[s], it)
	}
	m.lockAll()
	for i, st := range m.stripes {
		st.pub = rtree.BulkLoad(parts[i])
	}
	var affected []*query
	for _, st := range m.stripes {
		for _, q := range st.byID {
			if q.kind != qRange && q.dataKind == privacyqp.PublicData {
				affected = append(affected, q)
			}
		}
	}
	// Re-evaluation can rehome a query, so mutate outside the map
	// iteration.
	for _, q := range affected {
		q.dirty = false
		m.reevalLocked(q)
	}
	m.unlockAll()
}

// AddPublic inserts one public object and re-evaluates the public-data
// queries whose interest regions it enters.
func (m *Monitor) AddPublic(it rtree.Item) {
	m.noteUpdates(1)
	var need stripeSet
	need[crossStripe] = true
	need.addRect(m, it.Rect)
	var pending []*query
	m.lockSet(&need)
	m.stripes[m.stripeOf(it.Rect)].pub.Insert(it)
	m.matchPublic(it.Rect, &pending)
	m.unlockSet(&need)
	m.reevalPending(pending)
}

// RemovePublic deletes a public object by ID and bounding rectangle,
// reporting whether it was present.
func (m *Monitor) RemovePublic(id int64, r geom.Rect) bool {
	m.noteUpdates(1)
	var need stripeSet
	need[crossStripe] = true
	need.addRect(m, r)
	var pending []*query
	m.lockSet(&need)
	ok := m.stripes[m.stripeOf(r)].pub.Delete(id, r)
	if ok {
		m.matchPublic(r, &pending)
	}
	m.unlockSet(&need)
	m.reevalPending(pending)
	return ok
}
