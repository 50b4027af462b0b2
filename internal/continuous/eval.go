package continuous

import (
	"cmp"
	"math"
	"slices"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// evalQueryLocked (re)evaluates a query of any kind from the current
// shadow tables, refreshing its answer, interest region, and safe
// region. Caller holds all stripe locks (evaluation reads the whole
// table through the union index).
func (m *Monitor) evalQueryLocked(q *query) error {
	switch q.kind {
	case qRange:
		count, err := privacyqp.PublicRangeCount(m.privateTable(), q.rect, q.policy)
		if err != nil {
			return err
		}
		q.count = count
		q.interest = q.rect
		return nil
	case qNN:
		return m.evalNNLocked(q)
	default:
		return m.evalRadiusLocked(q)
	}
}

// evalCloakFor inflates the asker's cloak per SafeRegionFrac: the
// evaluation runs at C+ = cloak expanded by frac of its longer side.
// Because C+ contains every cloak the asker can report while staying
// inside the safe region, a candidate list computed at C+ is
// inclusive for all of them — that containment is the safe region's
// correctness argument, and the slack from CandidateValiditySlack
// widens it further.
func (m *Monitor) evalCloakFor(cloak geom.Rect) geom.Rect {
	f := m.cfg.SafeRegionFrac
	if f <= 0 || !cloak.IsValid() {
		return cloak
	}
	return cloak.Expand(f * math.Max(cloak.Width(), cloak.Height()))
}

func (m *Monitor) evalNNLocked(q *query) error {
	ec := m.evalCloakFor(q.cloak)
	res, err := privacyqp.PrivateNN(m.table(q.dataKind), ec, q.dataKind, q.opt)
	if err != nil {
		return err
	}
	cands := res.Candidates
	if q.exclude >= 0 {
		kept := cands[:0]
		for _, c := range cands {
			if c.ID != q.exclude {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	q.evalCloak = ec
	q.interest = res.AExt
	q.hasSafe = false
	if m.cfg.SafeRegionFrac >= 0 {
		slack := 0.0
		if q.exclude < 0 {
			slack = privacyqp.CandidateValiditySlack(ec, res.AExt, cands, q.dataKind, q.opt.MinOverlap)
		}
		q.safe = ec.Expand(slack)
		q.hasSafe = true
	}
	if q.dataKind == privacyqp.PrivateData {
		q.recordFilterStep(ec, res.Filters)
	}
	setCandidates(q, cands)
	return nil
}

// recordFilterStep keeps what absorbMove needs to prove a data move
// leaves this evaluation's filter step unchanged. Each probe's nearest
// target is one of the filters, so the smallest MaxDist from the probe
// to a filter is exactly the distance the probe found.
func (q *query) recordFilterStep(ec geom.Rect, filters []rtree.Item) {
	pts, n := privacyqp.FilterProbes(ec, q.opt.Filters)
	for i, p := range pts[:n] {
		d := math.Inf(1)
		for _, f := range filters {
			d = math.Min(d, rtree.MaxDist.DistTo(p, f.Rect))
		}
		q.probes[i] = probe{p: p, d: d}
	}
	q.nProbes = n
	for i, f := range filters {
		q.filters[i] = f.ID
	}
	q.nFilters = len(filters)
	q.absorbs = true
}

func (m *Monitor) evalRadiusLocked(q *query) error {
	ec := m.evalCloakFor(q.cloak)
	res, err := privacyqp.PrivateRange(m.table(q.dataKind), ec, q.radius, q.dataKind)
	if err != nil {
		return err
	}
	cands := res.Candidates
	if q.exclude >= 0 {
		kept := cands[:0]
		for _, c := range cands {
			if c.ID != q.exclude {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	q.evalCloak = ec
	q.interest = res.AExt
	// A radius answer computed at C+ is inclusive for every cloak
	// inside C+ (the candidate set only shrinks as the cloak does), so
	// containment alone is the safe region; there is no distance slack
	// to add without admitting targets beyond A_EXT.
	q.hasSafe = false
	if m.cfg.SafeRegionFrac >= 0 {
		q.safe = ec
		q.hasSafe = true
	}
	// A_EXT is the cloak expanded by the radius, whatever the data, so
	// every private-object move can be absorbed.
	q.absorbs = q.dataKind == privacyqp.PrivateData
	setCandidates(q, cands)
	return nil
}

// setCandidates installs a freshly evaluated answer, sorted by ID.
func setCandidates(q *query, cands []rtree.Item) {
	slices.SortFunc(cands, func(a, b rtree.Item) int { return cmp.Compare(a.ID, b.ID) })
	q.candidates = cands
}

// sameIDs reports whether two ID-sorted candidate lists hold the same
// IDs; a rect-only difference is not a change subscribers hear about.
func sameIDs(a, b []rtree.Item) bool {
	return slices.EqualFunc(a, b, func(x, y rtree.Item) bool { return x.ID == y.ID })
}

// reevalLocked re-runs one NN/radius query against the current
// tables, rehomes it if its interest region moved stripes, and
// notifies the subscriber if the candidate set changed. Caller holds
// all stripe locks; the caller manages the dirty flag.
func (m *Monitor) reevalLocked(q *query) {
	old := q.candidates
	oldInterest := q.interest
	if err := m.evalQueryLocked(q); err != nil {
		// Evaluation failure (empty table, degenerate cloak): publish
		// an empty answer and watch the whole universe so the first
		// relevant change re-evaluates and recovers the query.
		q.evalCloak = geom.Rect{}
		q.safe = geom.Rect{}
		q.hasSafe = false
		q.absorbs = false
		q.interest = m.universe
		setCandidates(q, nil)
	}
	m.noteEval()
	if q.interest != oldInterest {
		// The index entry keys on the old interest rect, so delete
		// explicitly with it rather than via removeQuery.
		oldHome := m.stripes[q.home.Load()]
		delete(oldHome.byID, q.id)
		if oldHome.qidx != nil {
			oldHome.qidx.Delete(int64(q.id), oldInterest)
		}
		// Rehoming is safe here: both stripes are locked (lockAll),
		// which is what lets lockHome trust a stable home read.
		q.home.Store(int32(m.stripeOf(q.interest)))
		m.stripes[q.home.Load()].addQuery(q)
	}
	if !sameIDs(old, q.candidates) {
		m.emitCandidates(q)
	}
}

func (m *Monitor) emitCandidates(q *query) {
	m.emit(Event{Query: q.id, Kind: CandidatesChanged, Candidates: cloneItems(q.candidates)})
}
