package continuous

import (
	"maps"
	"math/rand"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
)

// absorbFixture is a monitor over a hand-placed private table whose
// inline notifications are counted per query.
type absorbFixture struct {
	t      *testing.T
	m      *Monitor
	events map[QueryID]int
}

func newAbsorbFixture(t *testing.T, objs map[int64]geom.Rect) *absorbFixture {
	t.Helper()
	f := &absorbFixture{t: t, events: map[QueryID]int{}}
	f.m = NewMonitor(Config{Universe: world, Notify: func(e Event) {
		if e.Kind == CandidatesChanged {
			f.events[e.Query]++
		}
	}})
	for id, r := range objs {
		f.upsert(id, r)
	}
	return f
}

func (f *absorbFixture) upsert(id int64, r geom.Rect) {
	f.t.Helper()
	if err := f.m.UpsertPrivate(id, r); err != nil {
		f.t.Fatal(err)
	}
}

// move applies one upsert and reports how many evaluations and
// change events it caused for query id.
func (f *absorbFixture) move(id QueryID, pid int64, r geom.Rect) (evals int64, events int) {
	f.t.Helper()
	e0, n0 := f.m.Evaluations(), f.events[id]
	f.upsert(pid, r)
	return f.m.Evaluations() - e0, f.events[id] - n0
}

func (f *absorbFixture) candidates(id QueryID) map[int64]geom.Rect {
	f.t.Helper()
	got, ok := f.m.Candidates(id)
	if !ok {
		f.t.Fatalf("query %d vanished", id)
	}
	out := map[int64]geom.Rect{}
	for _, c := range got {
		out[c.ID] = c.Rect
	}
	if len(out) != len(got) {
		f.t.Fatalf("query %d: duplicate candidates %v", id, got)
	}
	return out
}

// checkSnapshot requires query id's answer to equal, IDs and rects, a
// fresh evaluation at its evaluation cloak over a bulk-loaded copy of
// the private table.
func (f *absorbFixture) checkSnapshot(id QueryID) {
	f.t.Helper()
	q := f.m.queries[id]
	db := rtree.BulkLoad(f.m.privateTable().All())
	var res privacyqp.Result
	var err error
	if q.kind == qNN {
		res, err = privacyqp.PrivateNN(db, q.evalCloak, privacyqp.PrivateData, q.opt)
	} else {
		res, err = privacyqp.PrivateRange(db, q.evalCloak, q.radius, privacyqp.PrivateData)
	}
	if err != nil {
		f.t.Fatal(err)
	}
	want := map[int64]geom.Rect{}
	for _, c := range res.Candidates {
		if c.ID != q.exclude {
			want[c.ID] = c.Rect
		}
	}
	if got := f.candidates(id); !maps.Equal(got, want) {
		f.t.Fatalf("query %d: maintained %v, snapshot %v", id, got, want)
	}
}

func square(cx, cy, half float64) geom.Rect {
	return geom.R(cx-half, cy-half, cx+half, cy+half)
}

func TestRadiusQueryAbsorbsMoves(t *testing.T) {
	const asker = 99
	f := newAbsorbFixture(t, map[int64]geom.Rect{
		1:     square(4300, 4300, 20), // inside the radius
		2:     square(8000, 8000, 20), // far away
		asker: square(9000, 1000, 20),
	})
	id, cands, err := f.m.RegisterRadius(geom.R(4000, 4000, 4200, 4200), 500, privacyqp.PrivateData, asker)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].ID != 1 {
		t.Fatalf("initial candidates %v", cands)
	}
	cands[0].ID = 12345 // the caller owns the returned list
	steps := []struct {
		name   string
		pid    int64
		to     geom.Rect
		events int
		member bool
	}{
		{"enters", 2, square(4600, 4100, 20), 1, true},
		{"rect only", 2, square(4610, 4120, 25), 0, true},
		{"corner slack stays out", 2, square(4650, 4650, 20), 1, false},
		{"re-enters", 2, square(3700, 4100, 20), 1, true},
		{"leaves", 1, square(6000, 6000, 20), 1, false},
		{"excluded asker inside", asker, square(4100, 4100, 20), 0, false},
	}
	for _, s := range steps {
		absorbed := f.m.Absorbed()
		evals, events := f.move(id, s.pid, s.to)
		if evals != 0 {
			t.Fatalf("%s: %d evaluations, want 0", s.name, evals)
		}
		if events != s.events {
			t.Fatalf("%s: %d events, want %d", s.name, events, s.events)
		}
		if f.m.Absorbed() != absorbed+1 {
			t.Fatalf("%s: absorbed %d -> %d", s.name, absorbed, f.m.Absorbed())
		}
		r, ok := f.candidates(id)[s.pid]
		if ok != s.member || ok && r != s.to {
			t.Fatalf("%s: candidate %d = (%v, %v), want member %v at %v", s.name, s.pid, r, ok, s.member, s.to)
		}
		f.checkSnapshot(id)
	}
	if !f.m.RemovePrivate(2) {
		t.Fatal("remove failed")
	}
	if _, ok := f.candidates(id)[2]; ok || f.events[id] != 5 {
		t.Fatalf("removal: still a candidate %v, events %d", ok, f.events[id])
	}
	f.checkSnapshot(id)
}

// nnFixture registers a four-filter NN query over private data: one
// small object just outside each corner of the cloak (the filters),
// plus a few others.
func nnFixture(t *testing.T, opt privacyqp.Options, exclude int64) (*absorbFixture, QueryID, *query) {
	t.Helper()
	f := newAbsorbFixture(t, map[int64]geom.Rect{
		1:  square(3950, 3950, 10),
		2:  square(4250, 3950, 10),
		3:  square(3950, 4250, 10),
		4:  square(4250, 4250, 10),
		5:  square(4100, 3900, 10), // inside A_EXT, not a filter
		6:  square(7000, 7000, 10),
		7:  square(2000, 8000, 10),
		99: square(9000, 9000, 10),
	})
	id, _, err := f.m.RegisterNN(geom.R(4000, 4000, 4200, 4200), privacyqp.PrivateData, opt, exclude)
	if err != nil {
		t.Fatal(err)
	}
	q := f.m.queries[id]
	if q.nFilters != 4 || q.nProbes != 4 {
		t.Fatalf("filter step: %d filters, %d probes", q.nFilters, q.nProbes)
	}
	f.checkSnapshot(id)
	return f, id, q
}

// harmless reports whether r is beyond every probe's nearest distance:
// the precondition for a non-filter move to be absorbed.
func harmless(q *query, r geom.Rect) bool {
	for _, pr := range q.probes[:q.nProbes] {
		if rtree.MaxDist.DistTo(pr.p, r) <= pr.d {
			return false
		}
	}
	return true
}

func TestNNQueryAbsorbsNonFilterMoves(t *testing.T) {
	f, id, q := nnFixture(t, privacyqp.DefaultOptions(), -1)
	aext := q.interest
	// A small object inside A_EXT's left margin, midway up: beyond
	// every corner probe's distance.
	in := square(aext.Min.X+2, aext.Center().Y, 1)
	if !harmless(q, in) {
		t.Fatalf("fixture: %v beats a probe", in)
	}
	for _, s := range []struct {
		name   string
		pid    int64
		to     geom.Rect
		events int
	}{
		{"enters", 6, in, 1},
		{"rect only", 6, in.Expand(0.5), 0},
		{"leaves", 5, square(1000, 1000, 10), 1},
		{"stays out", 7, square(1500, 8000, 10), 0},
	} {
		evals, events := f.move(id, s.pid, s.to)
		if evals != 0 || events != s.events {
			t.Fatalf("%s: %d evaluations, %d events; want 0, %d", s.name, evals, events, s.events)
		}
		f.checkSnapshot(id)
	}
	if got := f.candidates(id)[6]; got != in.Expand(0.5) {
		t.Fatalf("refreshed rect %v, want %v", got, in.Expand(0.5))
	}
}

func TestNNQueryReevaluatesFilterChanges(t *testing.T) {
	for _, s := range []struct {
		name string
		pid  int64
		to   geom.Rect
	}{
		{"filter moves away", 1, square(1000, 1000, 10)},
		{"filter moves closer", 4, square(4220, 4220, 5)},
		{"newcomer beats a probe", 6, square(4195, 4005, 2)},
	} {
		t.Run(s.name, func(t *testing.T) {
			f, id, _ := nnFixture(t, privacyqp.DefaultOptions(), -1)
			absorbed := f.m.Absorbed()
			if evals, _ := f.move(id, s.pid, s.to); evals != 1 {
				t.Fatalf("%d evaluations, want 1", evals)
			}
			if f.m.Absorbed() != absorbed {
				t.Fatal("a re-evaluated move was counted as absorbed")
			}
			f.checkSnapshot(id)
		})
	}
	t.Run("filter removed", func(t *testing.T) {
		f, id, _ := nnFixture(t, privacyqp.DefaultOptions(), -1)
		evals := f.m.Evaluations()
		f.m.RemovePrivate(2)
		if f.m.Evaluations() != evals+1 {
			t.Fatal("removing a filter did not re-evaluate")
		}
		f.checkSnapshot(id)
	})
}

func TestNNQueryNeverAdmitsExcludedAsker(t *testing.T) {
	f, id, q := nnFixture(t, privacyqp.DefaultOptions(), 99)
	in := square(q.interest.Min.X+2, q.interest.Center().Y, 1)
	if evals, events := f.move(id, 99, in); evals != 0 || events != 0 {
		t.Fatalf("excluded asker entering A_EXT: %d evaluations, %d events", evals, events)
	}
	if _, ok := f.candidates(id)[99]; ok {
		t.Fatal("excluded asker admitted")
	}
	f.checkSnapshot(id)
	// As a filter it is still part of the filter step, just never of
	// the answer.
	if evals, _ := f.move(id, 99, square(4005, 4005, 1)); evals != 1 {
		t.Fatalf("excluded asker beating a probe: %d evaluations, want 1", evals)
	}
	if _, ok := f.candidates(id)[99]; ok {
		t.Fatal("excluded asker admitted after re-evaluation")
	}
	f.checkSnapshot(id)
}

func TestNNQueryMinOverlapAdmission(t *testing.T) {
	opt := privacyqp.DefaultOptions()
	opt.MinOverlap = 0.5
	f, id, q := nnFixture(t, opt, -1)
	aext := q.interest
	y := aext.Center().Y
	// 30% of the object's area inside A_EXT: matched, not admitted.
	partial := geom.R(aext.Min.X-7, y-2, aext.Min.X+3, y+2)
	// 80%: admitted.
	mostly := geom.R(aext.Min.X-2, y-2, aext.Min.X+8, y+2)
	for _, r := range []geom.Rect{partial, mostly} {
		if !harmless(q, r) {
			t.Fatalf("fixture: %v beats a probe", r)
		}
	}
	for _, s := range []struct {
		to     geom.Rect
		events int
		member bool
	}{
		{partial, 0, false},
		{mostly, 1, true},
		{partial, 1, false},
	} {
		evals, events := f.move(id, 6, s.to)
		if evals != 0 || events != s.events {
			t.Fatalf("move to %v: %d evaluations, %d events; want 0, %d", s.to, evals, events, s.events)
		}
		if _, ok := f.candidates(id)[6]; ok != s.member {
			t.Fatalf("move to %v: member %v, want %v", s.to, ok, s.member)
		}
		f.checkSnapshot(id)
	}
}

// TestUnionIndexNearestKMatchesSingleTree checks the pruned fragment
// merge against one bulk-loaded tree over the same random items,
// including items on the stripe seams, under both metrics.
func TestUnionIndexNearestKMatchesSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMonitor(Config{Universe: world})
	batch := make([]PrivateUpdate, 600)
	for i := range batch {
		batch[i] = PrivateUpdate{ID: int64(i), Region: randRegion(rng, 400)}
	}
	if err := m.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	u := m.privateTable()
	single := rtree.BulkLoad(u.All())
	var h rtree.NNHeap
	var out []rtree.Neighbor
	for i := 0; i < 300; i++ {
		p := geom.Pt(rng.Float64()*11000-500, rng.Float64()*11000-500)
		k := 1 + rng.Intn(12)
		metric := rtree.Metric(i % 2)
		out = u.NearestKInto(p, k, metric, &h, out)
		want := single.NearestK(p, k, metric)
		if len(out) != len(want) {
			t.Fatalf("%v k=%d: %d neighbors, want %d", p, k, len(out), len(want))
		}
		// Equal distances (MinDist is 0 inside every covering rect) may
		// break either way, so compare the distance sequence and check
		// each returned item is distinct and really at its distance.
		seen := map[int64]bool{}
		for j := range want {
			nb := out[j]
			if nb.Dist != want[j].Dist || metric.DistTo(p, nb.Item.Rect) != nb.Dist || seen[nb.Item.ID] {
				t.Fatalf("%v k=%d metric %d: neighbor %d = %d@%v, want %d@%v",
					p, k, metric, j, nb.Item.ID, nb.Dist, want[j].Item.ID, want[j].Dist)
			}
			seen[nb.Item.ID] = true
		}
	}
	p := world.Center()
	if a := testing.AllocsPerRun(50, func() { out = u.NearestKInto(p, 4, rtree.MaxDist, &h, out) }); a != 0 {
		t.Fatalf("NearestKInto with reused scratch allocates %v times", a)
	}
}
