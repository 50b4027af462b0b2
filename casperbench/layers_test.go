package main

import (
	"encoding/json"
	"os"
	"testing"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/core"
	"casper/internal/rtree"
)

// TestStackMatchesCasper replays a short seeded op sequence through
// core.Casper and through the composed-layer stack the traced run
// times, and requires the same cloaks and candidate IDs at every step:
// the trace must cost the same program the wire serves.
func TestStackMatchesCasper(t *testing.T) {
	w := workload{
		name: "test", users: 300, targets: 600, watches: 45,
		mix: [numWireOps]float64{40, 30, 15, 15}, rate: 400, churnPerSec: 0.1,
	}
	in := makeInputs(w, 7)
	ops := serialOps(in, 7, 800)

	c, err := core.New(coreConfig(in, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadPublicObjects(in.targets); err != nil {
		t.Fatal(err)
	}
	c.EnableContinuousBuffered(func(continuous.Event) {}, 1024)
	wd := &world{in: in, c: c, churnRNG: newChurnRNG(in)}
	for i, p := range in.start {
		if err := c.RegisterUser(anonymizer.UserID(i+1), p, anonymizer.Profile{K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, prof := range in.profiles {
		if err := c.SetProfile(anonymizer.UserID(i+1), prof); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range in.watches {
		ref, err := wd.addWatch(spec)
		if err != nil {
			t.Fatal(err)
		}
		wd.watches = append(wd.watches, ref)
	}

	stk, refs, err := buildStack(in, "")
	if err != nil {
		t.Fatal(err)
	}
	defer stk.close()
	stk.rec = &recorder{}
	r := &stackReplay{s: stk, in: in, watches: refs, churnRNG: newChurnRNG(in)}

	for i, o := range ops {
		got, err := r.step(o)
		if err != nil {
			t.Fatalf("op %d (%s uid %d): stack: %v", i, o.kind, o.uid, err)
		}
		switch o.kind {
		case opUpdate:
			if err := c.UpdateUser(o.uid, o.pos); err != nil {
				t.Fatalf("op %d: casper update: %v", i, err)
			}
			stored, ok := c.Server().GetPrivate(stk.pseudo[o.uid])
			if !ok || stored.Region != got.cloak {
				t.Fatalf("op %d: casper stored %v (found %v), stack cloaked %v", i, stored.Region, ok, got.cloak)
			}
		case opNN:
			ans, err := c.NearestPublic(o.uid)
			if err != nil {
				t.Fatalf("op %d: casper nn: %v", i, err)
			}
			if ans.CloakedQuery != got.cloak {
				t.Fatalf("op %d: cloak %v vs %v", i, ans.CloakedQuery, got.cloak)
			}
			sameIDs(t, i, "nn candidates", ans.Candidates, got.candidates)
			sameIDs(t, i, "nn answer", []rtree.Item{ans.Exact}, got.answers)
		case opKNN:
			items, bd, err := c.KNearestPublic(o.uid, knnK)
			if err != nil {
				t.Fatalf("op %d: casper knn: %v", i, err)
			}
			if bd.Candidates != len(got.candidates) {
				t.Fatalf("op %d: knn candidates %d vs %d", i, bd.Candidates, len(got.candidates))
			}
			sameIDs(t, i, "knn answers", items, got.answers)
		case opRange:
			items, bd, err := c.RangePublic(o.uid, in.radius)
			if err != nil {
				t.Fatalf("op %d: casper range: %v", i, err)
			}
			if bd.Candidates != len(got.candidates) {
				t.Fatalf("op %d: range candidates %d vs %d", i, bd.Candidates, len(got.candidates))
			}
			sameIDs(t, i, "range answers", items, got.answers)
		case opChurn:
			if err := wd.churnOne(); err != nil {
				t.Fatalf("op %d: casper churn: %v", i, err)
			}
		}
	}

	// Standing queries: same registrations in the same order give the
	// same query IDs, and their candidate lists must agree.
	if len(wd.watches) != len(r.watches) {
		t.Fatalf("watch counts %d vs %d", len(wd.watches), len(r.watches))
	}
	for i := range wd.watches {
		a, okA := c.Monitor().Candidates(wd.watches[i].qid)
		b, okB := stk.mon.Candidates(r.watches[i].qid)
		if !okA || !okB {
			t.Fatalf("watch %d: missing (%v, %v)", i, okA, okB)
		}
		sameIDs(t, i, "watch candidates", a, b)
	}
	if len(stk.rec.all()) == 0 {
		t.Fatal("the stack recorded no spans")
	}
}

func sameIDs(t *testing.T, op int, what string, a, b []rtree.Item) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("op %d: %s: %d vs %d items", op, what, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Rect != b[i].Rect {
			t.Fatalf("op %d: %s[%d]: %d %v vs %d %v", op, what, i, a[i].ID, a[i].Rect, b[i].ID, b[i].Rect)
		}
	}
}

// TestOracleFindsWrongAnswers checks the brute-force oracle accepts
// exact answers and rejects a wrong one of each kind.
func TestOracleFindsWrongAnswers(t *testing.T) {
	in := makeInputs(workload{users: 50, targets: 500}, 3)
	p := in.start[0]
	best := nearestK(in.targets, p, knnK)
	ids := func(rs []ranked) []int64 {
		out := make([]int64, len(rs))
		for i, r := range rs {
			out[i] = r.id
		}
		return out
	}
	var inRange []int64
	for _, tg := range in.targets {
		if p.Dist(tg.Pos) <= in.radius {
			inRange = append(inRange, tg.ID)
		}
	}
	good := []answer{
		{kind: opNN, pos: p, ids: ids(best[:1])},
		{kind: opKNN, pos: p, ids: ids(best)},
		{kind: opRange, pos: p, ids: inRange},
	}
	bad := []answer{
		{kind: opNN, pos: p, ids: ids(best[1:2])},
		{kind: opKNN, pos: p, ids: append(ids(best[1:]), best[0].id)},
		{kind: opRange, pos: p, ids: inRange[1:]},
	}
	if n, err := checkAnswers(in.targets, in.radius, [][]answer{good}); n != 0 {
		t.Fatalf("exact answers rejected: %v", err)
	}
	for _, a := range bad {
		if n, _ := checkAnswers(in.targets, in.radius, [][]answer{{a}}); n != 1 {
			t.Fatalf("wrong %s answer accepted", a.kind)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads the program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	for i, m := range endToEnd {
		e := spec.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, e, m)
		}
	}
	for i, m := range perLayer {
		p := spec.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, p, m)
		}
	}
}
