package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"casper/internal/geom"
)

// itemKey identifies a stored item for the multiset models: Delete
// matches on exactly (ID, Rect).
type itemKey struct {
	ID   int64
	Rect geom.Rect
}

// model is the oracle for one tree version: a multiset of its items.
type model map[itemKey]int

func (m model) clone() model {
	c := make(model, len(m))
	for k, n := range m {
		c[k] = n
	}
	return c
}

func (m model) items() []Item {
	var out []Item
	for k, n := range m {
		for i := 0; i < n; i++ {
			out = append(out, Item{ID: k.ID, Rect: k.Rect})
		}
	}
	return out
}

// pick returns a uniformly random key of m (m must be non-empty). Keys
// are sorted first so the choice depends only on the seed.
func (m model) pick(rng *rand.Rand) itemKey {
	keys := make([]itemKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ID != keys[j].ID {
			return keys[i].ID < keys[j].ID
		}
		return keys[i].Rect.Min.X < keys[j].Rect.Min.X
	})
	return keys[rng.Intn(len(keys))]
}

func multiset(items []Item) model {
	m := model{}
	for _, it := range items {
		m[itemKey{it.ID, it.Rect}]++
	}
	return m
}

func sameMultiset(a, b model) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// checkVersion compares one tree version against its model: the full
// item multiset, one range search and one k-NN probe, plus the
// structural invariants.
func checkVersion(tr *Tree, m model, rng *rand.Rand) error {
	if err := tr.CheckInvariants(); err != nil {
		return err
	}
	if !sameMultiset(multiset(tr.All()), m) {
		return fmt.Errorf("All() diverges from the model (tree %d items, model %d)", tr.Len(), len(m.items()))
	}
	items := m.items()
	if tr.Len() != len(items) {
		return fmt.Errorf("Len %d, model %d", tr.Len(), len(items))
	}
	x, y := rng.Float64()*1000, rng.Float64()*1000
	q := geom.R(x, y, x+rng.Float64()*300, y+rng.Float64()*300)
	var want []Item
	for _, it := range items {
		if it.Rect.Intersects(q) {
			want = append(want, it)
		}
	}
	if !sameMultiset(multiset(tr.Search(q)), multiset(want)) {
		return fmt.Errorf("Search(%v) diverges from the model", q)
	}
	p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	k := 1 + rng.Intn(6)
	got, wantNN := tr.NearestK(p, k, MaxDist), bruteNearestK(items, p, k, MaxDist)
	if len(got) != len(wantNN) {
		return fmt.Errorf("NearestK returned %d, model %d", len(got), len(wantNN))
	}
	for i := range got {
		if math.Abs(got[i].Dist-wantNN[i].Dist) > 1e-9 {
			return fmt.Errorf("NearestK rank %d: dist %v, model %v", i, got[i].Dist, wantNN[i].Dist)
		}
	}
	return nil
}

// TestCloneCopyOnWriteModel runs a seeded random sequence of Insert,
// Delete and Clone over several live versions, writing to sources and
// clones alike, and checks every version against its own model after
// every operation: a write that leaked through a shared node into
// another version shows up there as a divergence.
func TestCloneCopyOnWriteModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := NewWithCapacity(6)
	m0 := model{}
	nextID := int64(0)
	for i := 0; i < 300; i++ {
		it := randRectItem(rng, nextID)
		nextID++
		base.Insert(it)
		m0[itemKey{it.ID, it.Rect}]++
	}
	trees := []*Tree{base}
	models := []model{m0}
	for op := 0; op < 1500; op++ {
		v := rng.Intn(len(trees))
		switch r := rng.Float64(); {
		case len(trees) < 3 || r < 0.1:
			trees = append(trees, trees[v].Clone())
			models = append(models, models[v].clone())
			if len(trees) > 6 {
				d := rng.Intn(len(trees))
				trees = append(trees[:d], trees[d+1:]...)
				models = append(models[:d], models[d+1:]...)
			}
		case r < 0.55 || len(models[v]) == 0:
			it := randRectItem(rng, nextID)
			nextID++
			if len(models[v]) > 0 && rng.Intn(10) == 0 {
				k := models[v].pick(rng) // a duplicate of a stored item
				it = Item{ID: k.ID, Rect: k.Rect}
			}
			trees[v].Insert(it)
			models[v][itemKey{it.ID, it.Rect}]++
		default:
			k := models[v].pick(rng)
			if !trees[v].Delete(k.ID, k.Rect) {
				t.Fatalf("op %d: delete of stored item %v from version %d failed", op, k, v)
			}
			if models[v][k]--; models[v][k] == 0 {
				delete(models[v], k)
			}
			if trees[v].Delete(nextID, k.Rect) {
				t.Fatalf("op %d: delete of an absent item succeeded", op)
			}
		}
		for i := range trees {
			if err := checkVersion(trees[i], models[i], rng); err != nil {
				t.Fatalf("op %d, version %d: %v", op, i, err)
			}
		}
	}
}

// TestCloneCopiesOnlyThePath pins the cost model: after Clone, one
// upsert (delete an item, reinsert it slightly moved) copies at most
// the nodes on two root-to-leaf paths, 2×height, unless it splits or
// condenses nodes; those rarer upserts also create split siblings or
// reinsert orphans, and get a looser bound. A deep clone copies every
// node and fails both.
func TestCloneCopiesOnlyThePath(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := NewWithCapacity(8)
	var items []Item
	for i := 0; i < 5000; i++ {
		it := randPointItem(rng, int64(i))
		items = append(items, it)
		src.Insert(it)
	}
	st := src.Stats()
	if st.Height < 4 {
		t.Fatalf("tree too shallow to test path copying: height %d", st.Height)
	}
	if n := src.Clone().UnsharedWith(src); n != 0 {
		t.Fatalf("a fresh clone has %d unshared nodes", n)
	}
	plain := 0
	for trial := 0; trial < 200; trial++ {
		it := items[rng.Intn(len(items))]
		c := src.Clone()
		if !c.Delete(it.ID, it.Rect) {
			t.Fatalf("trial %d: delete failed", trial)
		}
		p := geom.Pt(it.Rect.Min.X+rng.Float64()*4-2, it.Rect.Min.Y+rng.Float64()*4-2)
		c.Insert(Item{ID: it.ID, Rect: geom.Rect{Min: p, Max: p}})
		bound := 5 * st.Height
		if c.Stats().Nodes == st.Nodes {
			plain++
			bound = 2 * st.Height
		}
		if n := c.UnsharedWith(src); n > bound {
			t.Fatalf("trial %d: one upsert copied %d nodes, height %d allows %d", trial, n, st.Height, bound)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if err := src.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if src.Len() != len(items) || !sameMultiset(multiset(src.All()), multiset(items)) {
		t.Fatal("writes to clones changed the source")
	}
	if plain < 100 {
		t.Fatalf("only %d of 200 upserts left the node count unchanged; the 2×height bound went untested", plain)
	}
}

// TestStressCloneReadersDuringWrites publishes tree versions the way
// internal/server does (clone the published tree, mutate the clone,
// publish it) while readers keep scanning whatever version is current.
// Each reader's answer must equal the model of the version it loaded;
// run under -race, any write into a node a published version still
// reaches is also a reported race.
func TestStressCloneReadersDuringWrites(t *testing.T) {
	type version struct {
		tree  *Tree
		items map[int64]geom.Rect
	}
	rng := rand.New(rand.NewSource(33))
	first := &version{tree: NewWithCapacity(8), items: map[int64]geom.Rect{}}
	for i := int64(0); i < 1500; i++ {
		it := randRectItem(rng, i)
		first.tree.Insert(it)
		first.items[i] = it.Rect
	}
	var cur atomic.Pointer[version]
	cur.Store(first)

	var done atomic.Bool
	defer done.Store(true) // stops the readers if the writer fails
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				v := cur.Load()
				x, y := rng.Float64()*1000, rng.Float64()*1000
				q := geom.R(x, y, x+100, y+100)
				got := map[int64]bool{}
				for _, it := range v.tree.Search(q) {
					got[it.ID] = true
				}
				want := 0
				for id, rect := range v.items {
					if rect.Intersects(q) {
						want++
						if !got[id] {
							errs <- fmt.Errorf("item %d missing from Search(%v) of its snapshot", id, q)
							return
						}
					}
				}
				if len(got) != want {
					errs <- fmt.Errorf("Search(%v) returned %d items, snapshot holds %d", q, len(got), want)
					return
				}
			}
		}(int64(100 + r))
	}

	for batch := 0; batch < 300; batch++ {
		prev := cur.Load()
		next := &version{tree: prev.tree.Clone(), items: make(map[int64]geom.Rect, len(prev.items))}
		for id, rect := range prev.items {
			next.items[id] = rect
		}
		for i := 0; i < 8; i++ {
			id := int64(rng.Intn(1500))
			if !next.tree.Delete(id, next.items[id]) {
				t.Fatalf("batch %d: delete of %d failed", batch, id)
			}
			moved := randRectItem(rng, id)
			next.tree.Insert(moved)
			next.items[id] = moved.Rect
		}
		cur.Store(next)
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := cur.Load().tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
