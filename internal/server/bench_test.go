package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"casper/internal/geom"
)

// scaleSizes are the private-table sizes of the write-path scaling
// curves: 1k to the 1M-object scenario, 20x past the paper's 50K users.
var scaleSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// scaleWorld is a 10 km square, about the extent of the synthetic
// Hennepin map.
var scaleWorld = geom.R(0, 0, 10_000, 10_000)

// scaleCache keeps the most recently built server, so the repeated
// invocations go test makes of one sub-benchmark while it sizes b.N (and
// the upsert and remove curves at the same n) share a single set-up.
// Benchmarks leave it holding exactly n objects, stored at regions.
var scaleCache struct {
	n       int
	s       *Server
	regions []geom.Rect
}

// scaleServer returns a server whose private table holds n cloaks with
// 50-100 m sides (about the paper's Amin range on this map) and the
// region stored for each ID 0..n-1.
func scaleServer(b *testing.B, n int) (*Server, []geom.Rect) {
	b.Helper()
	if scaleCache.n == n {
		return scaleCache.s, scaleCache.regions
	}
	scaleCache.s, scaleCache.regions = nil, nil // let a larger predecessor go first
	rng := rand.New(rand.NewSource(1))
	s := New()
	regions := make([]geom.Rect, n)
	batch := make([]PrivateObject, 0, 4096)
	for id := range regions {
		x, y := rng.Float64()*9_900, rng.Float64()*9_900
		regions[id] = geom.R(x, y, x+50+rng.Float64()*50, y+50+rng.Float64()*50)
		batch = append(batch, PrivateObject{ID: int64(id), Region: regions[id]})
		if len(batch) == cap(batch) || id == n-1 {
			if err := s.UpsertPrivateBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	scaleCache.n, scaleCache.s, scaleCache.regions = n, s, regions
	runtime.GC() // collect the set-up garbage and any predecessor before the clock starts
	return s, regions
}

// moveCloak shifts r by up to 50 m each way, clipped to the world: the
// cloak refresh of a user who moved since the last report.
func moveCloak(rng *rand.Rand, r geom.Rect) geom.Rect {
	dx, dy := rng.Float64()*100-50, rng.Float64()*100-50
	return geom.R(r.Min.X+dx, r.Min.Y+dy, r.Max.X+dx, r.Max.Y+dy).ClipTo(scaleWorld)
}

// BenchmarkServerUpsertScale is one cloak refresh (UpsertPrivate of a
// moved region under an existing ID) against a private table of n
// objects: clone the published tree, delete and reinsert one item,
// publish. make bench-updates gates that ns/op and B/op at 100k stay
// within 3x of 1k, the signature of an O(log n) write path.
func BenchmarkServerUpsertScale(b *testing.B) {
	for _, n := range scaleSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s, regions := scaleServer(b, n)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := rng.Intn(n)
				regions[id] = moveCloak(rng, regions[id])
				if err := s.UpsertPrivate(PrivateObject{ID: int64(id), Region: regions[id]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerRemoveScale is one RemovePrivate (a user quitting)
// against a private table of n objects. At most n/10 objects are
// removed before the timer stops and they are stored again, so the
// table stays within 10% of n.
func BenchmarkServerRemoveScale(b *testing.B) {
	for _, n := range scaleSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s, regions := scaleServer(b, n)
			rng := rand.New(rand.NewSource(3))
			order := rng.Perm(n)
			removed := make([]PrivateObject, 0, max(n/10, 1))
			restore := func() {
				if err := s.UpsertPrivateBatch(removed); err != nil {
					b.Fatal(err)
				}
				removed = removed[:0]
				rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(removed) == cap(removed) {
					b.StopTimer()
					restore()
					b.StartTimer()
				}
				id := order[len(removed)]
				if err := s.RemovePrivate(int64(id)); err != nil {
					b.Fatal(err)
				}
				removed = append(removed, PrivateObject{ID: int64(id), Region: regions[id]})
			}
			b.StopTimer()
			restore()
		})
	}
}
