package continuous

import (
	"fmt"
	"math"
	"testing"

	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/privacyqp"
	"casper/internal/roadnet"
	"casper/internal/rtree"
)

// benchNet is shared by every monitor benchmark so the road network is
// built once, not once per sub-benchmark scale.
var benchNet = roadnet.SyntheticHennepin(101, roadnet.SyntheticHennepinConfig{
	Extent: 10000, GridN: 8, ArterialEvery: 4, Jitter: 0.2,
})

// benchCloak is the benchmark cloaking model: a fixed-size square
// around the reported position, clipped to the universe.
func benchCloak(p geom.Point, half float64) geom.Rect {
	return geom.R(p.X-half, p.Y-half, p.X+half, p.Y+half).ClipTo(world)
}

// benchMonitor builds a monitor with nObjects moving private users
// (seeded from a mobgen fleet), 2000 public objects, and nQueries
// standing queries: 80% range counts, 15% public-data NN, 5%
// private-data radius. It returns the monitor and a pre-generated
// update trace (8 mobgen ticks, cloaked) for the measured loop, so
// trace generation stays off the benchmark clock.
//
// scale shrinks the whole geometry except the map: every length (query
// rects, NN cloaks, radius, the users' cloaks) is multiplied by it and
// the public objects are 1/scale² times as many, so their spacing, and
// with it each NN query's interest region, shrinks by the same factor.
// An update then meets each query with probability ∝ scale², so with
// scale² ∝ 1/nQueries the expected matches per update stay fixed.
func benchMonitor(b *testing.B, cfg Config, nQueries, nObjects int, scale float64) (*Monitor, []PrivateUpdate) {
	b.Helper()
	m := NewMonitor(cfg)
	b.Cleanup(m.Close)

	area := scale * scale
	pts := mobgen.UniformPoints(world, int(math.Round(2000/area)), 7)
	pub := make([]rtree.Item, len(pts))
	for i, p := range pts {
		pub[i] = rtree.Item{ID: int64(i), Rect: geom.R(p.X, p.Y, p.X, p.Y)}
	}
	m.SetPublic(pub)

	gen := mobgen.New(benchNet, mobgen.DefaultConfig(nObjects, 13))
	buf := make([]mobgen.Update, 0, nObjects)
	seed := make([]PrivateUpdate, 0, nObjects)
	for _, u := range gen.PositionsInto(buf) {
		seed = append(seed, PrivateUpdate{ID: u.ID, Region: benchCloak(u.Pos, 60*scale)})
	}
	if err := m.ApplyUpdates(seed); err != nil {
		b.Fatal(err)
	}

	rects := mobgen.UniformRects(world, nQueries, 10_000*area, 640_000*area, 23)
	cloaks := mobgen.UniformRects(world, nQueries, 40_000*area, 160_000*area, 29)
	for i := 0; i < nQueries; i++ {
		var err error
		switch {
		case i%20 < 16:
			_, _, err = m.RegisterRangeCount(rects[i], privacyqp.CountFractional)
		case i%20 < 19:
			_, _, err = m.RegisterNN(cloaks[i], privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
		default:
			_, _, err = m.RegisterRadius(cloaks[i], 500*scale, privacyqp.PrivateData, -1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}

	const ticks = 8
	trace := make([]PrivateUpdate, 0, ticks*nObjects)
	for t := 0; t < ticks; t++ {
		for _, u := range gen.StepInto(5, buf) {
			trace = append(trace, PrivateUpdate{ID: u.ID, Region: benchCloak(u.Pos, 60*scale)})
		}
	}
	return m, trace
}

// BenchmarkMonitorLinearBaseline is the pre-refactor monitor: every
// data update scans every standing query. Kept as the baseline the
// indexed numbers are judged against (the acceptance bar is >= 5x at
// 10k standing queries).
func BenchmarkMonitorLinearBaseline(b *testing.B) {
	for _, q := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			m, trace := benchMonitor(b, Config{LinearScan: true, SafeRegionFrac: -1}, q, 2048, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := trace[i%len(trace)]
				if err := m.UpsertPrivate(u.ID, u.Region); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorIndexedUpdate is the per-update hot path with the
// standing queries spatially indexed: an update visits only the queries
// whose interest region it meets, never the rest of those registered.
// Here every query keeps its size as q grows, so the matches per update
// (the matches/update metric) grow in proportion to q, and that growth,
// not the shadow-table write, is what the q1000 -> q100000 curve
// measures. BenchmarkMonitorIndexedUpdateFixedMatches holds the matches
// constant instead.
func BenchmarkMonitorIndexedUpdate(b *testing.B) {
	benchIndexedUpdate(b, func(int) float64 { return 1 })
}

// BenchmarkMonitorIndexedUpdateFixedMatches is
// BenchmarkMonitorIndexedUpdate with every area of the geometry shrunk
// as 1/q (see benchMonitor's scale), so the matches per update stay
// about constant while q grows 100x: what is left of the growth is the
// cost of the indexes themselves.
func BenchmarkMonitorIndexedUpdateFixedMatches(b *testing.B) {
	benchIndexedUpdate(b, func(q int) float64 { return math.Sqrt(1000 / float64(q)) })
}

// benchIndexedUpdate runs one indexed-update curve over 1k/10k/100k
// standing queries, sizing the queries at each q by scale(q).
func benchIndexedUpdate(b *testing.B, scale func(q int) float64) {
	for _, q := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			m, trace := benchMonitor(b, Config{}, q, 2048, scale(q))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := trace[i%len(trace)]
				if err := m.UpsertPrivate(u.ID, u.Region); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(meanMatches(m, trace), "matches/update")
		})
	}
}

// meanMatches is the mean number of standing queries whose interest
// region meets an update's region, over the first 1024 updates of
// trace. Only the benchmark goroutine touches the monitor here, so the
// stripe locks are not taken.
func meanMatches(m *Monitor, trace []PrivateUpdate) float64 {
	trace = trace[:min(len(trace), 1024)]
	matches := 0
	for _, u := range trace {
		m.forMatching(u.Region, func(*query) { matches++ })
	}
	return float64(matches) / float64(len(trace))
}

// BenchmarkMonitorBatchIngest measures ApplyUpdates amortization: one
// op ingests a whole 256-update mobgen batch, taking each stripe lock
// once. The updates/op metric makes the per-update cost comparable to
// BenchmarkMonitorIndexedUpdate.
func BenchmarkMonitorBatchIngest(b *testing.B) {
	const batchSize = 256
	m, trace := benchMonitor(b, Config{}, 10000, 2048, 1)
	nBatches := len(trace) / batchSize
	ticks0, total0 := m.ApplyStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % nBatches) * batchSize
		if err := m.ApplyUpdates(trace[off : off+batchSize]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(batchSize, "updates/op")
	// Per-tick apply cost and the delivery-queue high-water mark are
	// the resource-telemetry headline numbers (ROADMAP): the same
	// figures casper_monitor_apply_seconds and
	// casper_monitor_queue_high_water export at runtime.
	if ticks, total := m.ApplyStats(); ticks > ticks0 {
		b.ReportMetric(float64(total-total0)/float64(ticks-ticks0), "applyns/tick")
	}
	_, hw := m.QueueStats()
	b.ReportMetric(float64(hw), "queuehw/run")
}

// BenchmarkMonitorNNRecloak drives a moving-asker trace through
// standing NN watches and reports how many full re-evaluations each
// cloak movement costs. The legacy sub-benchmark re-evaluates on every
// movement (evals/update = 1); the safe sub-benchmark answers
// movements inside the safe region with a containment check, so its
// evals/update ratio is the safe-region headline.
func BenchmarkMonitorNNRecloak(b *testing.B) {
	const nAskers = 64
	run := func(b *testing.B, cfg Config) {
		m, _ := benchMonitor(b, cfg, 1000, 1024, 1)
		gen := mobgen.New(benchNet, mobgen.DefaultConfig(nAskers, 31))
		watches := make([]QueryID, nAskers)
		for i, u := range gen.Positions() {
			id, _, err := m.RegisterNN(benchCloak(u.Pos, 150), privacyqp.PublicData, privacyqp.DefaultOptions(), -1)
			if err != nil {
				b.Fatal(err)
			}
			watches[i] = id
		}
		const ticks = 256
		pos := make([][]geom.Point, ticks)
		buf := make([]mobgen.Update, 0, nAskers)
		for t := range pos {
			pos[t] = make([]geom.Point, nAskers)
			for i, u := range gen.StepInto(2, buf) {
				pos[t][i] = u.Pos
			}
		}
		evals0, hits0 := m.Evaluations(), m.SafeRegionHits()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, a := (i/nAskers)%ticks, i%nAskers
			if err := m.UpdateNNCloak(watches[a], benchCloak(pos[t][a], 150)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		n := float64(b.N)
		b.ReportMetric(float64(m.Evaluations()-evals0)/n, "evals/update")
		b.ReportMetric(float64(m.SafeRegionHits()-hits0)/n, "safehits/update")
	}
	b.Run("legacy", func(b *testing.B) { run(b, Config{SafeRegionFrac: -1}) })
	b.Run("safe", func(b *testing.B) { run(b, Config{SafeRegionFrac: 0.7}) })
}

// BenchmarkMonitorPrivateChurn is the watch-churn shape: 1,024 standing
// queries over private data, half NN and half radius, each excluding
// its asker's own pseudonym, while 2,048 cloaked users move. One op is
// one private-object update. evals/update counts the full
// re-evaluations those moves cause, absorbed/update the matched
// queries that folded a move into their answer instead.
func BenchmarkMonitorPrivateChurn(b *testing.B) {
	const nObjects, nWatches = 2048, 1024
	m := NewMonitor(Config{})
	b.Cleanup(m.Close)
	gen := mobgen.New(benchNet, mobgen.DefaultConfig(nObjects, 37))
	buf := make([]mobgen.Update, 0, nObjects)
	seed := make([]PrivateUpdate, 0, nObjects)
	for _, u := range gen.PositionsInto(buf) {
		seed = append(seed, PrivateUpdate{ID: u.ID, Region: benchCloak(u.Pos, 60)})
	}
	if err := m.ApplyUpdates(seed); err != nil {
		b.Fatal(err)
	}
	for i, asker := range seed[:nWatches] {
		var err error
		if i%2 == 0 {
			_, _, err = m.RegisterNN(asker.Region, privacyqp.PrivateData, privacyqp.DefaultOptions(), asker.ID)
		} else {
			_, _, err = m.RegisterRadius(asker.Region, 500, privacyqp.PrivateData, asker.ID)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	const ticks = 8
	trace := make([]PrivateUpdate, 0, ticks*nObjects)
	for t := 0; t < ticks; t++ {
		for _, u := range gen.StepInto(5, buf) {
			trace = append(trace, PrivateUpdate{ID: u.ID, Region: benchCloak(u.Pos, 60)})
		}
	}
	evals0, absorbed0 := m.Evaluations(), m.Absorbed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := trace[i%len(trace)]
		if err := m.UpsertPrivate(u.ID, u.Region); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(m.Evaluations()-evals0)/n, "evals/update")
	b.ReportMetric(float64(m.Absorbed()-absorbed0)/n, "absorbed/update")
}
