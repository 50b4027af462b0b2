package main

import (
	"fmt"
	"math/rand"

	"casper/internal/anonymizer"
	"casper/internal/geom"
	"casper/internal/mobgen"
	"casper/internal/roadnet"
	"casper/internal/server"
)

// Op kinds. The first four are wire requests; opChurn is the standing
// query churn the serial replay interleaves (the wire phases churn on
// a timer instead).
type opKind uint8

const (
	opUpdate opKind = iota
	opNN
	opKNN
	opRange
	opChurn
	numWireOps = opChurn
)

var opNames = [...]string{"update", "nn", "knn", "range", "churn"}

func (k opKind) String() string { return opNames[k] }

// Query parameters shared by every workload: k of the kNN query, and
// the radius of range queries and range watches as a fraction of the
// universe width (the casper-loadgen convention).
const (
	knnK        = 5
	radiusFrac  = 1.0 / 20
	sloLatency  = 50e6 // ns; the open-loop latency objective
	stepSeconds = 10.0 // simulated seconds between a user's position reports
	trackSteps  = 32   // positions pre-generated per user; reused cyclically
	workers     = 16   // 2 connections x 8 in flight
	mapSeed     = 1
	connections = 2
)

// workload is one named traffic profile. Every workload uses the
// adaptive backend and paper-profile users (k in [1,50], Amin in
// [0.005%,0.01%] of the universe) moving on SyntheticHennepin.
type workload struct {
	name    string
	why     string
	users   int
	targets int
	watches int
	// mix holds relative weights of update, nn, knn, range.
	mix [numWireOps]float64
	// rate is the open-loop Poisson arrival rate (req/s).
	rate float64
	// wal makes the server durable, as casperd -wal runs it.
	wal bool
	// churnPerSec is the share of standing watches replaced per second.
	churnPerSec float64
	// replayOps is how many ops the traced run replays serially.
	replayOps int
	// setupRuns is how many times an untraced run builds the world to
	// take the median set-up time.
	setupRuns int
}

var workloads = []workload{
	{
		name:      "downtown-read",
		why:       "read-dominated small population: wire floor, candidate cache, query kernels and refinement dominate",
		users:     2000,
		targets:   10000,
		mix:       [numWireOps]float64{10, 50, 20, 20},
		rate:      4000,
		replayOps: 6000,
		setupRuns: 5,
	},
	{
		name:      "county-write",
		why:       "write-heavy county population with WAL on: clone-per-write index upserts, WAL appends and GC dominate",
		users:     8000,
		targets:   1000,
		mix:       [numWireOps]float64{70, 20, 5, 5},
		rate:      500,
		wal:       true,
		replayOps: 1500,
		setupRuns: 3,
	},
	{
		name:        "watch-churn",
		why:         "1,000 churning standing watches: every cloak move fans out into the continuous monitor",
		users:       2000,
		targets:     1000,
		watches:     1000,
		mix:         [numWireOps]float64{90, 10, 0, 0},
		rate:        250,
		churnPerSec: 0.10,
		replayOps:   4000,
		setupRuns:   5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// watchKind is the flavour of a standing query: a third each of
// NN over public targets, NN over other users' cloaks, and a private
// range over other users' cloaks.
type watchKind uint8

const (
	watchNNPublic watchKind = iota
	watchNNPrivate
	watchRangePrivate
)

type watchSpec struct {
	uid  anonymizer.UserID
	kind watchKind
}

// inputs is everything a run feeds the program, derived from the
// workload and the seed alone.
type inputs struct {
	w        workload
	seed     int64
	universe geom.Rect
	radius   float64
	targets  []server.PublicObject
	start    []geom.Point             // registration position, by uid-1
	profiles []anonymizer.Profile     // paper profile, by uid-1
	track    [trackSteps][]geom.Point // track[s][uid-1]: position after s+1 steps
	watches  []watchSpec
}

// makeInputs builds the world for a workload. Positions come from
// mobgen steps generated here, before any clock starts.
func makeInputs(w workload, seed int64) *inputs {
	// The county map is part of the workload; the seed draws the
	// population, its movement, profiles, targets and requests.
	graph := roadnet.SyntheticHennepin(mapSeed, roadnet.DefaultHennepinConfig())
	in := &inputs{w: w, seed: seed, universe: graph.Bounds()}
	in.radius = in.universe.Width() * radiusFrac

	pts := mobgen.UniformPoints(in.universe, w.targets, seed)
	in.targets = make([]server.PublicObject, len(pts))
	for i, p := range pts {
		in.targets[i] = server.PublicObject{ID: int64(i), Pos: p, Name: "target"}
	}

	gen := mobgen.New(graph, mobgen.DefaultConfig(w.users, seed))
	in.start = positions(gen.Positions())
	var buf []mobgen.Update
	for s := range in.track {
		buf = gen.StepInto(stepSeconds, buf)
		in.track[s] = positions(buf)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	area := in.universe.Area()
	in.profiles = make([]anonymizer.Profile, w.users)
	for i := range in.profiles {
		in.profiles[i] = anonymizer.Profile{
			K:    1 + rng.Intn(50),
			AMin: (5e-5 + rng.Float64()*5e-5) * area,
		}
	}
	in.watches = make([]watchSpec, w.watches)
	for i := range in.watches {
		in.watches[i] = in.drawWatch(rng)
	}
	return in
}

func positions(us []mobgen.Update) []geom.Point {
	out := make([]geom.Point, len(us))
	for i, u := range us {
		out[i] = u.Pos
	}
	return out
}

func (in *inputs) drawWatch(rng *rand.Rand) watchSpec {
	return watchSpec{
		uid:  anonymizer.UserID(1 + rng.Intn(in.w.users)),
		kind: watchKind(rng.Intn(3)),
	}
}

// op is one request of the workload. pos is set for updates. id
// names the op across the wire run and the serial replays: the n-th
// op of worker w has id n*workers+w; churn ops have negative ids.
type op struct {
	id   int64
	kind opKind
	uid  anonymizer.UserID
	pos  geom.Point
}

// opStream draws one worker's requests. Worker w owns the users with
// (uid-1) % workers == w, so a user's requests are issued by one
// worker in order and never overlap. The stream is a function of the
// seed and the worker alone, however fast requests complete.
type opStream struct {
	in     *inputs
	rng    *rand.Rand
	w      int
	n      int64 // ops drawn so far
	cum    [numWireOps]float64
	moves  map[anonymizer.UserID]int // updates drawn per user: the next track step
	ownedN int
}

// newOpStream starts worker w's stream. moves, when not nil, is where
// each user already is on its track, so a stream replayed after
// earlier traffic moves users on instead of back to their first step.
func newOpStream(in *inputs, seed int64, w int, moves map[anonymizer.UserID]int) *opStream {
	s := &opStream{
		in:    in,
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(w))),
		w:     w,
		moves: make(map[anonymizer.UserID]int),
	}
	for uid, n := range moves {
		if int(uid-1)%workers == w {
			s.moves[uid] = n
		}
	}
	total := 0.0
	for _, x := range in.w.mix {
		total += x
	}
	acc := 0.0
	for i, x := range in.w.mix {
		acc += x / total
		s.cum[i] = acc
	}
	s.ownedN = (in.w.users - w + workers - 1) / workers
	return s
}

func (s *opStream) next() op {
	u := s.rng.Float64()
	kind := opUpdate
	for k := opUpdate; k < numWireOps; k++ {
		if u <= s.cum[k] {
			kind = k
			break
		}
	}
	uid := anonymizer.UserID(s.w + workers*s.rng.Intn(s.ownedN) + 1)
	o := op{id: s.n*workers + int64(s.w), kind: kind, uid: uid}
	s.n++
	if kind == opUpdate {
		n := s.moves[uid]
		s.moves[uid] = n + 1
		o.pos = s.in.track[n%trackSteps][uid-1]
	}
	return o
}

// movesOf is where each user is on its track after ops.
func movesOf(ops []op) map[anonymizer.UserID]int {
	moves := make(map[anonymizer.UserID]int)
	for _, o := range ops {
		if o.kind == opUpdate {
			moves[o.uid]++
		}
	}
	return moves
}

// serialOps is the op sequence the traced run replays from one
// goroutine: the workers' streams interleaved round-robin, with a
// churn op wherever the watch churn rate puts one.
func serialOps(in *inputs, seed int64, n int) []op {
	streams := make([]*opStream, workers)
	for w := range streams {
		streams[w] = newOpStream(in, seed, w, nil)
	}
	churnEvery := 0
	if in.w.watches > 0 && in.w.churnPerSec > 0 {
		churnEvery = int(in.w.rate / (in.w.churnPerSec * float64(in.w.watches)))
		if churnEvery < 1 {
			churnEvery = 1
		}
	}
	ops := make([]op, 0, n)
	for i := 0; len(ops) < n; i++ {
		if churnEvery > 0 && i > 0 && i%churnEvery == 0 {
			ops = append(ops, op{id: int64(-1 - i), kind: opChurn})
			continue
		}
		ops = append(ops, streams[i%workers].next())
	}
	return ops
}
