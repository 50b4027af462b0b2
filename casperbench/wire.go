package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/protocol"
)

// world is one served Casper instance plus the benchmark's two client
// connections to it over loopback.
type world struct {
	in      *inputs
	c       *core.Casper
	srv     *protocol.Server
	clients [connections]*protocol.Client
	walPath string

	// watchMu guards watches and churnRNG, which the churner goroutine
	// and the serial replay both use.
	watchMu  sync.Mutex
	watches  []watchRef
	churnRNG *rand.Rand

	// pos[uid-1] is the user's last acknowledged position. Only the
	// worker owning the user touches its entry.
	pos []geom.Point
}

type watchRef struct {
	uid anonymizer.UserID
	qid continuous.QueryID
}

// coreConfig is the deployment every workload runs: the paper's
// defaults over the road network's bounds, durable when asked.
func coreConfig(in *inputs, walPath string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Universe = in.universe
	cfg.WALPath = walPath
	return cfg
}

// newWorld builds a world and brings it to ready: targets loaded,
// users registered at k=1 and then moved to their paper profile over
// the wire, and watches standing. It returns the set-up time, from
// New to ready.
func newWorld(ctx context.Context, in *inputs, dir string) (*world, time.Duration, error) {
	w := &world{in: in, churnRNG: newChurnRNG(in)}
	if in.w.wal {
		w.walPath = filepath.Join(dir, fmt.Sprintf("wal-%d.log", os.Getpid()))
		_ = os.Remove(w.walPath)
	}
	start := time.Now()
	c, err := core.New(coreConfig(in, w.walPath))
	if err != nil {
		return nil, 0, err
	}
	w.c = c
	if err := c.LoadPublicObjects(in.targets); err != nil {
		w.close()
		return nil, 0, err
	}
	if in.w.watches > 0 {
		// The event buffer casper-loadgen serves watches with.
		c.EnableContinuousBuffered(func(continuous.Event) {}, 1024)
	}
	w.srv = protocol.NewServer(c)
	w.srv.SetLogf(func(string, ...any) {})
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, 0, err
	}
	for i := range w.clients {
		cl, err := protocol.DialContext(ctx, addr.String(), protocol.WithMaxInFlight(workers/connections))
		if err != nil {
			w.close()
			return nil, 0, err
		}
		w.clients[i] = cl
	}
	// Register everyone at k=1 first: a first registration whose k
	// exceeds the population so far is unsatisfiable by design.
	w.pos = append([]geom.Point(nil), in.start...)
	err = w.eachUser(func(cl *protocol.Client, uid int64) error {
		p := in.start[uid-1]
		return cl.Register(ctx, uid, p.X, p.Y, 1, 0)
	})
	if err == nil {
		err = w.eachUser(func(cl *protocol.Client, uid int64) error {
			prof := in.profiles[uid-1]
			return cl.SetProfile(ctx, uid, prof.K, prof.AMin)
		})
	}
	if err != nil {
		w.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	for _, spec := range in.watches {
		ref, err := w.addWatch(spec)
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("setup watch: %w", err)
		}
		w.watches = append(w.watches, ref)
	}
	return w, time.Since(start), nil
}

// eachUser runs fn for every user from the workers that own them.
func (w *world) eachUser(fn func(cl *protocol.Client, uid int64) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := w.clients[k*connections/workers]
			for uid := int64(k + 1); uid <= int64(w.in.w.users); uid += workers {
				if err := fn(cl, uid); err != nil {
					errs[k] = fmt.Errorf("user %d: %w", uid, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *world) addWatch(spec watchSpec) (watchRef, error) {
	var (
		qid continuous.QueryID
		err error
	)
	switch spec.kind {
	case watchNNPublic:
		qid, _, err = w.c.WatchNearest(spec.uid, privacyqp.PublicData)
	case watchNNPrivate:
		qid, _, err = w.c.WatchNearest(spec.uid, privacyqp.PrivateData)
	default:
		qid, _, err = w.c.WatchRange(spec.uid, w.in.radius, privacyqp.PrivateData)
	}
	return watchRef{uid: spec.uid, qid: qid}, err
}

// churnOne replaces one standing watch with a freshly drawn one.
func (w *world) churnOne() error {
	w.watchMu.Lock()
	defer w.watchMu.Unlock()
	if len(w.watches) == 0 {
		return nil
	}
	i := w.churnRNG.Intn(len(w.watches))
	w.c.Unwatch(w.watches[i].uid, w.watches[i].qid)
	ref, err := w.addWatch(w.in.drawWatch(w.churnRNG))
	if err != nil {
		w.watches = append(w.watches[:i], w.watches[i+1:]...)
		return err
	}
	w.watches[i] = ref
	return nil
}

// startChurn replaces churnPerSec of the watches every second, one
// at a time at even intervals, until the returned stop function is
// called; stop waits for the churner to exit and returns how many
// replacements failed.
func (w *world) startChurn() (stop func() int64) {
	if w.in.w.watches == 0 || w.in.w.churnPerSec <= 0 {
		return func() int64 { return 0 }
	}
	every := time.Duration(float64(time.Second) / (w.in.w.churnPerSec * float64(w.in.w.watches)))
	done := make(chan struct{})
	exited := make(chan struct{})
	var failed int64
	go func() {
		defer close(exited)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if w.churnOne() != nil {
				failed++
			}
		}
	}()
	return func() int64 {
		close(done)
		<-exited
		return failed
	}
}

// close tears the world down. Errors are dropped: the run is over and
// the WAL file is deleted.
func (w *world) close() {
	for _, cl := range w.clients {
		if cl != nil {
			cl.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.c != nil {
		w.c.Close()
	}
	if w.walPath != "" {
		_ = os.Remove(w.walPath)
	}
}

// walBytes is the size of the live WAL file (0 without one).
func (w *world) walBytes() int64 {
	if w.walPath == "" {
		return 0
	}
	fi, err := os.Stat(w.walPath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// privacyTotals reads the release and k-violation counters from the
// wire Stats privacy block.
func (w *world) privacyTotals(ctx context.Context) (releases, violations int64, err error) {
	st, err := w.clients[0].Stats(ctx)
	if err != nil {
		return 0, 0, err
	}
	if st.Privacy == nil {
		return 0, 0, fmt.Errorf("stats: no privacy block")
	}
	return st.Privacy.Releases, st.Privacy.KViolations, nil
}

// answer is one query result kept for the oracle: the asker's last
// acknowledged position and the IDs the wire returned.
type answer struct {
	kind opKind
	pos  geom.Point
	ids  []int64
}

// tally is one worker's account of a phase.
type tally struct {
	attempted, ok        int64
	errs, srvShed, clShd int64
	withinSLO            int64
	updLat, qryLat       []sample // open loop: latency from the scheduled send
	done                 []int64  // closed loop: completion offsets (ns)
	nnCands, nnCount     int64
	firstErr             error
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.errs += o.errs
	t.srvShed += o.srvShed
	t.clShd += o.clShd
	t.withinSLO += o.withinSLO
	t.updLat = append(t.updLat, o.updLat...)
	t.qryLat = append(t.qryLat, o.qryLat...)
	t.done = append(t.done, o.done...)
	t.nnCands += o.nnCands
	t.nnCount += o.nnCount
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) failed() int64 { return t.errs + t.srvShed + t.clShd }

// exec sends one op over cl and accounts it. It returns the rpc
// duration. Answers are appended to ans for the oracle when non-nil.
func (w *world) exec(ctx context.Context, cl *protocol.Client, o op, t *tally, ans *[]answer) (time.Duration, error) {
	uid := int64(o.uid)
	asked := w.pos[o.uid-1]
	start := time.Now()
	var (
		err error
		ids []int64
	)
	switch o.kind {
	case opUpdate:
		err = cl.Update(ctx, uid, o.pos.X, o.pos.Y)
	case opNN:
		var r protocol.NNResult
		r, err = cl.NearestPublic(ctx, uid)
		if err == nil {
			ids = []int64{r.Exact.ID}
			t.nnCands += int64(len(r.Candidates))
			t.nnCount++
		}
	case opKNN:
		var objs []protocol.Object
		objs, _, err = cl.KNearestPublic(ctx, uid, knnK)
		ids = objectIDs(objs)
	case opRange:
		var objs []protocol.Object
		objs, _, err = cl.RangePublic(ctx, uid, w.in.radius)
		ids = objectIDs(objs)
	}
	d := time.Since(start)
	t.attempted++
	switch {
	case err == nil:
		t.ok++
		if o.kind == opUpdate {
			w.pos[o.uid-1] = o.pos
		} else if ans != nil {
			*ans = append(*ans, answer{kind: o.kind, pos: asked, ids: ids})
		}
	case errors.Is(err, protocol.ErrOverloaded):
		t.srvShed++
	default:
		t.errs++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s uid %d: %w", o.kind, uid, err)
		}
	}
	return d, err
}

func objectIDs(objs []protocol.Object) []int64 {
	ids := make([]int64, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

// job is one open-loop arrival, due at offset `due` from the phase
// start.
type job struct {
	o   op
	due time.Duration
}

// openLoopResult is the open-loop phase's account.
type openLoopResult struct {
	t        tally
	lateness []int64 // ns the generator sent each arrival after it was due
}

// queueDepth bounds each worker's backlog: an arrival that finds its
// worker this far behind is shed client-side (and counted as failed),
// so an overloaded server cannot hide behind an unbounded queue.
const queueDepth = 64

// openLoop offers a Poisson stream at the workload's rate for d.
// Arrivals are drawn before the clock starts; latency runs from each
// request's scheduled send.
func (w *world) openLoop(ctx context.Context, streams []*opStream, d time.Duration, seed int64, ans [][]answer) openLoopResult {
	rng := rand.New(rand.NewSource(seed ^ 0x0be4))
	var sched []job
	for at := 0.0; ; {
		at += rng.ExpFloat64() / w.in.w.rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			break
		}
		k := rng.Intn(workers)
		sched = append(sched, job{o: streams[k].next(), due: due})
	}
	queues := make([]chan job, workers)
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range queues {
		queues[k] = make(chan job, queueDepth)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := w.clients[k*connections/workers]
			t := &tallies[k]
			for jb := range queues[k] {
				_, err := w.exec(ctx, cl, jb.o, t, &ans[k])
				lat := int64(time.Since(start.Add(jb.due)))
				if err != nil {
					continue
				}
				if lat <= sloLatency {
					t.withinSLO++
				}
				sm := sample{at: int64(jb.due), lat: lat}
				if jb.o.kind == opUpdate {
					t.updLat = append(t.updLat, sm)
				} else {
					t.qryLat = append(t.qryLat, sm)
				}
			}
		}(k)
	}
	res := openLoopResult{lateness: make([]int64, 0, len(sched))}
	var shed tally
	for _, jb := range sched {
		if wait := time.Until(start.Add(jb.due)); wait > 0 {
			time.Sleep(wait)
		}
		res.lateness = append(res.lateness, int64(time.Since(start.Add(jb.due))))
		k := int(jb.o.uid-1) % workers
		select {
		case queues[k] <- jb:
		default:
			shed.attempted++
			shed.clShd++
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	res.t = shed
	for k := range tallies {
		res.t.merge(&tallies[k])
	}
	return res
}

// closedLoop runs every worker back to back for d and returns the
// merged tally and the elapsed time. With rec non-nil each rpc is
// recorded as a span keyed by the op's id.
func (w *world) closedLoop(ctx context.Context, streams []*opStream, d time.Duration, ans [][]answer, rec *recorder) (tally, time.Duration) {
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := w.clients[k*connections/workers]
			t := &tallies[k]
			var a *[]answer
			if ans != nil {
				a = &ans[k]
			}
			for time.Now().Before(deadline) {
				o := streams[k].next()
				dur, err := w.exec(ctx, cl, o, t, a)
				if err == nil {
					t.done = append(t.done, int64(time.Since(start)))
				}
				if rec != nil {
					rec.addShard(k, span{id: o.id, tier: tierRPC, layer: "rpc", name: o.kind.String(), dur: dur})
				}
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all tally
	for k := range tallies {
		all.merge(&tallies[k])
	}
	return all, elapsed
}
