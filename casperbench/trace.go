package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/wal"
)

// Span tiers. A request's spans share its op id across tiers.
type tier uint8

const (
	tierRPC   tier = iota // around each ProtocolClient call, at the workload's concurrency
	tierCore              // around each in-process core.Casper call, serial
	tierLayer             // around each call into one module, serial
)

var tierNames = [...]string{"rpc", "core", "layer"}

type span struct {
	id    int64
	tier  tier
	layer string
	name  string
	dur   time.Duration
	alloc int64 // bytes allocated, recorded for server upserts
}

// recorder keeps spans in memory until the run ends. Shard k is
// written only by worker k; serial replays use shard 0.
type recorder struct {
	shards [workers][]span
}

func (r *recorder) add(s span)             { r.shards[0] = append(r.shards[0], s) }
func (r *recorder) addShard(k int, s span) { r.shards[k] = append(r.shards[k], s) }

func (r *recorder) all() []span {
	var out []span
	for _, sh := range r.shards {
		out = append(out, sh...)
	}
	return out
}

// write dumps the spans as tab-separated lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\ttier\tlayer\tname\tdur_ns\talloc_bytes")
	for _, s := range r.all() {
		fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%d\t%d\n", s.id, tierNames[s.tier], s.layer, s.name, s.dur.Nanoseconds(), s.alloc)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreStep runs one op against the served instance in-process inside
// a core span. It keeps the world's acknowledged positions current so
// the wire oracle stays exact afterwards.
func coreStep(w *world, o op, rec *recorder) error {
	t0 := time.Now()
	var err error
	switch o.kind {
	case opUpdate:
		err = w.c.UpdateUser(o.uid, o.pos)
	case opNN:
		_, err = w.c.NearestPublic(o.uid)
	case opKNN:
		_, _, err = w.c.KNearestPublic(o.uid, knnK)
	case opRange:
		_, _, err = w.c.RangePublic(o.uid, w.in.radius)
	case opChurn:
		err = w.churnOne()
	}
	rec.add(span{id: o.id, tier: tierCore, layer: "core", name: o.kind.String(), dur: time.Since(t0)})
	if err != nil {
		return fmt.Errorf("core replay %s uid %d: %w", o.kind, o.uid, err)
	}
	if o.kind == opUpdate {
		w.pos[o.uid-1] = o.pos
	}
	return nil
}

// buildStack brings a composed-layer stack to the state newWorld
// leaves the served instance in, serially and without spans.
func buildStack(in *inputs, walPath string) (*stack, []watchRef, error) {
	s, err := newStack(coreConfig(in, ""), walPath)
	if err != nil {
		return nil, nil, err
	}
	if err := s.loadPublic(in.targets); err != nil {
		return nil, nil, err
	}
	if in.w.watches > 0 {
		s.enableMonitor(1024)
	}
	for i, p := range in.start {
		if err := s.register(anonymizer.UserID(i+1), p, anonymizer.Profile{K: 1}); err != nil {
			return nil, nil, err
		}
	}
	for i, prof := range in.profiles {
		if err := s.setProfile(anonymizer.UserID(i+1), prof); err != nil {
			return nil, nil, err
		}
	}
	refs := make([]watchRef, 0, len(in.watches))
	for _, spec := range in.watches {
		qid, err := s.watch(spec, in.radius)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, watchRef{uid: spec.uid, qid: qid})
	}
	return s, refs, nil
}

// stackReplay drives a composed stack through an op sequence, with the
// same churn draws the served world makes.
type stackReplay struct {
	s        *stack
	in       *inputs
	watches  []watchRef
	churnRNG *rand.Rand
}

// step applies one op and returns its outcome for comparison.
func (r *stackReplay) step(o op) (queryResult, error) {
	r.s.cur = o.id
	switch o.kind {
	case opUpdate:
		region, err := r.s.update(o.uid, o.pos)
		return queryResult{cloak: region}, err
	case opChurn:
		return queryResult{}, r.churn()
	default:
		return r.s.query(o.kind, o.uid, r.in.radius)
	}
}

func (r *stackReplay) churn() error {
	if len(r.watches) == 0 {
		return nil
	}
	i := r.churnRNG.Intn(len(r.watches))
	r.s.unwatch(r.watches[i].uid, r.watches[i].qid)
	spec := r.in.drawWatch(r.churnRNG)
	qid, err := r.s.watch(spec, r.in.radius)
	if err != nil {
		r.watches = append(r.watches[:i], r.watches[i+1:]...)
		return err
	}
	r.watches[i] = watchRef{uid: spec.uid, qid: qid}
	return nil
}

func newChurnRNG(in *inputs) *rand.Rand { return rand.New(rand.NewSource(in.seed ^ 0xc4a2)) }

// drainEvents waits (up to a second) until the monitor's asynchronous
// delivery queue is empty, so event counts cover what was emitted.
func drainEvents(m *continuous.Monitor) {
	if m == nil {
		return
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if depth, _ := m.QueueStats(); depth == 0 {
			return
		}
	}
}

// layerReport is what the traced replays yield: per-layer numbers
// plus the self-time attribution.
type layerReport struct {
	metrics map[string]float64
	shares  []layerShare
}

type layerShare struct {
	layer string
	frac  float64
	top   string // the layer's heaviest call
}

var layerNames = []string{"anonymizer", "privacyobs", "server", "wal", "continuous", "privacyqp"}

// analyze turns the serial spans of both replays (and the monitor's
// counters) into per-layer metrics. Core self time for an op is its
// core span minus the layer spans recorded for the same op id.
func analyze(coreSpans, layerSpans []span, st layerStats, mon monitorCounts) layerReport {
	m := map[string]float64{}
	layerSum := map[int64]time.Duration{}
	type acc struct {
		n     int64
		total time.Duration
		alloc int64
	}
	calls := map[string]*acc{}
	byLayer := map[string]time.Duration{}
	for _, s := range layerSpans {
		layerSum[s.id] += s.dur
		key := s.layer + "." + s.name
		a := calls[key]
		if a == nil {
			a = &acc{}
			calls[key] = a
		}
		a.n++
		a.total += s.dur
		a.alloc += s.alloc
		byLayer[s.layer] += s.dur
	}
	meanUS := func(key string) float64 {
		a := calls[key]
		if a == nil || a.n == 0 {
			return 0
		}
		return float64(a.total.Nanoseconds()) / float64(a.n) / 1e3
	}
	var updSelf, qrySelf []float64
	var coreTotal time.Duration
	for _, s := range coreSpans {
		coreTotal += s.dur
		self := float64((s.dur - layerSum[s.id]).Nanoseconds()) / 1e3
		switch s.name {
		case opUpdate.String():
			updSelf = append(updSelf, self)
		case opNN.String(), opKNN.String(), opRange.String():
			qrySelf = append(qrySelf, self)
		}
	}
	m["core.update_self_us"] = quantile(updSelf, 0.5)
	m["core.query_self_us"] = quantile(qrySelf, 0.5)

	m["anonymizer.update_us"] = meanUS("anonymizer.update")
	m["anonymizer.cloak_us"] = meanUS("anonymizer.cloak")
	m["anonymizer.steps_up_mean"] = ratio(float64(st.stepsUp), float64(st.cloaks))
	m["anonymizer.k_found_over_k_mean"] = ratio(st.kRatioSum, float64(st.kRatioN))
	m["anonymizer.unsatisfiable"] = float64(st.unsatisfiable)

	m["privacyobs.observe_us"] = meanUS("privacyobs.observe")
	m["privacyobs.budget_check_us"] = meanUS("privacyobs.budget_check")

	m["server.upsert_us"] = meanUS("server.upsert")
	if a := calls["server.upsert"]; a != nil && a.n > 0 {
		m["server.upsert_alloc_kb"] = float64(a.alloc) / float64(a.n) / 1024
	} else {
		m["server.upsert_alloc_kb"] = 0
	}
	m["server.nn_hit_us"] = meanUS("server.nn_hit")
	m["server.nn_miss_us"] = meanUS("server.nn_miss")
	m["server.knn_us"] = meanUS("server.knn")
	m["server.range_us"] = meanUS("server.range")
	m["server.cache_hit_frac"] = ratio(float64(st.cacheHits), float64(st.cacheHits+st.misses))
	m["server.candidates_per_query"] = ratio(float64(st.candidates), float64(st.queries))

	m["privacyqp.refine_us"] = meanUS("privacyqp.refine")
	m["privacyqp.answers_per_candidate"] = ratio(float64(st.answers), float64(st.candidates))

	m["continuous.apply_us"] = ratio(float64(mon.apply.Nanoseconds())/1e3, float64(mon.ticks))
	m["continuous.evals_per_update"] = ratio(float64(mon.evals), float64(mon.updates))
	m["continuous.safe_hit_frac"] = ratio(float64(mon.safeHits), float64(st.watchMoves))
	m["continuous.events_per_update"] = ratio(float64(mon.events), float64(mon.updates))

	m["wal.append_us"] = meanUS("wal.append")
	m["wal.bytes_per_update"] = ratio(float64(st.walBytes), float64(st.upserts))

	var rep layerReport
	var layered time.Duration
	for _, l := range layerNames {
		layered += byLayer[l]
		frac := ratio(float64(byLayer[l]), float64(coreTotal))
		m[l+".self_frac"] = frac
		top, topDur := "", time.Duration(0)
		for key, a := range calls {
			if strings.HasPrefix(key, l+".") && a.total > topDur {
				top, topDur = key, a.total
			}
		}
		rep.shares = append(rep.shares, layerShare{layer: l, frac: frac, top: top})
	}
	m["core.self_frac"] = ratio(float64(coreTotal-layered), float64(coreTotal))
	rep.shares = append(rep.shares, layerShare{layer: "core", frac: m["core.self_frac"], top: "core (own time)"})
	sort.Slice(rep.shares, func(i, j int) bool { return rep.shares[i].frac > rep.shares[j].frac })
	rep.metrics = m
	return rep
}

// monitorCounts are the monitor's cumulative counters (plus the
// events its subscriber received), or their change over a replay.
type monitorCounts struct {
	updates, evals, safeHits, events, ticks int64
	apply                                   time.Duration
}

func readMonitor(m *continuous.Monitor, events int64) monitorCounts {
	if m == nil {
		return monitorCounts{}
	}
	ticks, apply := m.ApplyStats()
	return monitorCounts{
		updates: m.Updates(), evals: m.Evaluations(), safeHits: m.SafeRegionHits(),
		events: events, ticks: ticks, apply: apply,
	}
}

func (b monitorCounts) minus(a monitorCounts) monitorCounts {
	return monitorCounts{
		updates: b.updates - a.updates, evals: b.evals - a.evals,
		safeHits: b.safeHits - a.safeHits, events: b.events - a.events,
		ticks: b.ticks - a.ticks, apply: b.apply - a.apply,
	}
}

// overheadP50 is the median over ops of the rpc span minus the core
// span recorded for the same op id, in microseconds.
func overheadP50(rpc, coreSpans []span) float64 {
	coreByID := make(map[int64]time.Duration, len(coreSpans))
	for _, s := range coreSpans {
		coreByID[s.id] = s.dur
	}
	var diffs []float64
	for _, s := range rpc {
		if c, ok := coreByID[s.id]; ok {
			diffs = append(diffs, float64((s.dur-c).Nanoseconds())/1e3)
		}
	}
	return quantile(diffs, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay runs ops serially, each first through the served
// core.Casper (tier 2, core spans) and then through a composed-layer
// stack built to the same state (tier 3, layer spans). Interleaving
// the two keeps both under the same heap and cache conditions, so an
// op's core span minus its layer spans is core's own time.
func replay(wd *world, ops []op, o options) (*recorder, []span, layerStats, monitorCounts, error) {
	in := wd.in
	walPath := ""
	if in.w.wal {
		walPath = filepath.Join(o.dir, fmt.Sprintf("wal-layers-%d.log", os.Getpid()))
		defer os.Remove(walPath)
	}
	stk, refs, err := buildStack(in, walPath)
	if err != nil {
		return nil, nil, layerStats{}, monitorCounts{}, err
	}
	stk.st = layerStats{}
	drainEvents(stk.mon)
	runtime.GC()
	coreRec, layerRec := &recorder{}, &recorder{}
	stk.rec = layerRec
	r := &stackReplay{s: stk, in: in, watches: refs, churnRNG: newChurnRNG(in)}
	m0 := readMonitor(stk.mon, stk.events.Load())
	for _, op := range ops {
		if err = coreStep(wd, op, coreRec); err != nil {
			break
		}
		if _, err = r.step(op); err != nil {
			err = fmt.Errorf("layer replay %s uid %d: %w", op.kind, op.uid, err)
			break
		}
	}
	// Closing drains the asynchronous event queue, so the event count
	// covers everything the replay emitted.
	if cerr := stk.close(); err == nil {
		err = cerr
	}
	m1 := readMonitor(stk.mon, stk.events.Load())
	return coreRec, layerRec.all(), stk.st, m1.minus(m0), err
}

// liveBytes is the size a compacted WAL holds for the live state: one
// record per target and one per user.
func liveBytes(in *inputs) int64 {
	n := int64(wal.RecordSize(wal.Record{Type: wal.PrivateUpsert})) * int64(in.w.users)
	for _, t := range in.targets {
		n += int64(wal.RecordSize(wal.Record{Type: wal.PublicAdd, Name: t.Name}))
	}
	return n
}
