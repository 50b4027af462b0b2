package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/continuous"
	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/privacyobs"
	"casper/internal/privacyqp"
	"casper/internal/rtree"
	"casper/internal/server"
	"casper/internal/wal"
)

// stack composes Casper's layers the way core.Casper does, calling
// each module's public functions directly so the benchmark can time
// every call from outside the program. Its answers must equal
// core.Casper's for the same op sequence (see layers_test.go).
type stack struct {
	cfg    core.Config
	anon   anonymizer.Anonymizer
	obs    *privacyobs.Observer
	srv    *server.Server
	log    *wal.Log // nil without a WAL
	mon    *continuous.Monitor
	pseudo map[anonymizer.UserID]int64
	rng    *rand.Rand // pseudonyms, drawn like core's

	watches      map[anonymizer.UserID][]continuous.QueryID
	rangeWatches map[anonymizer.UserID][]continuous.QueryID

	rec    *recorder // nil records nothing
	cur    int64     // id of the op being replayed, stamped on spans
	st     layerStats
	events atomic.Int64 // continuous events delivered (asynchronously)
}

// layerStats counts what the layer calls did during a replay, so
// per-call ratios are measured where the work happens.
type layerStats struct {
	cloaks, stepsUp     int64
	kRatioSum           float64
	kRatioN             int64
	unsatisfiable       int64
	upserts, walBytes   int64
	cacheHits, misses   int64
	queries, candidates int64
	answers             int64
	watchMoves          int64
}

func newStack(cfg core.Config, walPath string) (*stack, error) {
	anon, err := anonymizer.New(core.AdaptiveBackend, anonymizer.BackendConfig{
		Universe: cfg.Universe, Levels: cfg.PyramidLevels, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{
		cfg:    cfg,
		anon:   anon,
		obs:    privacyobs.New(),
		srv:    server.New(),
		pseudo: make(map[anonymizer.UserID]int64),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if walPath != "" {
		if s.log, err = wal.Create(walPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) close() error {
	if s.mon != nil {
		s.mon.Close()
	}
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// timed runs fn inside a span of layer/name for the current op.
func (s *stack) timed(layer, name string, fn func()) {
	if s.rec == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	s.rec.add(span{id: s.cur, tier: tierLayer, layer: layer, name: name, dur: time.Since(t0)})
}

// loadPublic installs the targets. With a WAL the log is written as
// the compaction core performs after a bulk load would leave it.
func (s *stack) loadPublic(objs []server.PublicObject) error {
	s.srv.LoadPublic(objs)
	if s.log != nil {
		for _, o := range objs {
			if err := s.log.Append(wal.Record{Type: wal.PublicAdd, ID: o.ID, X0: o.Pos.X, Y0: o.Pos.Y, Name: o.Name}); err != nil {
				return err
			}
		}
	}
	if s.mon != nil {
		s.mon.SetPublic(s.srv.PublicItems())
	}
	return nil
}

// enableMonitor attaches the continuous monitor with asynchronous
// event delivery, seeded from the server's tables.
func (s *stack) enableMonitor(buffer int) {
	s.mon = continuous.NewMonitor(continuous.Config{
		Universe:       s.cfg.Universe,
		SafeRegionFrac: s.cfg.MonitorSafeFrac,
		Notify:         func(continuous.Event) { s.events.Add(1) },
		Buffer:         buffer,
	})
	s.watches = make(map[anonymizer.UserID][]continuous.QueryID)
	s.rangeWatches = make(map[anonymizer.UserID][]continuous.QueryID)
	s.mon.SetPublic(s.srv.PublicItems())
	items := s.srv.PrivateItems()
	seed := make([]continuous.PrivateUpdate, len(items))
	for i, it := range items {
		seed[i] = continuous.PrivateUpdate{ID: it.ID, Region: it.Rect}
	}
	_ = s.mon.ApplyUpdates(seed)
}

func (s *stack) newPseudonym() int64 {
	for {
		pid := s.rng.Int63()
		if _, exists := s.srv.GetPrivate(pid); !exists {
			return pid
		}
	}
}

func (s *stack) register(uid anonymizer.UserID, pos geom.Point, prof anonymizer.Profile) error {
	var err error
	s.timed("anonymizer", "register", func() { err = s.anon.Register(uid, pos, prof) })
	if err != nil {
		return err
	}
	s.pseudo[uid] = s.newPseudonym()
	if _, err := s.pushCloak(uid); err != nil {
		delete(s.pseudo, uid)
		_ = s.anon.Deregister(uid)
		return err
	}
	return nil
}

// update returns the cloak stored for the user.
func (s *stack) update(uid anonymizer.UserID, pos geom.Point) (geom.Rect, error) {
	var err error
	s.timed("anonymizer", "update", func() { err = s.anon.Update(uid, pos) })
	if err != nil {
		return geom.Rect{}, err
	}
	return s.pushCloak(uid)
}

func (s *stack) setProfile(uid anonymizer.UserID, prof anonymizer.Profile) error {
	var err error
	s.timed("anonymizer", "set_profile", func() { err = s.anon.SetProfile(uid, prof) })
	if err != nil {
		return err
	}
	_, err = s.pushCloak(uid)
	return err
}

// cloakUID is core's cloak step: budget check, cloak, observe.
func (s *stack) cloakUID(uid anonymizer.UserID) (anonymizer.CloakedRegion, error) {
	var exhausted bool
	s.timed("privacyobs", "budget_check", func() { exhausted = s.obs.BudgetExhausted(int64(uid)) })
	if exhausted {
		return anonymizer.CloakedRegion{}, fmt.Errorf("%w: user %d", core.ErrBudgetExhausted, uid)
	}
	var (
		cr  anonymizer.CloakedRegion
		err error
	)
	s.timed("anonymizer", "cloak", func() { cr, err = s.anon.Cloak(uid) })
	if err != nil {
		if errors.Is(err, anonymizer.ErrUnsatisfiable) {
			s.st.unsatisfiable++
		}
		return cr, err
	}
	s.st.cloaks++
	s.st.stepsUp += int64(cr.StepsUp)
	if cr.KRequested > 0 {
		s.st.kRatioSum += float64(cr.KFound) / float64(cr.KRequested)
		s.st.kRatioN++
	}
	s.timed("privacyobs", "observe", func() { s.obs.ObserveCloak(core.AdaptiveBackend, int64(uid), cr) })
	return cr, nil
}

// pushCloak recomputes and stores the user's cloak, logging it first
// when durable, then feeds the monitor.
func (s *stack) pushCloak(uid anonymizer.UserID) (geom.Rect, error) {
	pid, ok := s.pseudo[uid]
	if !ok {
		return geom.Rect{}, fmt.Errorf("%w: user %d", core.ErrNotRegistered, uid)
	}
	cr, err := s.cloakUID(uid)
	if err != nil {
		return geom.Rect{}, err
	}
	obj := server.PrivateObject{ID: pid, Region: cr.Region}
	if s.log != nil {
		rec := wal.Record{
			Type: wal.PrivateUpsert, ID: obj.ID,
			X0: obj.Region.Min.X, Y0: obj.Region.Min.Y,
			X1: obj.Region.Max.X, Y1: obj.Region.Max.Y,
		}
		s.timed("wal", "append", func() { err = s.log.Append(rec) })
		if err != nil {
			return geom.Rect{}, err
		}
		s.st.walBytes += int64(wal.RecordSize(rec))
	}
	if err := s.upsert(obj); err != nil {
		return geom.Rect{}, err
	}
	return cr.Region, s.notifyCloak(uid, pid, cr.Region)
}

// upsert stores one cloak, recording the bytes it allocated.
func (s *stack) upsert(obj server.PrivateObject) error {
	s.st.upserts++
	if s.rec == nil {
		return s.srv.UpsertPrivate(obj)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	t0 := time.Now()
	err := s.srv.UpsertPrivate(obj)
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	s.rec.add(span{id: s.cur, tier: tierLayer, layer: "server", name: "upsert", dur: d, alloc: int64(ms.TotalAlloc - before)})
	return err
}

func (s *stack) notifyCloak(uid anonymizer.UserID, pid int64, region geom.Rect) error {
	if s.mon == nil {
		return nil
	}
	var err error
	s.timed("continuous", "apply", func() {
		if err = s.mon.UpsertPrivate(pid, region); err != nil {
			return
		}
		for _, qid := range s.watches[uid] {
			s.st.watchMoves++
			if err = s.mon.UpdateNNCloak(qid, region); err != nil {
				return
			}
		}
		for _, qid := range s.rangeWatches[uid] {
			s.st.watchMoves++
			if err = s.mon.UpdateRadiusCloak(qid, region); err != nil {
				return
			}
		}
	})
	return err
}

// position is core's stand-in for "the client knows where it is".
func (s *stack) position(uid anonymizer.UserID) (geom.Point, error) {
	p, ok := s.anon.(interface {
		Position(anonymizer.UserID) (geom.Point, error)
	})
	if !ok {
		return geom.Point{}, fmt.Errorf("anonymizer does not expose positions")
	}
	var (
		pos geom.Point
		err error
	)
	s.timed("anonymizer", "position", func() { pos, err = p.Position(uid) })
	return pos, err
}

// queryResult is what a private query produced at each step.
type queryResult struct {
	cloak      geom.Rect
	candidates []rtree.Item
	answers    []rtree.Item
}

// query runs one private query over public data: cloak, compute the
// candidate list at the server, refine at the client.
func (s *stack) query(kind opKind, uid anonymizer.UserID, radius float64) (queryResult, error) {
	pos, err := s.position(uid)
	if err != nil {
		return queryResult{}, err
	}
	cr, err := s.cloakUID(uid)
	if err != nil {
		return queryResult{}, err
	}
	var res privacyqp.Result
	switch kind {
	case opNN:
		h0, m0 := s.srv.CacheStats()
		t0 := time.Now()
		res, err = s.srv.NNPublic(cr.Region, s.cfg.Query)
		d := time.Since(t0)
		h1, m1 := s.srv.CacheStats()
		s.st.cacheHits += h1 - h0
		s.st.misses += m1 - m0
		name := "nn_hit"
		if m1 > m0 {
			name = "nn_miss"
		}
		if s.rec != nil {
			s.rec.add(span{id: s.cur, tier: tierLayer, layer: "server", name: name, dur: d})
		}
	case opKNN:
		h0, m0 := s.srv.CacheStats()
		s.timed("server", "knn", func() { res, err = s.srv.KNNPublic(cr.Region, knnK, s.cfg.Query) })
		h1, m1 := s.srv.CacheStats()
		s.st.cacheHits += h1 - h0
		s.st.misses += m1 - m0
	case opRange:
		s.timed("server", "range", func() { res, err = s.srv.RangePublic(cr.Region, radius) })
	}
	if err != nil {
		return queryResult{}, err
	}
	// core models the downlink here; it is core's own time.
	_ = s.cfg.Transmission.TimeFor(cr.Mechanism, len(res.Candidates))
	out := queryResult{cloak: cr.Region, candidates: res.Candidates}
	s.timed("privacyqp", "refine", func() {
		switch kind {
		case opNN:
			if best, ok := privacyqp.RefineNN(pos, res.Candidates, privacyqp.PublicData); ok {
				out.answers = []rtree.Item{best}
			}
		case opKNN:
			out.answers = privacyqp.RefineKNN(pos, res.Candidates, knnK, privacyqp.PublicData)
		case opRange:
			out.answers = privacyqp.RefineRange(pos, res.Candidates, radius, privacyqp.PublicData)
		}
	})
	s.st.queries++
	s.st.candidates += int64(len(res.Candidates))
	s.st.answers += int64(len(out.answers))
	if kind == opNN && len(out.answers) == 0 {
		return out, core.ErrEmptyCandidates
	}
	return out, nil
}

// watch registers a standing query for uid, as core's WatchNearest
// and WatchRange do.
func (s *stack) watch(spec watchSpec, radius float64) (continuous.QueryID, error) {
	var (
		cr  anonymizer.CloakedRegion
		err error
	)
	s.timed("anonymizer", "cloak", func() { cr, err = s.anon.Cloak(spec.uid) })
	if err != nil {
		return 0, err
	}
	kind := privacyqp.PublicData
	if spec.kind != watchNNPublic {
		kind = privacyqp.PrivateData
	}
	exclude := int64(-1)
	if kind == privacyqp.PrivateData {
		exclude = s.pseudo[spec.uid]
	}
	var qid continuous.QueryID
	s.timed("continuous", "register", func() {
		if spec.kind == watchRangePrivate {
			qid, _, err = s.mon.RegisterRadius(cr.Region, radius, kind, exclude)
		} else {
			qid, _, err = s.mon.RegisterNN(cr.Region, kind, s.cfg.Query, exclude)
		}
	})
	if err != nil {
		return 0, err
	}
	if spec.kind == watchRangePrivate {
		s.rangeWatches[spec.uid] = append(s.rangeWatches[spec.uid], qid)
	} else {
		s.watches[spec.uid] = append(s.watches[spec.uid], qid)
	}
	return qid, nil
}

func (s *stack) unwatch(uid anonymizer.UserID, qid continuous.QueryID) {
	s.timed("continuous", "unregister", func() { s.mon.Unregister(qid) })
	dropQID(s.watches, uid, qid)
	dropQID(s.rangeWatches, uid, qid)
}

func dropQID(m map[anonymizer.UserID][]continuous.QueryID, uid anonymizer.UserID, qid continuous.QueryID) {
	qids := m[uid]
	for i, q := range qids {
		if q == qid {
			m[uid] = append(qids[:i], qids[i+1:]...)
			if len(m[uid]) == 0 {
				delete(m, uid)
			}
			return
		}
	}
}
