package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"casper/internal/geom"
	"casper/internal/server"
)

// distTol absorbs floating-point noise when two targets sit at the
// same distance from the asker, or a target sits on the range radius.
const distTol = 1e-6

// checkAnswers compares every recorded query answer with brute force
// over all targets from the asker's last acknowledged position. It runs
// after timing stops and returns the number of wrong answers and the
// first mismatch.
func checkAnswers(targets []server.PublicObject, radius float64, answers [][]answer) (int64, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		wrong int64
		first error
	)
	// Two checkers: the benchmark's CPU budget.
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			var bad int64
			var err1 error
			for k := part; k < len(answers); k += 2 {
				for _, a := range answers[k] {
					if err := checkOne(targets, radius, a); err != nil {
						bad++
						if err1 == nil {
							err1 = err
						}
					}
				}
			}
			mu.Lock()
			wrong += bad
			if first == nil {
				first = err1
			}
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	return wrong, first
}

func checkOne(targets []server.PublicObject, radius float64, a answer) error {
	switch a.kind {
	case opNN, opKNN:
		want := 1
		if a.kind == opKNN {
			want = knnK
		}
		best := nearestK(targets, a.pos, want)
		if len(a.ids) != len(best) {
			return fmt.Errorf("%s at %v: got %d answers, want %d", a.kind, a.pos, len(a.ids), len(best))
		}
		for i, id := range a.ids {
			if id == best[i].id {
				continue
			}
			if id < 0 || id >= int64(len(targets)) {
				return fmt.Errorf("%s at %v: unknown target %d", a.kind, a.pos, id)
			}
			got := a.pos.Dist(targets[id].Pos)
			if math.Abs(got-best[i].d) > distTol {
				return fmt.Errorf("%s at %v: answer %d is target %d (%.3f m), want %d (%.3f m)",
					a.kind, a.pos, i, id, got, best[i].id, best[i].d)
			}
		}
	case opRange:
		seen := make(map[int64]bool, len(a.ids))
		for _, id := range a.ids {
			if id < 0 || id >= int64(len(targets)) {
				return fmt.Errorf("range at %v: unknown target %d", a.pos, id)
			}
			if d := a.pos.Dist(targets[id].Pos); d > radius+distTol || seen[id] {
				return fmt.Errorf("range at %v: target %d at %.3f m is outside %.0f m or repeated", a.pos, id, d, radius)
			}
			seen[id] = true
		}
		for _, t := range targets {
			if d := a.pos.Dist(t.Pos); d < radius-distTol && !seen[t.ID] {
				return fmt.Errorf("range at %v: missing target %d at %.3f m", a.pos, t.ID, d)
			}
		}
	}
	return nil
}

type ranked struct {
	id int64
	d  float64
}

// nearestK is the brute-force k nearest targets, ascending.
func nearestK(targets []server.PublicObject, p geom.Point, k int) []ranked {
	best := make([]ranked, 0, k+1)
	for _, t := range targets {
		d := p.Dist(t.Pos)
		if len(best) == k && d >= best[k-1].d {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return best[i].d > d })
		best = append(best, ranked{})
		copy(best[i+1:], best[i:])
		best[i] = ranked{id: t.ID, d: d}
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}
